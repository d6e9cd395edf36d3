"""Persistence for round-robin databases (Ganglia's ``rrd_rootdir``).

Real gmetad keeps one RRD file per metric under
``<rrd_rootdir>/<source>/<host>/<metric>.rrd``.  This module mirrors
that layout with ``.npz`` files (numpy's compressed container): a store
saved here survives a daemon restart with every archive row, the
partial accumulator and the step clock intact.

Format: each ``.npz`` holds one JSON metadata blob plus the row array
of every RRA.  A standalone :class:`RrdDatabase` saves as format 1; a
store saves each series as format 2, the
:meth:`~repro.rrd.bank.SeriesBank.export_series` state of its bank
column.  Loading reconstructs series observationally identical to the
saved ones (pinned by round-trip tests).
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.rrd.consolidate import ConsolidationFunction
from repro.rrd.database import RraSpec, RrdDatabase
from repro.rrd.store import MetricKey, RrdStore

FORMAT_VERSION = 1
#: one store series: a bank column's exported state
SERIES_FORMAT_VERSION = 2


class PersistError(RuntimeError):
    """Corrupt or incompatible saved database."""


def _write(path: pathlib.Path, meta: Dict, rows: List[np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"rra_{i}": values for i, values in enumerate(rows)}
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def _read(path: pathlib.Path, version: int) -> Tuple[Dict, List[np.ndarray]]:
    """The metadata blob and per-RRA row arrays of one saved file."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta.get("version") != version:
                raise PersistError(
                    f"{path}: format version {meta.get('version')} not supported"
                )
            rows = [data[f"rra_{i}"] for i in range(len(meta["rras"]))]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"cannot load {path}: {exc}") from None
    return meta, rows


def save_database(database: RrdDatabase, path: Union[str, pathlib.Path]) -> None:
    """Write one database to ``path`` (parent directories created)."""
    meta = {
        "version": FORMAT_VERSION,
        "step": database.step,
        "downtime_fill": database.downtime_fill,
        "current_step": database._current_step,
        "step_sum": database._step_sum,
        "step_count": database._step_count,
        "last_update_time": database.last_update_time,
        "updates": database.updates,
        "rras": [],
    }
    for rra in database.rras:
        meta["rras"].append(
            {
                "cf": rra.cf.value,
                "pdp_per_row": rra.pdp_per_row,
                "rows": rra.rows,
                "xff": rra.xff,
                "head": rra._head,
                "rows_written": rra.rows_written,
                "last_row_end_step": rra.last_row_end_step,
                "acc_total": rra._acc.total,
                "acc_known": rra._acc.known,
                "acc_sum": rra._acc._sum,
                "acc_min": _json_float(rra._acc._min),
                "acc_max": _json_float(rra._acc._max),
                "acc_last": rra._acc._last,
            }
        )
    _write(pathlib.Path(path), meta, [rra._values for rra in database.rras])


def _json_float(value: float):
    """inf/-inf/nan survive JSON as tagged strings."""
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def _from_json_float(value):
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    return value


def load_database(path: Union[str, pathlib.Path]) -> RrdDatabase:
    """Reconstruct a database saved by :func:`save_database`."""
    path = pathlib.Path(path)
    meta, row_arrays = _read(path, FORMAT_VERSION)
    specs = [
        RraSpec(
            ConsolidationFunction(entry["cf"]),
            entry["pdp_per_row"],
            entry["rows"],
            entry["xff"],
        )
        for entry in meta["rras"]
    ]
    database = RrdDatabase(
        step=meta["step"],
        rra_specs=specs,
        downtime_fill=meta["downtime_fill"],
    )
    database._current_step = meta["current_step"]
    database._step_sum = meta["step_sum"]
    database._step_count = meta["step_count"]
    database.last_update_time = meta["last_update_time"]
    database.updates = meta["updates"]
    for rra, entry, values in zip(database.rras, meta["rras"], row_arrays):
        if len(values) != rra.rows:
            raise PersistError(f"{path}: row array size mismatch")
        rra._values[:] = values
        rra._head = entry["head"]
        rra.rows_written = entry["rows_written"]
        rra.last_row_end_step = entry["last_row_end_step"]
        rra._acc.total = entry["acc_total"]
        rra._acc.known = entry["acc_known"]
        rra._acc._sum = entry["acc_sum"]
        rra._acc._min = _from_json_float(entry["acc_min"])
        rra._acc._max = _from_json_float(entry["acc_max"])
        rra._acc._last = entry["acc_last"]
    return database


# -- whole-store persistence ---------------------------------------------------


def _key_path(root: pathlib.Path, key: MetricKey) -> pathlib.Path:
    """Ganglia's rrd_rootdir layout: source/cluster/host/metric.npz."""
    return root / key.source / key.cluster / key.host / f"{key.metric}.npz"


def save_store(store: RrdStore, root: Union[str, pathlib.Path]) -> int:
    """Persist every series of a full-mode store; returns file count."""
    if store.mode != "full":
        raise PersistError("only full-mode stores hold databases to save")
    root = pathlib.Path(root)
    keys = store.keys()
    for key in keys:
        view = store.database(key)
        state = view.bank.export_series(view.index)
        rows = state.pop("rings")
        _write(_key_path(root, key), {"version": SERIES_FORMAT_VERSION, **state}, rows)
    return len(keys)


def load_store(
    root: Union[str, pathlib.Path],
    step: float = 15.0,
) -> RrdStore:
    """Rebuild a store from a directory written by :func:`save_store`.

    The step, RRA ladder and downtime fill come from the files (``step``
    only sets the step of an empty directory's store); a directory
    whose files disagree on them is rejected.
    """
    root = pathlib.Path(root)
    if not root.is_dir():
        raise PersistError(f"no such archive directory: {root}")
    store = None
    for path in sorted(root.rglob("*.npz")):
        relative = path.relative_to(root)
        parts = relative.parts
        if len(parts) != 4:
            raise PersistError(f"unexpected archive layout at {relative}")
        source, cluster, host, filename = parts
        key = MetricKey(source, cluster, host, filename[: -len(".npz")])
        meta, rows = _read(path, SERIES_FORMAT_VERSION)
        try:
            if store is None:
                store = RrdStore(
                    mode="full",
                    step=meta["step"],
                    rra_specs=[
                        RraSpec(r["cf"], r["pdp_per_row"], r["rows"], r["xff"])
                        for r in meta["rras"]
                    ],
                    downtime_fill=meta["downtime_fill"],
                )
            store._bank.import_series(store._slot(key), {**meta, "rings": rows})
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(f"{path}: {exc}") from None
    return store if store is not None else RrdStore(mode="full", step=step)
