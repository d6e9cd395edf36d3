"""Columnar read views: ``ensure_hosts``-free accessors for consumers.

Several read-side consumers (the static frontend, the ``gstat`` tools,
the VO directory) used to force a whole-cluster DOM materialization
just to look at a handful of per-host values.  On a columnar daemon
those reads can be answered by row-slice (the drift auditor needs no
view at all: it re-folds the held columns with ``summarize_columns``):

- :func:`has_live_columns` is the dispatch test -- columns held, DOM
  not yet built, at least one host (empty clusters keep the DOM path,
  mirroring the serve engine's empty-cluster fallback);
- :func:`host_statuses` extracts the (name, up, load_one, cpu_num)
  tuples the cluster views and status lines consume, vectorized over
  the host axis;
- :func:`host_metric_items` yields one host's (metric name, raw VAL)
  pairs in row order -- the same order the DOM's insertion-ordered
  metric dict iterates;
- :func:`busiest_from_columns` is the columnar twin of
  :func:`repro.analysis.loadstats.busiest_hosts` (same liveness gate,
  same stable-sort tie-breaking by host order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np


@dataclass(slots=True)
class HostStatus:
    """One host's liveness and headline metrics, however obtained."""

    name: str
    up: bool
    load_one: Optional[float]
    cpu_num: Optional[int]


def has_live_columns(snapshot) -> bool:
    """Whether reads on this snapshot should slice columns, not the DOM."""
    cols = getattr(snapshot, "columns", None)
    cluster = getattr(snapshot, "cluster", None)
    return (
        cols is not None
        and cluster is not None
        and not cluster.hosts
        and cols.host_count > 0
    )


def _per_host_numeric(cols, metric_name: str) -> List[Optional[float]]:
    """One metric's numeric value per host (None where absent/non-numeric)."""
    out: List[Optional[float]] = [None] * cols.host_count
    name_id = cols.pool.lookup(metric_name)
    if name_id is None:
        return out
    rows = np.nonzero((cols.name_ids == name_id) & cols.numeric)[0]
    row_host = cols.row_host
    values = cols.values
    for r in rows:
        out[int(row_host[r])] = float(values[r])
    return out


def host_statuses(cols, heartbeat_window: float) -> List[HostStatus]:
    """Per-host status rows in column (parse) order."""
    up = cols.host_tn <= heartbeat_window
    load = _per_host_numeric(cols, "load_one")
    cpus = _per_host_numeric(cols, "cpu_num")
    return [
        HostStatus(
            name=cols.host_names[h],
            up=bool(up[h]),
            load_one=load[h],
            cpu_num=None if cpus[h] is None else int(cpus[h]),
        )
        for h in range(cols.host_count)
    ]


def host_metric_items(cols, h: int) -> Iterator[Tuple[str, str]]:
    """One host's (metric name, raw VAL) pairs in row order."""
    strings = cols.pool.strings
    start = int(cols.host_row_start[h])
    end = int(cols.host_row_start[h + 1])
    for r in range(start, end):
        yield strings[cols.name_ids[r]], cols.vals_raw[r]


def busiest_from_columns(
    cols,
    metric: str = "load_one",
    count: int = 5,
    heartbeat_window: float = 80.0,
) -> List[Tuple[str, float]]:
    """Top-N live hosts by a numeric metric, straight from the columns.

    Mirrors :func:`repro.analysis.loadstats.busiest_hosts` exactly:
    only live hosts compete, non-numeric carriers are skipped, and ties
    keep host (insertion) order via the stable sort.
    """
    values = _per_host_numeric(cols, metric)
    up = cols.host_tn <= heartbeat_window
    loads = [
        (cols.host_names[h], values[h])
        for h in range(cols.host_count)
        if up[h] and values[h] is not None
    ]
    loads.sort(key=lambda pair: -pair[1])
    return loads[:count]
