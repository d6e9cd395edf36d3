"""Columnar read views: per-host figures for consumers, by row-slice.

A cluster snapshot keeps its hosts only as columns, so the read-side
consumers (the static frontend, the ``gstat`` tools) take their
per-host values from these accessors (the drift auditor needs no view
at all: it re-folds the held columns with ``summarize_columns``):

- :func:`host_statuses` extracts the (name, up, load_one, cpu_num)
  tuples the cluster views and status lines consume, vectorized over
  the host axis;
- :func:`host_metric_items` yields one host's (metric name, raw VAL)
  pairs in row order -- document order, the order a parsed host's
  metric dict iterates;
- :func:`busiest_from_columns` ranks live hosts by one metric, the
  column form of :func:`repro.analysis.loadstats.busiest_hosts` (same
  liveness gate, same stable-sort tie-breaking by host order).

A value that does not parse as a number (``VAL="x"`` on a numeric
TYPE) reads as absent, the way a non-numeric metric does.
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


def _per_host_numeric(cols, metric_name: str) -> List[Optional[float]]:
    """One metric's numeric value per host (None where absent, non-numeric
    or unparseable)."""
    out: List[Optional[float]] = [None] * cols.host_count
    name_id = cols.pool.lookup(metric_name)
    if name_id is None:
        return out
    rows = np.nonzero((cols.name_ids == name_id) & cols.valid)[0]
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

    Mirrors :func:`repro.analysis.loadstats.busiest_hosts`: only live
    hosts compete, non-numeric and unparseable carriers are skipped, and
    ties keep host (insertion) order via the stable sort.
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
