"""Operator tools: textual status reports (the ``gstat`` of this repo).

Real Ganglia ships ``gstat``, a terminal program that prints cluster
status by querying a gmond.  These helpers render the same reports from
either a gmond agent's soft state or a gmetad datastore, and the
federation-wide variant a root-level operator would run.
"""

from __future__ import annotations

from typing import List, Optional

from repro.columnar import InternPool, columns_from_cluster
from repro.core.gmetad_base import GmetadBase
from repro.gmond.agent import GmondAgent
from repro.serve.views import busiest_from_columns, host_statuses


def _status_lines(
    name: str,
    cols,
    heartbeat_window: float,
    show_hosts: bool,
) -> List[str]:
    """One cluster's status report, by row-slice over its columns.

    ``cols`` is None for a cluster with no hosts (a failure placeholder
    or a summary-form cluster): zero up, zero down.  A value that does
    not parse as a number reads as absent (``?``).
    """
    statuses = [] if cols is None else host_statuses(cols, heartbeat_window)
    up = sum(1 for s in statuses if s.up)
    down = len(statuses) - up
    total_cpus = sum(s.cpu_num for s in statuses if s.up and s.cpu_num is not None)
    loads = [s.load_one for s in statuses if s.up and s.load_one is not None]
    mean_load = (sum(loads) / len(loads)) if loads else 0.0
    lines = [
        f"CLUSTER {name} -- {up} up, {down} down, "
        f"{total_cpus} CPUs, mean load {mean_load:.2f}"
    ]
    if show_hosts and cols is not None:
        for status in sorted(statuses, key=lambda s: s.name):
            state = "up  " if status.up else "DOWN"
            load_text = (
                f"{status.load_one:5.2f}"
                if status.load_one is not None
                else "  ?  "
            )
            lines.append(f"  {state} {status.name:24s} load {load_text}")
        top = busiest_from_columns(
            cols, count=3, heartbeat_window=heartbeat_window
        )
        if top:
            hot = ", ".join(f"{n}({v:.2f})" for n, v in top)
            lines.append(f"  busiest: {hot}")
    return lines


def gstat_from_agent(
    agent: GmondAgent, show_hosts: bool = True
) -> str:
    """Cluster status from one gmond agent's redundant soft state."""
    cluster = agent.state.to_cluster_element(agent.engine.now)
    return "\n".join(
        _status_lines(
            cluster.name,
            columns_from_cluster(cluster, InternPool()),
            agent.config.heartbeat_window,
            show_hosts,
        )
    )


def gstat_from_gmetad(
    gmetad: GmetadBase,
    source: Optional[str] = None,
    show_hosts: bool = False,
) -> str:
    """Federation (or single-source) status from a gmetad datastore."""
    lines: List[str] = []
    names = [source] if source else gmetad.datastore.source_names()
    for name in names:
        snapshot = gmetad.datastore.source(name)
        if snapshot is None:
            lines.append(f"SOURCE {name} -- unknown")
            continue
        flag = "" if snapshot.up else "  [UNREACHABLE, stale data]"
        if snapshot.kind == "cluster":
            lines.extend(
                _status_lines(
                    snapshot.cluster.name,
                    snapshot.columns,
                    gmetad.config.heartbeat_window,
                    show_hosts,
                )
            )
            if flag:
                lines[-1] += flag
        else:
            summary = snapshot.summary
            load = summary.metrics.get("load_one")
            lines.append(
                f"GRID {name} -- {summary.hosts_up} up, "
                f"{summary.hosts_down} down, mean load "
                f"{load.mean() if load else 0.0:.2f} "
                f"(detail at {snapshot.authority}){flag}"
            )
    return "\n".join(lines)
