"""The three page models the Ganglia web frontend renders (§3.2).

"The viewer presents the tree in three central ways.  The meta view
summarizes all monitored clusters.  The cluster view describes one
cluster at full-resolution, and the host view shows all information
known about a single host."

:func:`build_view` turns a parsed Ganglia document into the page model,
including the 1-level path where the frontend must compute summaries and
discard unrelated clusters itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.summarize import summarize_cluster
from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    HostElement,
    SummaryInfo,
)


@dataclass
class SummaryRow:
    """One line of the meta view: a cluster or grid rollup."""

    name: str
    kind: str  # "cluster" | "grid"
    hosts_up: int
    hosts_down: int
    load_one_mean: float
    cpu_total: int
    authority: str = ""


@dataclass
class MetaView:
    """All monitored sources, summarized."""

    rows: List[SummaryRow] = field(default_factory=list)
    samples_summarized: int = 0  # frontend-side reduction work (1-level)

    @property
    def total_hosts(self) -> Tuple[int, int]:
        return (
            sum(r.hosts_up for r in self.rows),
            sum(r.hosts_down for r in self.rows),
        )


@dataclass
class HostRow:
    name: str
    up: bool
    load_one: Optional[float]
    cpu_num: Optional[int]


@dataclass
class ClusterView:
    """One cluster at full resolution."""

    name: str
    hosts: List[HostRow] = field(default_factory=list)

    @property
    def up_count(self) -> int:
        return sum(1 for h in self.hosts if h.up)


@dataclass
class HostView:
    """Everything known about a single host."""

    cluster: str
    name: str
    up: bool = True
    metrics: Dict[str, str] = field(default_factory=dict)


class ViewBuildError(ValueError):
    """The document did not contain what the view needs."""


def _summary_row(name: str, kind: str, info: SummaryInfo, authority: str = "") -> SummaryRow:
    load = info.metrics.get("load_one")
    cpus = info.metrics.get("cpu_num")
    return SummaryRow(
        name=name,
        kind=kind,
        hosts_up=info.hosts_up,
        hosts_down=info.hosts_down,
        load_one_mean=load.mean() if load else 0.0,
        cpu_total=int(cpus.total) if cpus else 0,
        authority=authority,
    )


def _numeric_val(host: HostElement, metric_name: str) -> Optional[float]:
    """None where the metric is absent, non-numeric or unparseable
    (``VAL="x"``): the rule ``serve.views`` applies."""
    metric = host.metrics.get(metric_name)
    try:
        return float(metric.val) if metric and metric.is_numeric else None
    except ValueError:
        return None


def _cluster_rows(cluster: ClusterElement, heartbeat_window: float) -> List[HostRow]:
    rows = []
    for host in cluster.hosts.values():
        cpus = _numeric_val(host, "cpu_num")
        rows.append(
            HostRow(
                name=host.name,
                up=host.is_up(heartbeat_window),
                load_one=_numeric_val(host, "load_one"),
                cpu_num=None if cpus is None else int(cpus),
            )
        )
    rows.sort(key=lambda r: r.name)
    return rows


def build_meta_view(doc: GangliaDocument, heartbeat_window: float = 80.0) -> MetaView:
    """Meta view; computes reductions for any full-form clusters present.

    With an N-level gmetad the document is already all-summary and
    ``samples_summarized`` stays 0; against a 1-level daemon the
    frontend "generates its own summaries", which is the work this
    counts.
    """
    view = MetaView()

    def add_cluster(cluster: ClusterElement) -> None:
        if cluster.is_summary:
            view.rows.append(_summary_row(cluster.name, "cluster", cluster.summary))
        else:
            info, samples = summarize_cluster(cluster, heartbeat_window)
            view.samples_summarized += samples
            view.rows.append(_summary_row(cluster.name, "cluster", info))

    for cluster in doc.clusters.values():
        add_cluster(cluster)
    for grid in doc.grids.values():
        for cluster in grid.clusters.values():
            add_cluster(cluster)
        for sub in grid.grids.values():
            if sub.summary is not None:
                view.rows.append(
                    _summary_row(sub.name, "grid", sub.summary, sub.authority)
                )
    view.rows.sort(key=lambda r: r.name)
    return view


def _find_cluster(doc: GangliaDocument, name: str) -> Optional[ClusterElement]:
    for cluster in doc.walk_clusters():
        if cluster.name == name:
            return cluster
    return None


def build_cluster_view(
    doc: GangliaDocument, cluster_name: str, heartbeat_window: float = 80.0
) -> ClusterView:
    """Cluster view.  Against a 1-level daemon the document contains the
    whole tree; everything but the requested cluster is parsed and
    discarded -- the inefficiency Table 1's middle column quantifies."""
    cluster = _find_cluster(doc, cluster_name)
    if cluster is None or cluster.is_summary:
        raise ViewBuildError(f"no full-resolution cluster {cluster_name!r} in report")
    return ClusterView(
        name=cluster.name, hosts=_cluster_rows(cluster, heartbeat_window)
    )


def build_host_view(
    doc: GangliaDocument,
    cluster_name: str,
    host_name: str,
    heartbeat_window: float = 80.0,
) -> HostView:
    """Host view: one host's metric table."""
    host: Optional[HostElement] = None
    cluster = _find_cluster(doc, cluster_name)
    if cluster is not None and not cluster.is_summary:
        host = cluster.hosts.get(host_name)
    if host is None:
        raise ViewBuildError(
            f"host {host_name!r} (cluster {cluster_name!r}) not in report"
        )
    return HostView(
        cluster=cluster_name,
        name=host.name,
        up=host.is_up(heartbeat_window),
        metrics={m.name: m.val for m in host.metrics.values()},
    )


def build_view(
    doc: GangliaDocument,
    kind: str,
    cluster: Optional[str] = None,
    host: Optional[str] = None,
    heartbeat_window: float = 80.0,
):
    """Dispatch on view kind; the viewer's page-build step."""
    if kind == "meta":
        return build_meta_view(doc, heartbeat_window)
    if kind == "cluster":
        if cluster is None:
            raise ValueError("cluster view needs a cluster name")
        return build_cluster_view(doc, cluster, heartbeat_window)
    if kind == "host":
        if cluster is None or host is None:
            raise ValueError("host view needs cluster and host names")
        return build_host_view(doc, cluster, host, heartbeat_window)
    raise ValueError(f"unknown view kind {kind!r}")
