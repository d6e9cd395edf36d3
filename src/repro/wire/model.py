"""Element model for Ganglia XML documents.

These classes are the in-memory form of the wire format on both sides:
gmond builds them from its soft-state cluster view, the writer serializes
them, the parser reconstructs them, and the gmetad datastore hashes them
(§2.3.2).  Clusters and grids exist in two forms:

- **full form**: a cluster with `HOST`/`METRIC` children;
- **summary form**: a `HOSTS UP/DOWN` element plus one `METRICS` additive
  reduction per metric ("a summary contains enough information to
  determine a metric's sum and mean", §2.2).

A :class:`SummaryInfo` is exactly the payload of summary form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.metrics.catalog import Slope
from repro.metrics.types import MetricType


@dataclass(slots=True)
class MetricElement:
    """``<METRIC NAME=.. VAL=.. TYPE=.. .../>`` -- one host metric."""

    name: str
    val: str
    mtype: MetricType
    units: str = ""
    tn: float = 0.0
    tmax: float = 60.0
    dmax: float = 0.0
    slope: Slope = Slope.BOTH
    source: str = "gmond"

    @property
    def is_numeric(self) -> bool:
        return self.mtype.is_numeric

    def numeric(self) -> float:
        """The value as a float; raises for string metrics."""
        if not self.is_numeric:
            raise TypeError(f"metric {self.name!r} is non-numeric")
        return float(self.val)


@dataclass(slots=True)
class MetricSummary:
    """``<METRICS NAME=.. SUM=.. NUM=../>`` -- an additive reduction.

    "This reduction is performed across a known set of nodes, and the
    summary explicitly records the set size" (§2.2).
    """

    name: str
    total: float
    num: int
    mtype: MetricType = MetricType.DOUBLE
    units: str = ""
    slope: Slope = Slope.BOTH
    source: str = "gmetad"

    def mean(self) -> float:
        """The metric mean -- what the multi-resolution views display."""
        return self.total / self.num if self.num else 0.0

    def merged(self, other: "MetricSummary") -> "MetricSummary":
        """Combine two reductions of disjoint node sets (additive)."""
        if other.name != self.name:
            raise ValueError(f"cannot merge {self.name!r} with {other.name!r}")
        return MetricSummary(
            name=self.name,
            total=self.total + other.total,
            num=self.num + other.num,
            mtype=self.mtype,
            units=self.units or other.units,
            slope=self.slope,
            source=self.source,
        )

    def copy(self) -> "MetricSummary":
        """An independent clone (accumulators mutate their own copies)."""
        return MetricSummary(
            name=self.name,
            total=self.total,
            num=self.num,
            mtype=self.mtype,
            units=self.units,
            slope=self.slope,
            source=self.source,
        )


@dataclass(slots=True)
class SummaryInfo:
    """The payload of summary form: host counts plus metric reductions."""

    hosts_up: int = 0
    hosts_down: int = 0
    metrics: Dict[str, MetricSummary] = field(default_factory=dict)

    @property
    def hosts_total(self) -> int:
        return self.hosts_up + self.hosts_down

    def add_metric(self, summary: MetricSummary) -> None:
        """Insert or replace a metric by name."""
        existing = self.metrics.get(summary.name)
        self.metrics[summary.name] = (
            summary if existing is None else existing.merged(summary)
        )

    def merged(self, other: "SummaryInfo") -> "SummaryInfo":
        """Combine summaries of disjoint subtrees."""
        result = SummaryInfo(
            hosts_up=self.hosts_up + other.hosts_up,
            hosts_down=self.hosts_down + other.hosts_down,
            metrics={k: v for k, v in self.metrics.items()},
        )
        for summary in other.metrics.values():
            result.add_metric(summary)
        return result

    def merge_in_place(self, other: "SummaryInfo") -> "SummaryInfo":
        """Fold ``other`` into this summary without rebuilding the dict.

        The O(m) replacement for the quadratic ``info = info.merged(...)``
        accumulation pattern: first occurrence of a metric inserts a
        *copy* (so the source summary is never aliased into a mutable
        accumulator), later occurrences add into that copy.  The float
        additions happen in the same order as the ``merged`` chain, so
        accumulated totals are bit-identical to the old rebuild.
        """
        self.hosts_up += other.hosts_up
        self.hosts_down += other.hosts_down
        for name, summary in other.metrics.items():
            existing = self.metrics.get(name)
            if existing is None:
                self.metrics[name] = summary.copy()
            else:
                existing.total += summary.total
                existing.num += summary.num
                if not existing.units:
                    existing.units = summary.units
        return self

    def copy(self) -> "SummaryInfo":
        """A deep, independent clone (metric objects copied too)."""
        return SummaryInfo(
            hosts_up=self.hosts_up,
            hosts_down=self.hosts_down,
            metrics={k: v.copy() for k, v in self.metrics.items()},
        )


@dataclass(slots=True)
class HostElement:
    """``<HOST NAME=.. .../>`` with its metric children."""

    name: str
    ip: str = ""
    reported: float = 0.0
    tn: float = 0.0
    tmax: float = 20.0
    dmax: float = 0.0
    location: str = ""
    metrics: Dict[str, MetricElement] = field(default_factory=dict)

    def add_metric(self, metric: MetricElement) -> None:
        self.metrics[metric.name] = metric

    @property
    def metric_count(self) -> int:
        return len(self.metrics)

    def is_up(self, heartbeat_window: float = 80.0) -> bool:
        """Liveness rule: host reported within ``heartbeat_window`` secs.

        Mirrors gmetad's TN-vs-4*TMAX heartbeat check.
        """
        return self.tn <= heartbeat_window


@dataclass(slots=True)
class ClusterElement:
    """``<CLUSTER NAME=.. .../>`` in full or summary form."""

    name: str
    owner: str = ""
    localtime: float = 0.0
    url: str = ""
    hosts: Dict[str, HostElement] = field(default_factory=dict)
    summary: Optional[SummaryInfo] = None

    @property
    def is_summary(self) -> bool:
        return not self.hosts and self.summary is not None

    def add_host(self, host: HostElement) -> None:
        """Insert or replace a host by name."""
        self.hosts[host.name] = host

    @property
    def host_count(self) -> int:
        if self.is_summary:
            return self.summary.hosts_total
        return len(self.hosts)

    @property
    def metric_count(self) -> int:
        """Total metric elements (full form) or reductions (summary form)."""
        if self.is_summary:
            return len(self.summary.metrics)
        return sum(h.metric_count for h in self.hosts.values())


@dataclass(slots=True)
class GridElement:
    """``<GRID NAME=.. AUTHORITY=..>`` -- a collection of clusters and grids.

    ``authority`` is the URL of the gmetad that owns the full-resolution
    data: "Each coarse summary report includes the URL that hosts a
    higher resolution view" (§2.2).
    """

    name: str
    authority: str
    localtime: float = 0.0
    grids: Dict[str, "GridElement"] = field(default_factory=dict)
    clusters: Dict[str, ClusterElement] = field(default_factory=dict)
    summary: Optional[SummaryInfo] = None

    @property
    def is_summary(self) -> bool:
        return not self.grids and not self.clusters and self.summary is not None

    def add_cluster(self, cluster: ClusterElement) -> None:
        """Insert or replace a cluster by name."""
        self.clusters[cluster.name] = cluster

    def add_grid(self, grid: "GridElement") -> None:
        """Insert or replace a nested grid by name."""
        self.grids[grid.name] = grid

    def walk_clusters(self) -> Iterator[ClusterElement]:
        """All clusters in this grid's subtree, depth-first."""
        for cluster in self.clusters.values():
            yield cluster
        for grid in self.grids.values():
            yield from grid.walk_clusters()

    @property
    def host_count(self) -> int:
        if self.is_summary:
            return self.summary.hosts_total
        return sum(c.host_count for c in self.clusters.values()) + sum(
            g.host_count for g in self.grids.values()
        )


@dataclass(slots=True)
class GangliaDocument:
    """``<GANGLIA_XML VERSION=.. SOURCE=..>`` -- a complete report."""

    version: str
    source: str
    grids: Dict[str, GridElement] = field(default_factory=dict)
    clusters: Dict[str, ClusterElement] = field(default_factory=dict)

    def add_grid(self, grid: GridElement) -> None:
        self.grids[grid.name] = grid

    def add_cluster(self, cluster: ClusterElement) -> None:
        self.clusters[cluster.name] = cluster

    def walk_clusters(self) -> Iterator[ClusterElement]:
        for cluster in self.clusters.values():
            yield cluster
        for grid in self.grids.values():
            yield from grid.walk_clusters()

    @property
    def host_count(self) -> int:
        return sum(c.host_count for c in self.clusters.values()) + sum(
            g.host_count for g in self.grids.values()
        )
