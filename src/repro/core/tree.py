"""Monitoring-tree configuration: gmetad nodes, trust edges, data sources.

"The nodes of the tree include all clusters in the set to be monitored,
and wide-area gmeta agents. ... Edges are trusts that allow TCP
connections carrying XML monitoring data to occur.  We manually
configure the unidirectional trust edges such that a child must
explicitly trust its parent." (§2)

A :class:`DataSourceConfig` is one line of gmetad.conf: a source name
plus an ordered list of redundant TCP endpoints (the fail-over list of
Fig. 1).  A :class:`MonitorTree` assembles the whole federation for
experiments and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.analytics.config import AnalyticsConfig
from repro.core.resilience import ResilienceConfig
from repro.net.address import Address
from repro.obs.config import ObservabilityConfig
from repro.readtier.config import ReadTierConfig
from repro.storage.config import StorageTierConfig


@dataclass
class DataSourceConfig:
    """One polled source: a gmond cluster or a child gmetad."""

    name: str
    addresses: List[Address]
    poll_interval: float = 15.0
    timeout: float = 10.0
    #: what answers at the addresses: a gmond "cluster" or a child
    #: gmetad "grid".  Drives the shape of the placeholder the datastore
    #: fabricates when a source dies before its first successful poll.
    kind: str = "cluster"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("data source name must be non-empty")
        if self.kind not in ("cluster", "grid"):
            raise ValueError(f"bad data source kind {self.kind!r}")
        if not self.addresses:
            raise ValueError(f"data source {self.name!r} needs at least one address")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.timeout >= self.poll_interval:
            raise ValueError(
                "timeout must be shorter than poll_interval "
                f"({self.timeout} >= {self.poll_interval})"
            )


@dataclass
class GmetadConfig:
    """Configuration for one gmetad daemon."""

    name: str                      # grid name ("SDSC")
    host: str                      # fabric host the daemon runs on
    data_sources: List[DataSourceConfig] = field(default_factory=list)
    gridname: Optional[str] = None  # defaults to name
    authority_url: Optional[str] = None
    heartbeat_window: float = 80.0
    #: "Gmeta system gathers data from sources at a low frequency polling
    #: interval, generally every 15 seconds" -- default for new sources.
    poll_interval: float = 15.0
    timeout: float = 10.0
    #: archive mode: "full" keeps real RRDs, "account" only counts (big sweeps)
    archive_mode: str = "full"
    #: incremental ingest pipeline: conditional polls, delta
    #: summarization, memoized serialization.  Default on; the paper
    #: runners (Fig 5/6, Table 1) pin it off to keep the eager baseline.
    incremental: bool = True
    #: gray-failure resilience layer (adaptive timeouts, health-biased
    #: fail-over, circuit breakers, salvage ingest, load shedding).
    #: None keeps the paper-faithful baseline, byte-for-byte.
    resilience: Optional[ResilienceConfig] = None
    #: self-observability layer (metrics registry, trace spans, in-band
    #: ``__gmetad__`` cluster, drift auditor).  None keeps the daemon
    #: uninstrumented and its output byte-identical to the baseline.
    observability: Optional[ObservabilityConfig] = None
    #: columnar ingest fast path: interned streaming parse straight into
    #: structure-of-arrays columns, vectorized summarization, and one
    #: batched RRD scatter per poll.  Off by default; turning it on is a
    #: pure performance change -- wire output, CPU charges and archive
    #: contents stay byte-identical to the tree path.
    columnar: bool = False
    #: columnar serve fast path (``repro.serve``): answer detail and
    #: ``/source/host`` path queries by splicing pre-rendered per-host
    #: fragments from a per-source arena, invalidated per host on delta
    #: updates -- no DOM materialization on the serve side.  Requires
    #: ``columnar`` (sources without held columns fall back to the DOM
    #: engine).  Off by default; replies stay byte-identical either way,
    #: reused fragment bytes are charged at the memcpy rate.
    columnar_serve: bool = False
    #: compact binary wire codec (``repro.wire.binfmt``): offer
    #: ``accept=bin1`` on every poll, answer binary to peers that offer
    #: it, and speak binary on the pub-sub data plane.  Per-link
    #: negotiated -- XML-only peers on either side of any link keep
    #: getting XML, byte-identical to baseline.  Off by default.
    binary_wire: bool = False
    #: replicated read tier: export a replication feed over the pub-sub
    #: broker so ReadReplica processes can serve viewer queries.  None
    #: keeps the single-daemon serving path byte-identical to baseline.
    read_tier: Optional[ReadTierConfig] = None
    #: replicated, sharded storage tier: series hashed by host onto fixed
    #: shards, each shard replicated R-way across a fleet of simulated
    #: storage nodes, failover fetch + anti-entropy repair on node death
    #: and a shard rebalance that evens out node load.  None keeps the
    #: single-store archiver path byte-identical to baseline.
    storage_tier: Optional[StorageTierConfig] = None
    #: streaming analytics stage (``repro.analytics``): vectorized
    #: trend/anomaly/time-to-cross kernels over the archive bank at each
    #: flush, predictive alarm-rule kinds, and an in-band
    #: ``__analytics__`` signal cluster.  None keeps the daemon's output
    #: byte-identical to baseline.
    analytics: Optional[AnalyticsConfig] = None

    def __post_init__(self) -> None:
        if self.gridname is None:
            self.gridname = self.name
        if self.authority_url is None:
            self.authority_url = f"http://{self.host}:8651/"

    def add_source(
        self,
        name: str,
        addresses: Sequence[Address],
        poll_interval: Optional[float] = None,
        timeout: Optional[float] = None,
        kind: str = "cluster",
    ) -> DataSourceConfig:
        """Add a data source inheriting this gmetad's intervals."""
        source = DataSourceConfig(
            name=name,
            addresses=list(addresses),
            poll_interval=poll_interval or self.poll_interval,
            timeout=timeout or self.timeout,
            kind=kind,
        )
        self.data_sources.append(source)
        return source


class MonitorTree:
    """The federation: gmetad configs plus parent->child trust edges.

    The tree is validated to be acyclic with at most one parent per
    gmetad (trust edges are manually configured and unidirectional).
    """

    def __init__(self) -> None:
        self._configs: Dict[str, GmetadConfig] = {}
        self._parent: Dict[str, str] = {}
        self._children: Dict[str, List[str]] = {}

    def add_gmetad(self, config: GmetadConfig) -> GmetadConfig:
        """Register a gmetad config (names must be unique)."""
        if config.name in self._configs:
            raise ValueError(f"duplicate gmetad {config.name!r}")
        self._configs[config.name] = config
        self._children.setdefault(config.name, [])
        return config

    def add_trust(self, parent: str, child: str) -> None:
        """Declare that ``child`` trusts ``parent`` to poll it.

        Adds the child gmetad as a data source of the parent.
        """
        if parent not in self._configs:
            raise KeyError(f"unknown parent gmetad {parent!r}")
        if child not in self._configs:
            raise KeyError(f"unknown child gmetad {child!r}")
        if child in self._parent:
            raise ValueError(f"gmetad {child!r} already has a parent")
        # reject cycles: walk up from parent and make sure child absent
        node: Optional[str] = parent
        while node is not None:
            if node == child:
                raise ValueError(f"trust edge {parent}->{child} creates a cycle")
            node = self._parent.get(node)
        self._parent[child] = parent
        self._children[parent].append(child)
        child_config = self._configs[child]
        self._configs[parent].add_source(
            child_config.name, [Address.gmetad(child_config.host)], kind="grid"
        )

    # -- structure queries ---------------------------------------------------

    def config(self, name: str) -> GmetadConfig:
        """The config for one gmetad by name."""
        return self._configs[name]

    def names(self) -> List[str]:
        """All gmetad names, sorted."""
        return sorted(self._configs)

    def parent(self, name: str) -> Optional[str]:
        """The parent gmetad, or None for a root."""
        return self._parent.get(name)

    def children(self, name: str) -> List[str]:
        """Child gmetads of a node, in trust order."""
        return list(self._children.get(name, []))

    def roots(self) -> List[str]:
        """Gmetads with no parent."""
        return sorted(n for n in self._configs if n not in self._parent)

    def is_leaf_gmetad(self, name: str) -> bool:
        """A gmetad with no child gmetads (only cluster sources)."""
        return not self._children.get(name)

    def walk_depth_first(self, root: Optional[str] = None) -> Iterator[str]:
        """Yield gmetad names, children before parents (build order)."""
        visited: Set[str] = set()

        def visit(name: str) -> Iterator[str]:
            for child in self._children.get(name, []):
                yield from visit(child)
            if name not in visited:
                visited.add(name)
                yield name

        roots = [root] if root is not None else self.roots()
        for r in roots:
            yield from visit(r)
