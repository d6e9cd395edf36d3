"""Gmetad's in-memory state: hash tables keyed by the query path (§2.3.2).

"By organizing the parsed monitoring data in a series of hash tables, we
can support very low-latency queries.  Our approach approximates a DOM
design where each XML tag name keys into a hash table. ... A node must
search at most three hash table levels to find the desired subtree: data
sources, summaries and cluster nodes, and node metrics."

The three levels here are:

1. ``Datastore.sources`` -- data-source name -> :class:`SourceSnapshot`;
2. ``snapshot.columns.host_index`` (full local clusters) or
   ``snapshot.grid.clusters``/``snapshot.grid.grids`` (remote summaries);
3. the host's metric rows in the columns / ``summary.metrics``.

A local cluster's hosts live only in its
:class:`~repro.columnar.layout.ColumnarCluster`; ``snapshot.cluster``
is always a hostless shell carrying the CLUSTER attributes and the
summary.  :class:`SourceSnapshot` refuses an element that holds hosts,
so no reader has a second copy of the cluster to walk.

Snapshots are replaced atomically at the end of each background parse,
so "queries [sic] results are based only on the latest fully-parsed
data" and a query arriving during a poll sees the previous snapshot --
the freshness-for-latency trade of §2.3.1.

Version bookkeeping for the incremental pipeline
------------------------------------------------

Three monotone counters track change at different granularities:

- ``generation`` bumps on *every* write (install, failure mark,
  removal) and only guards the root-rollup cache;
- ``content_version`` bumps when the bytes of a **summary-form** report
  may have changed (installs, placeholder creation, removals) -- it is
  the generation token an N-level gmetad serves to its parent;
- ``detail_version`` additionally bumps on freshness touch-ups
  (:meth:`patch_localtime`) that are visible only in **full-form**
  output, so full-dump pollers re-fetch while summary pollers keep
  getting NOT-MODIFIED.

Each snapshot carries per-source stamps (``detail_stamp`` /
``summary_stamp``) that key the memoized serialization fragments in
:mod:`repro.core.query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.columnar.layout import columns_from_cluster
from repro.core.summarize import merge_summaries
from repro.wire.model import ClusterElement, GridElement, SummaryInfo


@dataclass
class SourceSnapshot:
    """Everything gmetad currently knows about one data source."""

    name: str
    kind: str  # "cluster" (local gmond) or "grid" (child gmetad)
    summary: SummaryInfo
    cluster: Optional[ClusterElement] = None  # hostless shell, cluster sources
    grid: Optional[GridElement] = None        # summary form, grid sources
    #: the cluster's hosts (ColumnarCluster, duck-typed); None for
    #: summary-form clusters and failure placeholders, which have none
    columns: Optional[object] = None
    authority: str = ""                        # URL of the full-resolution view
    up: bool = True
    last_success: float = 0.0
    consecutive_failures: int = 0
    last_error: str = ""
    #: corruption quarantine: the source is still serving (possibly
    #: salvaged or last-good) data, but its recent polls were damaged
    quarantined: bool = False
    corrupt_polls: int = 0
    #: host count recovered by the most recent salvaged ingest
    salvaged_hosts: int = 0
    #: serialization stamps: any byte of this source's full-form (detail)
    #: or summary-form output may have changed since the stamped value
    detail_stamp: int = 0
    summary_stamp: int = 0
    #: memoized XML fragments keyed by form or reply shape ->
    #: (stamp, Chunks); see repro.serve.fragments
    frag_cache: Dict[str, Tuple[int, object]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: columnar-serve fragment arena (duck-typed FragmentArena); installed
    #: alongside the columns so the query engine can splice pre-rendered
    #: per-host fragments
    arena: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("cluster", "grid"):
            raise ValueError(f"bad source kind {self.kind!r}")
        if self.kind == "cluster" and self.cluster is None:
            raise ValueError("cluster snapshot requires a cluster element")
        if self.kind == "grid" and self.grid is None:
            raise ValueError("grid snapshot requires a grid element")
        if self.cluster is not None and self.cluster.hosts:
            raise ValueError(
                f"cluster {self.cluster.name!r}: hosts belong in the "
                "snapshot's columns, the element must be a hostless shell"
            )

    @classmethod
    def from_cluster(
        cls, cluster: ClusterElement, pool, **fields
    ) -> "SourceSnapshot":
        """A cluster source's snapshot from a full-form element.

        The hosts move into columns interned in ``pool``; the snapshot
        keeps a hostless shell carrying the element's attributes and
        summary.  ``fields`` are the other snapshot fields (``name``,
        ``summary``, ``authority``, ...).
        """
        columns = columns_from_cluster(cluster, pool)
        shell = columns.shell_cluster()
        shell.summary = cluster.summary
        return cls(kind="cluster", cluster=shell, columns=columns, **fields)


class Datastore:
    """Level-1 hash table plus rollup caching and change versioning."""

    def __init__(self) -> None:
        self.sources: Dict[str, SourceSnapshot] = {}
        self.generation = 0  # bumps on every write; invalidates the rollup
        self.content_version = 0  # summary-form wire identity
        self.detail_version = 0   # full-form wire identity
        self._stamp = 0           # per-snapshot serialization stamp source
        self._rollup: Optional[SummaryInfo] = None
        self._rollup_generation = -1
        #: host-tree builds: a snapshot holds its hosts only as columns,
        #: so nothing builds one and this reads 0.  Kept because the
        #: end-to-end harness reads it.
        self.materializations = 0

    def _next_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    def _content_changed(self, snapshot: Optional[SourceSnapshot]) -> None:
        """Record that a source's bytes changed in both forms."""
        self.content_version += 1
        self.detail_version += 1
        if snapshot is not None:
            stamp = self._next_stamp()
            snapshot.detail_stamp = stamp
            snapshot.summary_stamp = stamp

    # -- writes (background parsing timescale) ------------------------------

    def install(self, snapshot: SourceSnapshot, now: float) -> None:
        """Atomically replace the snapshot for one source."""
        previous = self.sources.get(snapshot.name)
        if previous is not None:
            snapshot.consecutive_failures = 0
            # lifetime diagnostic; quarantined itself resets with the
            # fresh snapshot (a clean ingest is how a source exits
            # quarantine) unless the caller re-marks it
            snapshot.corrupt_polls = previous.corrupt_polls
        snapshot.up = True
        snapshot.last_success = now
        self.sources[snapshot.name] = snapshot
        self.generation += 1
        self._content_changed(snapshot)

    def mark_failure(
        self, name: str, now: float, error: str, kind: str = "cluster"
    ) -> int:
        """Record a poll failure; returns the consecutive-failure count.

        The stale snapshot (if any) stays queryable -- "If multiple
        failures render the monitored cluster unreachable, Gmeta keeps a
        set of metric histories that aid in forensic analysis."

        ``kind`` is the *configured* kind of the source (threaded in
        from the poller), so a grid source that dies before its first
        successful poll gets a grid-shaped placeholder instead of
        masquerading as a cluster in meta views.
        """
        snapshot = self.sources.get(name)
        if snapshot is None:
            if kind == "grid":
                snapshot = SourceSnapshot(
                    name=name,
                    kind="grid",
                    summary=SummaryInfo(),
                    grid=GridElement(name=name, authority=""),
                )
            else:
                snapshot = SourceSnapshot(
                    name=name,
                    kind="cluster",
                    summary=SummaryInfo(),
                    cluster=ClusterElement(name=name),
                )
            self.sources[name] = snapshot
            self._content_changed(snapshot)  # a new (empty) element appears
        snapshot.up = False
        snapshot.consecutive_failures += 1
        snapshot.last_error = error
        self.generation += 1
        return snapshot.consecutive_failures

    def mark_corrupt(
        self, name: str, now: float, error: str, kind: str = "cluster"
    ) -> int:
        """A poll delivered but its payload was poisoned beyond salvage.

        Unlike :meth:`mark_failure` the source stays ``up`` serving its
        last-good snapshot: the child is alive and talking, just
        garbled, and evicting it would turn a gray failure into a black
        one for every query above us.  No version moves -- queries keep
        seeing exactly the bytes they saw before the corrupt poll.
        Returns the lifetime corrupt-poll count.
        """
        snapshot = self.sources.get(name)
        if snapshot is None:
            # nothing to preserve; behave like a failure, then flag it
            self.mark_failure(name, now, error, kind=kind)
            snapshot = self.sources[name]
            snapshot.quarantined = True
            snapshot.corrupt_polls += 1
            return snapshot.corrupt_polls
        snapshot.quarantined = True
        snapshot.corrupt_polls += 1
        snapshot.last_error = error
        return snapshot.corrupt_polls

    def touch_success(self, name: str, now: float) -> bool:
        """Refresh liveness bookkeeping after a NOT-MODIFIED poll.

        The content is untouched (that is the point), so no version or
        stamp moves; only the failure-tracking fields reset, exactly as
        :meth:`install` would have reset them.
        """
        snapshot = self.sources.get(name)
        if snapshot is None:
            return False
        snapshot.up = True
        snapshot.last_success = now
        snapshot.consecutive_failures = 0
        snapshot.last_error = ""
        # NOT-MODIFIED proves the child is serving clean content again
        snapshot.quarantined = False
        snapshot.salvaged_hosts = 0
        return True

    def patch_localtime(self, name: str, localtime: float) -> bool:
        """Refresh a grid source's report timestamp without a transfer.

        A child gmetad stamps its report with the serve-time LOCALTIME,
        so the attribute moves every poll even when the data is frozen.
        A NOT-MODIFIED reply carries the timestamp the child would have
        written; patching it here keeps full-form output byte-identical
        to an eager re-download.  Only ``detail_version`` moves: the
        summary form a parent polls omits nested grid timestamps.
        """
        snapshot = self.sources.get(name)
        if snapshot is None or snapshot.grid is None:
            return False
        if snapshot.grid.localtime == localtime:
            return True
        snapshot.grid.localtime = localtime
        snapshot.detail_stamp = self._next_stamp()
        self.detail_version += 1
        return True

    def remove_source(self, name: str) -> bool:
        """Drop a source's state entirely (data-source detach)."""
        if self.sources.pop(name, None) is None:
            return False
        self.generation += 1
        self._content_changed(None)
        return True

    # -- lookups (query timescale) ------------------------------------------

    def source(self, name: str) -> Optional[SourceSnapshot]:
        """The snapshot for one data source, or None."""
        return self.sources.get(name)

    def source_names(self) -> List[str]:
        """All source names, sorted (the level-1 keys)."""
        return sorted(self.sources)

    def find_nested(self, source: str, child: str):
        """Resolve the second path segment inside a *grid* source.

        Returns a summary-form ClusterElement or GridElement, or None.
        """
        snapshot = self.sources.get(source)
        if snapshot is None or snapshot.grid is None:
            return None
        found = snapshot.grid.clusters.get(child)
        if found is not None:
            return found
        return snapshot.grid.grids.get(child)

    # -- rollup ------------------------------------------------------------

    def root_summary(self) -> Tuple[SummaryInfo, int]:
        """Merged summary over all sources (the meta view payload).

        Cached per generation; the ``operations`` count is 0 on a cache
        hit so repeated queries between polls charge almost nothing.
        """
        if self._rollup_generation == self.generation and self._rollup is not None:
            return self._rollup, 0
        merged, operations = merge_summaries(
            [s.summary for s in self.sources.values()]
        )
        self._rollup = merged
        self._rollup_generation = self.generation
        return merged, operations

    def up_sources(self) -> List[str]:
        """Sources whose last poll succeeded."""
        return sorted(n for n, s in self.sources.items() if s.up)

    def down_sources(self) -> List[str]:
        """Sources currently marked unreachable."""
        return sorted(n for n, s in self.sources.items() if not s.up)
