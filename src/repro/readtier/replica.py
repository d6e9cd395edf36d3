"""ReadReplica: a serving process fed off one ingest gmetad.

A replica owns its own simulated host, CPU account, datastore and query
engine; it subscribes to the ingest gmetad's pub-sub broker on the
hidden ``/__repl__`` path and mirrors the replication feed
(:mod:`repro.readtier.feed`).  Viewer queries land on the replica's own
``Address.gmetad`` endpoint and are served by
:class:`~repro.core.gmetad_base.QueryServer`, the ingest daemon's own
serve path -- same query engine, same CPU charge pattern, same
conditional-poll handshake -- so a replica is a drop-in target for any
existing viewer.

Generation barrier
    Each applied feed message is one atomic diff of the broker's
    published state, so the mirror is always internally consistent.
    The replica still checks the ingest version triple from
    ``__repl__/@gen`` and *stages* every changed source -- parses both
    fragments, rebuilds the snapshot -- before touching its datastore;
    only when the whole batch stages cleanly are the snapshots
    installed and the triple adopted.  Any inconsistency aborts the
    batch and falls back to the pub-sub full-sync recovery path, so a
    query can never observe a half-applied generation.

Byte identity
    Shipped fragments are primed into each installed snapshot's
    ``frag_cache`` under the install's serialization stamps, so
    whole-tree dumps splice the ingest daemon's exact strings.  A
    cluster's detail fragment parses straight into columns, as a
    columnar ingest poll does, and installs as a hostless shell plus
    columns plus fragment arena; path queries answer off those exactly
    as on the ingest daemon, which the equivalence suites pin.

Validation
    Validation belongs at trust boundaries: where bytes arrive from a
    gmond or a child gmetad.  The feed is not one.  It carries the
    ingest daemon's own writer output, CRC-framed on the binary feed,
    so a replica parses it under the ingest daemon's own
    ``validate_xml`` switch (off by default), which keeps the columnar
    parser's METRIC fast lane on.  Structural damage -- a cut tag, an
    unclosed element, an unknown TYPE -- still raises with validation
    off, and the generation barrier aborts the batch on it.
    ``feed_metric_rows`` and ``feed_fast_lane_hits`` count the METRIC
    rows of installed feed records and how many the lane took; the
    hits read 0 when the lane is off outright.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Tuple

from repro.columnar import InternPool, columns_from_cluster
from repro.core.datastore import Datastore, SourceSnapshot
from repro.core.gmetad_base import (
    QueryServer,
    document_element_count,
    parse_cluster_xml,
)
from repro.core.query import QueryEngine
from repro.net.address import Address
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.pubsub import messages
from repro.pubsub.client import PUSH_NOTIFY_PORT, PushClient
from repro.readtier.config import ReadTierConfig
from repro.readtier.feed import (
    GEN_KEY,
    REPL_PREFIX,
    detail_key,
    meta_key,
    summary_key,
)
from repro.sim.engine import Engine
from repro.sim.resources import DEFAULT_CAPACITY, CostModel, CpuAccount
from repro.wire.model import SummaryInfo
from repro.wire.parser import ParseError, parse_document

_PROLOG = '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'


class FeedError(RuntimeError):
    """The replication feed delivered an inconsistent or unparseable batch."""


def _source_of(key: str) -> Optional[str]:
    """The source a ``__repl__`` key belongs to; None for ``@gen`` and
    keys outside the feed."""
    parts = key.split("/")
    if parts[0] != REPL_PREFIX or len(parts) < 2 or parts[1].startswith("@"):
        return None
    return parts[1]


class ReadReplica(QueryServer):
    """One serving replica of an ingest gmetad."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        tcp: TcpNetwork,
        ingest,
        name: Optional[str] = None,
        host: Optional[str] = None,
        config: Optional[ReadTierConfig] = None,
        costs: Optional[CostModel] = None,
        capacity: float = DEFAULT_CAPACITY,
        notify_port: int = PUSH_NOTIFY_PORT,
    ) -> None:
        self.config = (
            config
            or getattr(ingest.config, "read_tier", None)
            or ReadTierConfig()
        )
        self.name = name or f"{ingest.config.name}-replica"
        # the serve epoch is replica-private: a viewer failing over
        # between replicas (or back to the ingest daemon) never gets a
        # false 304
        super().__init__(self.name, self.config.serve_queue_limit)
        self.engine = engine
        self.tcp = tcp
        self.ingest = ingest
        self.host = host or f"{ingest.config.host}-replica"
        if not fabric.has_host(self.host):
            fabric.add_host(self.host)
        self.costs = costs if costs is not None else ingest.costs
        self.cpu = CpuAccount(self.name, capacity)
        self.datastore = Datastore()
        self.version = getattr(ingest, "version", "2.5.4")
        self.columnar_serve = self.config.columnar_serve
        self.query_engine = QueryEngine(
            self.datastore,
            grid_name=ingest.config.gridname,
            authority=ingest.config.authority_url,
            version=self.version,
            memoize=True,
        )
        #: the pool shipped cluster fragments parse into; ids stay
        #: stable across installs, so arena diffs see the same layout
        self._intern_pool = InternPool()
        self.address = Address.gmetad(self.host)
        self.client = PushClient(
            engine,
            fabric,
            tcp,
            Address.pubsub(ingest.config.host),
            path=f"/{REPL_PREFIX}",
            host=self.host,
            port=notify_port,
            sub_id=f"replica:{self.name}",
            lease=self.config.lease,
            accept_binary=self.config.binary_feed,
        )
        self.client.on_applied = self._on_feed
        #: ingest version triple (generation, content_version,
        #: detail_version) the replica's installed view corresponds to
        self.ingest_versions: Optional[Tuple[int, int, int]] = None
        self.installs = 0
        self.removals = 0
        self.barrier_aborts = 0
        #: METRIC rows of the installed feed records' columnar parses,
        #: and how many of them the parser's fast lane took
        self.feed_metric_rows = 0
        self.feed_fast_lane_hits = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ReadReplica":
        """Listen for viewer queries and subscribe to the feed."""
        if self._started:
            raise RuntimeError(f"replica {self.name} already started")
        self._started = True
        self.tcp.listen(self.address, self._serve)
        self.client.start()
        return self

    def stop(self) -> None:
        """Unsubscribe and close the query listener."""
        self.client.stop()
        self.tcp.close(self.address)
        self._started = False

    @property
    def synced(self) -> bool:
        """Whether the replica has installed a consistent generation."""
        return self.client.stream.synced and self.ingest_versions is not None

    # -- feed ingestion ----------------------------------------------------

    def _on_feed(self, message: dict, outcome: str) -> None:
        """PushClient post-apply hook: mirror changed, rebuild."""
        if outcome == "synced":
            self._rebuild(None)
        elif outcome == "applied":
            changed = {_source_of(op.path) for op in messages.ops_of(message)}
            self._rebuild(changed - {None})

    def _rebuild(self, changed: Optional[Iterable[str]]) -> None:
        """Stage every changed source, then install atomically.

        ``changed`` is None after a full sync (reconcile everything).
        Any staging failure -- a garbled version triple included --
        aborts the whole batch before anything installs, and requests a
        full sync, the pub-sub gap-recovery path.
        """
        mirror = self.client.state
        gen = mirror.get(GEN_KEY)
        if gen is None:
            return  # broker has no feed (read_tier off upstream)
        try:
            versions = tuple(int(part) for part in gen.split(":"))
        except ValueError:
            versions = ()
        if len(versions) != 3:
            self._abort_barrier()
            return
        if changed is None:
            fed = {_source_of(key) for key in mirror} - {None}
            names = fed | set(self.datastore.sources)
        else:
            names = set(changed)
        staged = {}
        removals = []
        for source in sorted(names):
            meta_raw = mirror.get(meta_key(source))
            if meta_raw is None:
                removals.append(source)
                continue
            detail = mirror.get(detail_key(source))
            summary = mirror.get(summary_key(source))
            if detail is None or summary is None:
                self._abort_barrier()
                return
            try:
                staged[source] = self._build_snapshot(
                    source, meta_raw, detail, summary
                )
            except (FeedError, ParseError, ValueError, KeyError):
                self._abort_barrier()
                return
        # barrier complete: every changed source staged cleanly
        now = self.engine.now
        for source in sorted(staged):
            snapshot, up, detail, summary, (rows, hits) = staged[source]
            self.datastore.install(snapshot, now)
            snapshot.up = up
            # the shipped strings ARE the serve output: prime the
            # memo cache under the install's fresh stamps so dumps
            # splice the ingest daemon's exact bytes
            snapshot.frag_cache["full"] = (snapshot.detail_stamp, detail)
            snapshot.frag_cache["summary"] = (snapshot.summary_stamp, summary)
            if snapshot.columns is not None and snapshot.columns.host_count:
                # the arena is shared across installs, so it only moves
                # once the barrier holds
                snapshot.arena = self._install_arena(source, snapshot.columns)
            self.installs += 1
            self.feed_metric_rows += rows
            self.feed_fast_lane_hits += hits
        for source in removals:
            if self.datastore.remove_source(source):
                self._serve_arenas.pop(source, None)
                self.removals += 1
        self.ingest_versions = versions  # type: ignore[assignment]

    def _abort_barrier(self) -> None:
        self.barrier_aborts += 1
        self.client.request_sync()

    def _build_snapshot(
        self, source: str, meta_raw: str, detail: str, summary: str
    ) -> Tuple[SourceSnapshot, bool, str, str, Tuple[int, int]]:
        """Parse one source's feed records back into a snapshot.

        A cluster's detail fragment goes through the ingest daemon's
        columnar parse into this replica's intern pool and stages as a
        hostless shell plus columns; shapes the columnar builder
        declines convert their tree into the same pool, except a
        summary-form cluster, which has no hosts and stays the tree
        parser's element.
        All three records parse under the ingest daemon's
        ``validate_xml`` (see "Validation" above).  The last element of
        the result is the parse's ``(METRIC rows, fast-lane hits)``,
        added to the replica's counts only once the barrier holds.
        """
        meta = json.loads(meta_raw)
        kind = meta.get("k", "cluster")
        self.charge(
            self.costs.parse_byte * (len(detail) + len(summary)), "parse"
        )
        validate = self.ingest.validate_xml
        cdoc = None
        if kind == "cluster":
            cdoc, detail_doc = parse_cluster_xml(
                self._wrap(detail), self._intern_pool, validate
            )
        else:
            detail_doc = parse_document(self._wrap(detail), validate)
        summary_doc = parse_document(self._wrap(summary), validate)
        lane = (0, 0)
        if cdoc is not None:
            inserts = cdoc.element_count
            lane = (sum(c.row_count for c in cdoc.clusters),
                    cdoc.fast_lane_hits)
        else:
            inserts = document_element_count(detail_doc)
        self.charge(self.costs.hash_insert * inserts, "parse")
        cluster = columns = grid = None
        if kind == "cluster":
            if cdoc is not None and cdoc.clusters:
                columns = cdoc.clusters[0]
                cluster = columns.shell_cluster()
            elif detail_doc is not None and detail_doc.clusters:
                cluster = next(iter(detail_doc.clusters.values()))
                if not cluster.is_summary:
                    columns = columns_from_cluster(cluster, self._intern_pool)
                    cluster = columns.shell_cluster()
            if cluster is None or not summary_doc.clusters:
                raise FeedError(f"feed for {source!r} lost its cluster")
            element = next(iter(summary_doc.clusters.values()))
        else:
            if not detail_doc.grids or not summary_doc.grids:
                raise FeedError(f"feed for {source!r} lost its grid")
            grid = next(iter(detail_doc.grids.values()))
            element = next(iter(summary_doc.grids.values()))
        info = element.summary if element.summary is not None else SummaryInfo()
        if cluster is not None and meta.get("cs"):
            # restore the ingest-side aliasing the full-form
            # serialization dropped (see repro.readtier.feed)
            cluster.summary = info
        snapshot = SourceSnapshot(
            name=source,
            kind="cluster" if cluster is not None else "grid",
            summary=info,
            cluster=cluster,
            grid=grid,
            columns=columns,
            authority=meta.get("a", ""),
        )
        return snapshot, bool(meta.get("u", 1)), detail, summary, lane

    def _wrap(self, fragment: str) -> str:
        return (
            f"{_PROLOG}"
            f'<GANGLIA_XML VERSION="{self.version}" SOURCE="gmetad">\n'
            f"{fragment}</GANGLIA_XML>\n"
        )

    # -- serving (the shared QueryServer path) ----------------------------

    # bound on this class (not only inherited) so per-class span tables
    # such as benchmarks/e2e/spans.py can wrap it; an alias rather
    # than a super() wrapper, so a query pays for no extra call
    serve_query = QueryServer.serve_query
