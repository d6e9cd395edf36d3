"""Shared plumbing for both gmetad designs and the read replicas.

:class:`QueryServer` is the query-timescale half (§2.3): conditional
GET, ``accept=bin1`` negotiation, load shedding and the path query
engine's charge pattern.  Every daemon that answers viewers -- both
gmetad designs and :class:`~repro.readtier.replica.ReadReplica` --
serves through it.

:class:`GmetadBase` adds the background half the two gmetad designs
have in common: the CPU account, the datastore, the RRD archiver, one
poller per configured data source (staggered so twelve clusters don't
all land on the same tick), and the TCP listener.  Subclasses define:

- :meth:`poll_request` -- what to ask children for (full dump vs
  summary query);
- :meth:`ingest` -- what to keep, summarize and archive;
- :meth:`serve_query` -- what a request gets back (the path query
  engine unless overridden).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import random

from repro.columnar import InternPool
from repro.core.archiver import Archiver
from repro.core.datastore import Datastore
from repro.core.poller import DataSourcePoller
from repro.core.query import GmetadQuery, QueryError, ServeQueue
from repro.core.resilience import Overloaded
from repro.core.tree import GmetadConfig
from repro.net.address import Address
from repro.net.fabric import Fabric
from repro.obs.observability import Observability
from repro.net.tcp import Response, TcpNetwork
from repro.rrd.database import RraSpec, compact_rra_specs
from repro.rrd.store import RrdStore
from repro.serve.arena import FragmentArena
from repro.sim.engine import Engine
from repro.sim.resources import DEFAULT_CAPACITY, CostModel, CpuAccount
from repro.sim.rng import derive_seed
from repro.wire.binfmt import (
    CLUSTER_DOC,
    CODEC_BINARY,
    BinaryFrame,
    FrameError,
    decode_document,
    materialize_document,
    split_accept,
)
from repro.wire.conditional import (
    NotModified,
    TaggedXml,
    next_epoch,
    split_generation,
)
from repro.wire.model import ClusterElement, GangliaDocument, GridElement
from repro.wire.parser import (
    ColumnarFallback,
    ParseError,
    parse_columnar,
    parse_document,
    salvage_document,
)

#: root seed for the per-poller breaker-jitter streams; derived per
#: (gmetad, source) name so chaos runs replay identically
_BREAKER_SEED = 0x42524B52


def document_element_count(doc: GangliaDocument) -> int:
    """How many hash-table inserts building this document's state takes."""
    count = 0

    def count_cluster(cluster: ClusterElement) -> int:
        n = 1
        if cluster.is_summary:
            return n + 1 + len(cluster.summary.metrics)
        for host in cluster.hosts.values():
            n += 1 + len(host.metrics)
        return n

    def count_grid(grid: GridElement) -> int:
        n = 1
        if grid.summary is not None:
            n += 1 + len(grid.summary.metrics)
        for cluster in grid.clusters.values():
            n += count_cluster(cluster)
        for sub in grid.grids.values():
            n += count_grid(sub)
        return n

    for cluster in doc.clusters.values():
        count += count_cluster(cluster)
    for grid in doc.grids.values():
        count += count_grid(grid)
    return count


def parse_cluster_xml(xml: str, pool, validate: bool = True):
    """``(cdoc, None)`` from the columnar parser, or ``(None, doc)`` from
    the tree parser when the columnar builder declines the shape.

    A :class:`ParseError` from either parser propagates.
    """
    try:
        return parse_columnar(xml, pool=pool, validate=validate), None
    except ColumnarFallback:
        return None, parse_document(xml, validate=validate)


class QueryServer:
    """The query-timescale half of a gmetad: one serve path (§2.3).

    Conditional GET and NOT-MODIFIED, ``accept=bin1`` negotiation,
    oldest-first shedding, the path query engine's CPU charge pattern
    and the GBF1 ``/source`` detail frame live here once, so a read
    replica serves through exactly the ingest daemon's code.
    Subclasses provide ``engine``, ``costs``, ``cpu`` and ``datastore``,
    plus a ``query_engine`` unless they override :meth:`serve_query`.
    """

    #: GANGLIA_XML VERSION emitted; set by subclasses.
    version = "2.5.x"

    #: self-observability; None compiles the serve hooks out
    obs: Optional[Observability] = None

    #: whether ``accept=bin1`` requests may be answered with frames
    serves_binary = True

    #: whether cluster detail answers come off held columns: fragment
    #: arenas for XML, GBF1 CLUSTER_DOC frames for ``bin1``
    columnar_serve = False

    def __init__(self, name: str, serve_queue_limit: int = 0) -> None:
        self.serve_queue: Optional[ServeQueue] = (
            ServeQueue(serve_queue_limit) if serve_queue_limit > 0 else None
        )
        #: serve-side epoch: generation tokens are scoped to this server
        #: instance, so a restart (or fail-over to a twin or a replica)
        #: can never produce a false NOT-MODIFIED match
        self._serve_epoch = next_epoch(name)
        #: per-source fragment arenas (``columnar_serve``); they live on
        #: the server, not the snapshot, so fragments survive snapshot
        #: replacement and only changed hosts re-render
        self._serve_arenas: Dict[str, object] = {}
        self.queries_served = 0
        self.queries_shed = 0
        self.not_modified_served = 0
        self.binary_served = 0
        #: reused-fragment bytes of the most recent serve (read by the
        #: serve instrumentation)
        self.last_serve_cached_bytes = 0

    def charge(self, work_units: float, category: str) -> float:
        """Charge CPU work to this server's account."""
        return self.cpu.charge(work_units, category)

    def _serve(self, client: str, request: object) -> Response:
        response = self._serve_response(client, request)
        if self.serve_queue is not None:
            now = self.engine.now
            # oldest-first shedding: completed serves purge for free;
            # anyone still waiting past the bound gets an explicit
            # OVERLOADED reply (their response payload is rewritten in
            # place before delivery) so clients see "busy", not "dead"
            for victim in self.serve_queue.make_room(now):
                victim.payload = Overloaded()
                self.queries_shed += 1
                if self.obs is not None:
                    self.obs.record_shed()
            self.serve_queue.push(now + response.service_seconds, response)
        return response

    def _serve_response(self, client: str, request: object) -> Response:
        self.queries_served += 1
        obs = self.obs
        seconds = self.charge(self.costs.tcp_connect, "network")
        base, presented = split_generation(str(request))
        base, accept = split_accept(base)
        # an unconditional request gets the plain payload; a conditional
        # one gets it tagged with the current token (or a 304)
        current = None
        if presented is not None:
            current = self.serve_generation(base)
            if presented == current:
                # HTTP-304 analogue; localtime rides along so the poller
                # can refresh the report timestamp without a transfer
                # (the same way a 304 updates the Date header)
                self.not_modified_served += 1
                if obs is not None:
                    obs.record_serve(base, seconds, 0, outcome="not_modified")
                return Response(
                    NotModified(
                        generation=current,
                        localtime=float(f"{self.engine.now:.0f}"),
                    ),
                    service_seconds=seconds,
                )
        if accept == CODEC_BINARY and self.serves_binary:
            binary = self.serve_binary(base)
            if binary is not None:
                frame, serve_seconds = binary
                seconds += serve_seconds
                if obs is not None:
                    obs.record_serve(
                        base, seconds, len(frame),
                        cached_bytes=self.last_serve_cached_bytes,
                        codec="binary",
                    )
                return Response(
                    BinaryFrame(frame, generation=current),
                    service_seconds=seconds,
                )
        self.last_serve_cached_bytes = 0
        xml, serve_seconds = self.serve_query(base)
        seconds += serve_seconds
        if obs is not None:
            obs.record_serve(
                base, seconds, len(xml),
                cached_bytes=self.last_serve_cached_bytes,
            )
        payload = xml if current is None else TaggedXml(xml, current)
        return Response(payload, service_seconds=seconds)

    def serve_generation(self, request: str) -> str:
        """Opaque content-generation token for one request's answer.

        Summary-form answers key off ``content_version`` only; full-form
        answers also move with freshness patches (``detail_version``),
        so a full-dump poller re-fetches when a nested report timestamp
        moved while a summary poller keeps getting NOT-MODIFIED.
        """
        if self.request_is_summary(request):
            return f"{self._serve_epoch}:s{self.datastore.content_version}"
        return f"{self._serve_epoch}:f{self.datastore.detail_version}"

    def request_is_summary(self, request: str) -> bool:
        """Whether a request gets summary-form output."""
        try:
            return GmetadQuery.parse(request).summary
        except QueryError:
            return False

    def serve_query(self, request: str) -> Tuple[str, float]:
        """Serve one request through the path query engine.

        Returns ``(xml, service_seconds_charged)``: a fixed per-query
        charge, one hash insert per lookup, and fresh vs reused bytes
        at their own rates.
        """
        try:
            query = GmetadQuery.parse(request)
        except QueryError:
            query = GmetadQuery()  # garbage in, full default dump out
        seconds = self.charge(self.costs.query_fixed, "query")
        xml, stats = self.query_engine.execute(query, self.engine.now)
        self.last_serve_cached_bytes = stats.bytes_from_cache
        seconds += self.charge(
            self.costs.hash_insert * stats.hash_lookups, "query"
        )
        fresh_bytes = stats.bytes_serialized - stats.bytes_from_cache
        seconds += self.charge(self.costs.serve_byte * fresh_bytes, "serve")
        if stats.bytes_from_cache:
            seconds += self.charge(
                self.costs.serve_byte_cached * stats.bytes_from_cache, "serve"
            )
        return xml, seconds

    def serve_binary(self, request: str):
        """Answer one request as binary frame bytes, if this server can.

        Returns ``(frame_bytes, service_seconds_charged)`` or ``None``
        to decline -- the caller then serves XML, which is always
        correct: the requester's ``accept=`` token is an offer, not a
        demand.  The shared answer is the ``/source`` detail frame.
        """
        try:
            query = GmetadQuery.parse(request)
        except QueryError:
            return None
        return self._serve_binary_detail(query)

    def _serve_binary_detail(self, query: GmetadQuery):
        """A CLUSTER_DOC frame for one cluster source, straight from columns.

        The no-XML serving path: a ``bin1``-capable viewer (or readtier
        front door) asking for ``/source`` gets the columns re-framed,
        never serialized to text.  The frame is the one the source's
        fragment arena holds (:meth:`FragmentArena.cluster_frame`):
        encoded on the first binary read after an install, reused until
        the next.  Every snapshot a ``columnar_serve`` daemon installs
        with columns carries its arena, so requiring the arena declines
        nothing the columns would have answered.  Requires
        ``columnar_serve``, a single-segment full-form path and an
        arena; anything else declines to the XML engine.  The charge is
        the same whether the frame was encoded or reused.
        """
        if not self.columnar_serve or query.summary or len(query.path) != 1:
            return None
        snapshot = self.datastore.source(query.path[0])
        if snapshot is None or snapshot.arena is None:
            return None
        try:
            frame = snapshot.arena.cluster_frame(self.version)
        except FrameError:
            return None
        seconds = self.charge(self.costs.query_fixed, "query")
        seconds += self.charge(self.costs.hash_insert, "query")
        self.last_serve_cached_bytes = 0
        seconds += self.charge(self.costs.serve_byte * len(frame), "serve")
        self.binary_served += 1
        return frame, seconds

    def frame_counts(self) -> Tuple[int, int]:
        """(CLUSTER_DOC frames encoded, frames reused) over every arena."""
        arenas = self._serve_arenas.values()
        return (
            sum(arena.frames_encoded for arena in arenas),
            sum(arena.frames_reused for arena in arenas),
        )

    def _install_arena(self, source: str, cols):
        """Install ``cols`` into the source's fragment arena (created on
        first use) and return it; None when ``columnar_serve`` is off."""
        if not self.columnar_serve:
            return None
        arena = self._serve_arenas.get(source)
        if arena is None:
            arena = FragmentArena()
            self._serve_arenas[source] = arena
        arena.install(cols)
        return arena


class GmetadBase(QueryServer):
    """Common daemon machinery; see :class:`Gmetad` / :class:`OneLevelGmetad`."""

    #: whether this design implements :meth:`ingest_columnar`; the
    #: ``config.columnar`` parser switch is a no-op on designs that
    #: don't, and their decoded binary clusters go through a tree.
    supports_columnar = False
    #: whether ingest reduces cluster sources to summaries (the drift
    #: auditor has nothing to re-fold on a design that doesn't)
    summarizes = True

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        tcp: TcpNetwork,
        config: GmetadConfig,
        costs: Optional[CostModel] = None,
        capacity: float = DEFAULT_CAPACITY,
        rra_specs: Optional[List[RraSpec]] = None,
        validate_xml: bool = False,
    ) -> None:
        resilience = config.resilience
        super().__init__(
            config.name,
            resilience.serve_queue_limit if resilience is not None else 0,
        )
        self.engine = engine
        self.fabric = fabric
        self.tcp = tcp
        self.config = config
        self.costs = costs if costs is not None else CostModel()
        self.cpu = CpuAccount(config.name, capacity)
        self.datastore = Datastore()
        self.validate_xml = validate_xml
        #: shared string-interning pool for every cluster's columns (the
        #: columnar parse, binary decode and tree-to-column conversion);
        #: metric names repeat across every host and every poll, so ids
        #: stabilize after the first poll and stay comparable across polls
        self._intern_pool = InternPool()
        #: the in-band clusters' pool (``__gmetad__``, ``__analytics__``):
        #: their metric names stay out of the ingest pool, so its ids
        #: are the same with observability on or off
        self._inband_pool = InternPool()
        if not fabric.has_host(config.host):
            fabric.add_host(config.host)
        if rra_specs is None:
            rra_specs = compact_rra_specs()
        if config.storage_tier is not None:
            from repro.storage.tier import StorageTier

            store = StorageTier(
                engine,
                config.storage_tier,
                mode=config.archive_mode,
                rra_specs=rra_specs,
                # storage-node work is clocked in seconds: one physical
                # RRD update costs its CPU work units at this daemon's
                # capacity (units/second)
                update_cost=self.costs.rrd_update / capacity,
            )
        else:
            store = RrdStore(mode=config.archive_mode, rra_specs=rra_specs)
        self.archiver = Archiver(
            store, self.charge, self.costs, config.heartbeat_window
        )
        #: self-observability; None (the default) compiles the layer out
        #: -- every hook below is guarded by ``if self.obs is not None``
        self.obs: Optional[Observability] = (
            Observability(self, config.observability)
            if config.observability is not None
            else None
        )
        #: streaming analytics stage; None (the default) registers no
        #: flush hook, so the archiver path is untouched and output
        #: stays byte-identical to baseline
        self.analytics = None
        if config.analytics is not None:
            from repro.analytics.engine import AnalyticsEngine

            self.analytics = AnalyticsEngine(self, config.analytics)
        self.pollers: Dict[str, DataSourcePoller] = {}
        stride = (
            config.poll_interval / max(1, len(config.data_sources))
            if config.data_sources
            else config.poll_interval
        )
        for i, source in enumerate(config.data_sources):
            # stagger the poll phase
            self.pollers[source.name] = self._make_poller(source, (i + 1) * stride)
        self._server = tcp.listen(Address.gmetad(config.host), self._serve)
        self._started = False
        # stats
        self.polls_ingested = 0
        self.polls_not_modified = 0
        self.parse_errors = 0
        self.polls_salvaged = 0
        self.polls_quarantined = 0
        self.frames_ingested = 0
        self.frame_errors = 0
        #: optional tap called as (source, xml, sim_time) before every
        #: ingest -- used by the trace recorder (repro.bench.trace)
        self.ingest_tap = None
        #: hooks called as (source, sim_time) after every datastore
        #: change -- successful ingest or failure marking.  The pub-sub
        #: broker (repro.pubsub) registers here to publish deltas.
        self.publish_hooks: List = []

    def _breaker_rng(self, source: str) -> Optional[random.Random]:
        """Seeded jitter stream for one poller's circuit breaker."""
        if self.config.resilience is None:
            return None
        return random.Random(
            derive_seed(_BREAKER_SEED, f"{self.config.name}/{source}")
        )

    def _make_poller(self, source, initial_delay: float) -> DataSourcePoller:
        """One data source's poller, wired to this daemon's ingest path."""
        config = self.config
        return DataSourcePoller(
            self.engine,
            self.tcp,
            config.host,
            source,
            on_data=self._on_data,
            on_source_down=self._on_source_down,
            request=self.poll_request(),
            initial_delay=initial_delay,
            conditional=config.incremental,
            on_not_modified=self._on_not_modified,
            resilience=config.resilience,
            rng=self._breaker_rng(source.name),
            obs=self.obs,
            accept_binary=config.binary_wire,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "GmetadBase":
        """Start every data-source poller."""
        if self._started:
            raise RuntimeError(f"gmetad {self.config.name} already started")
        self._started = True
        for poller in self.pollers.values():
            poller.start()
        if self.obs is not None:
            self.obs.start()
        if getattr(self.archiver.store, "is_storage_tier", False):
            self.archiver.store.start()
        return self

    def stop(self) -> None:
        """Stop pollers and close the query listener."""
        for poller in self.pollers.values():
            poller.stop()
        if self.obs is not None:
            self.obs.stop()
        if getattr(self.archiver.store, "is_storage_tier", False):
            self.archiver.store.stop()
        self.tcp.close(self.address)
        self._started = False

    # -- dynamic membership (used by the self-organizing tree, §4) --------

    def add_data_source(self, source, initial_delay: float = 1.0) -> DataSourcePoller:
        """Attach a new data source at runtime and start polling it."""
        if source.name in self.pollers:
            raise ValueError(f"data source {source.name!r} already attached")
        poller = self._make_poller(source, initial_delay)
        self.pollers[source.name] = poller
        self.config.data_sources.append(source)
        if self._started:
            poller.start()
        return poller

    def remove_data_source(self, name: str) -> None:
        """Detach a data source: stop polling and drop its state."""
        poller = self.pollers.pop(name, None)
        if poller is not None:
            poller.stop()
        self.config.data_sources = [
            s for s in self.config.data_sources if s.name != name
        ]
        self.datastore.remove_source(name)
        self._serve_arenas.pop(name, None)
        self.archiver.forget(name)

    def source_kind(self, source: str) -> str:
        """The configured kind of a source ("cluster" or "grid")."""
        poller = self.pollers.get(source)
        return poller.config.kind if poller is not None else "cluster"

    @property
    def address(self) -> Address:
        """The TCP endpoint this daemon serves queries on."""
        return Address.gmetad(self.config.host)

    @property
    def rrd_store(self) -> RrdStore:
        """The archive store behind the archiver."""
        return self.archiver.store

    @property
    def serves_binary(self) -> bool:
        """``accept=bin1`` answers ride the binary wire gate."""
        return self.config.binary_wire

    @property
    def columnar_serve(self) -> bool:
        return self.config.columnar_serve

    # -- polling path (background timescale) ----------------------------------

    def _on_data(self, source: str, payload: object, rtt: float) -> None:
        if isinstance(payload, BinaryFrame):
            self._on_frame(source, payload, rtt)
            return
        xml = str(payload)
        now = self.engine.now
        if self.ingest_tap is not None:
            self.ingest_tap(source, xml, now)
        obs = self.obs
        busy0 = self.cpu.total_busy_seconds if obs is not None else 0.0
        self.charge(self.costs.tcp_connect, "network")
        self.charge(self.costs.parse_byte * len(xml), "parse")
        # The columnar fast path only handles plain gmond cluster dumps;
        # GRID-bearing responses (child gmetads) take the tree parser.
        # The "<GRID" sniff is a cheap pre-filter -- anything it lets
        # through that the columnar builder still can't shape falls back
        # to the tree parser (see parse_cluster_xml).
        cdoc = None
        try:
            if (
                self.config.columnar
                and self.supports_columnar
                and self.source_kind(source) == "cluster"
                and "<GRID" not in xml
            ):
                cdoc, doc = parse_cluster_xml(
                    xml, self._intern_pool, self.validate_xml
                )
            else:
                doc = parse_document(xml, validate=self.validate_xml)
        except ParseError as exc:
            self._on_parse_error(source, xml, exc, now, busy0)
            return
        if cdoc is None:
            element_count = document_element_count(doc)
        else:
            doc, element_count = cdoc, cdoc.element_count
            if cdoc.fast_lane_misses and obs is not None:
                # a writer attribute-order drift silently degrades the
                # regex fast lane to the generic path; surface it (the
                # binary codec shares the canonical-order bet)
                obs.registry.counter("parse_fast_lane_misses").inc(
                    cdoc.fast_lane_misses
                )
        self._ingest_parsed(
            source, doc, cdoc is not None, element_count, len(xml), now, busy0
        )

    def _ingest_parsed(
        self, source: str, document, columnar: bool, element_count: int,
        nbytes: int, now: float, busy0: float, codec: str = "xml",
    ) -> None:
        """Charge the inserts, run the design's ingest, publish.

        ``document`` goes to :meth:`ingest_columnar` when ``columnar``,
        else to :meth:`ingest`.  With observability on, the stage
        timings come from the by-category charge deltas, so the spans
        show exactly what the CPU account was billed.
        """
        self.charge(self.costs.hash_insert * element_count, "parse")
        self.polls_ingested += 1
        obs = self.obs
        if obs is not None:
            parse_seconds = self.cpu.total_busy_seconds - busy0
            by_category = self.cpu.window.by_category
            summarize0 = by_category["summarize"]
            archive0 = by_category["archive"]
        if columnar:
            self.ingest_columnar(source, document, now)
        else:
            self.ingest(source, document, now)
        if obs is not None:
            obs.record_ingest(
                source, nbytes, now, parse_seconds,
                max(0.0, by_category["summarize"] - summarize0),
                max(0.0, by_category["archive"] - archive0),
                path="columnar" if columnar else "tree",
                codec=codec,
            )
        self._publish(source, now)

    def _on_frame(self, source: str, frame: BinaryFrame, rtt: float) -> None:
        """Ingest one binary-codec poll response.

        Decode feeds the same pipeline as XML -- a decoded cluster is
        already columns, so it goes to the columnar ingest on a design
        that has one and through a materialized tree otherwise -- so
        datastore contents are identical whichever codec the link
        negotiated.  A frame that fails validation is quarantined whole:
        decode happens entirely before any install, so a truncated or
        bit-flipped frame can never leave partial state behind.
        """
        now = self.engine.now
        obs = self.obs
        busy0 = self.cpu.total_busy_seconds if obs is not None else 0.0
        self.charge(self.costs.tcp_connect, "network")
        self.charge(self.costs.binfmt_byte * len(frame.data), "parse")
        try:
            kind, document = decode_document(frame.data, self._intern_pool)
        except FrameError as exc:
            self._on_frame_error(source, frame, exc, now, busy0)
            return
        columnar = kind == CLUSTER_DOC and self.supports_columnar
        if kind == CLUSTER_DOC:
            element_count = document.element_count
            if not columnar:
                document = materialize_document(document)
        else:
            element_count = document_element_count(document)
        self.frames_ingested += 1
        self._ingest_parsed(
            source, document, columnar, element_count, len(frame.data), now,
            busy0, codec="binary",
        )

    def _on_frame_error(
        self,
        source: str,
        frame: BinaryFrame,
        exc: FrameError,
        now: float,
        busy0: float,
    ) -> None:
        """A binary frame failed validation: quarantine, force XML retry.

        Unlike XML corruption there is no salvage here -- a frame is
        all-or-nothing by design (the CRC covers the whole body).  The
        source degrades to its last-good snapshot via ``mark_corrupt``
        and the poller drops to XML for its next attempt, where the
        salvage machinery can do its partial-recovery work if the link
        is persistently dirty.
        """
        self.parse_errors += 1
        self.frame_errors += 1
        if self.obs is not None:
            self.obs.record_ingest(
                source, len(frame.data), now,
                self.cpu.total_busy_seconds - busy0, 0.0, 0.0,
                outcome="frame_error", codec="binary",
            )
        poller = self.pollers.get(source)
        if poller is not None:
            poller.note_frame_error()
        self._quarantine(source, now, f"bad binary frame: {exc}")

    def _on_parse_error(
        self, source: str, xml: str, exc: ParseError, now: float, busy0: float
    ) -> None:
        """Shared malformed-payload handling for both parse paths."""
        self.parse_errors += 1
        if self.obs is not None:
            self.obs.record_ingest(
                source, len(xml), now,
                self.cpu.total_busy_seconds - busy0, 0.0, 0.0,
                outcome="parse_error",
            )
        if self._try_salvage(source, xml, exc, now):
            return
        self.datastore.mark_failure(
            source, now, f"parse error: {exc}", kind=self.source_kind(source)
        )
        self._publish(source, now)

    def _on_not_modified(self, source: str, notice: NotModified, rtt: float) -> None:
        """A conditional poll found the source unchanged.

        The connection still happened (one tcp_connect of work), but
        there is nothing to transfer, parse, summarize, or archive.
        Liveness bookkeeping is refreshed as a successful poll, and the
        freshness timestamp the child would have stamped into its report
        is patched in so full-form output stays byte-identical to an
        eager re-download.  No publish: subscribers see no delta.
        """
        now = self.engine.now
        self.charge(self.costs.tcp_connect, "network")
        self.polls_not_modified += 1
        self.datastore.touch_success(source, now)
        if notice.localtime:
            self.datastore.patch_localtime(source, notice.localtime)
        # unchanged gauges still get their RRD write every step
        self.archiver.replay(source, now)

    def _try_salvage(
        self, source: str, xml: str, exc: ParseError, now: float
    ) -> bool:
        """Corruption-tolerant ingest; returns True when handled.

        Cluster sources: recover every individually well-formed
        ``<HOST>`` subtree, carry hosts the damage swallowed forward
        from the last-good snapshot, and ingest the result -- the
        source stays fresh, marked quarantined.  When nothing is
        recoverable (or for grid sources, whose summary form has no
        salvageable unit), quarantine on the last-good snapshot instead
        of evicting it.  Baseline mode (no resilience config) always
        returns False: the paper-faithful mark-failure path runs.
        """
        if self.config.resilience is None:
            return False
        if self.source_kind(source) == "cluster":
            result = salvage_document(xml, cluster_hint=source)
            if result.document is not None:
                self.charge(
                    self.costs.hash_insert
                    * document_element_count(result.document),
                    "parse",
                )
                self._carry_forward(source, result.document)
                self.polls_salvaged += 1
                self.ingest(source, result.document, now)
                snapshot = self.datastore.source(source)
                if snapshot is not None:
                    snapshot.quarantined = True
                    snapshot.corrupt_polls += 1
                    snapshot.salvaged_hosts = result.hosts_salvaged
                    snapshot.last_error = (
                        f"salvaged {result.hosts_salvaged} hosts "
                        f"({result.hosts_dropped} dropped): {exc}"
                    )
                poller = self.pollers.get(source)
                if poller is not None:
                    poller.note_bad_payload(salvaged=True)
                self._publish(source, now)
                return True
        # nothing recoverable: degrade to the last-good snapshot
        self._quarantine(source, now, f"corrupt payload: {exc}")
        return True

    def _quarantine(self, source: str, now: float, error: str) -> None:
        """Keep serving the last-good snapshot of a garbled source."""
        self.datastore.mark_corrupt(
            source, now, error, kind=self.source_kind(source)
        )
        self.polls_quarantined += 1
        poller = self.pollers.get(source)
        if poller is not None:
            poller.note_bad_payload(salvaged=False)
        self._publish(source, now)

    def _carry_forward(self, source: str, doc: GangliaDocument) -> int:
        """Copy last-good hosts the salvage lost into the new document.

        A host whose span the corruption destroyed should degrade to
        its previous reading (which ages out via TN/TMAX like any
        silent host), not vanish from the cluster.
        """
        snapshot = self.datastore.source(source)
        columns = None if snapshot is None else snapshot.columns
        if columns is None:
            return 0
        # build only the hosts the damage swallowed, by row-slice
        carried = 0
        for cluster in doc.clusters.values():
            for i, name in enumerate(columns.host_names):
                if name not in cluster.hosts:
                    cluster.hosts[name] = columns.materialize_host(i)
                    carried += 1
        return carried

    def _on_source_down(self, source: str, error: str) -> None:
        self.datastore.mark_failure(
            source, self.engine.now, error, kind=self.source_kind(source)
        )
        self._publish(source, self.engine.now)

    def _publish(self, source: str, now: float) -> None:
        for hook in self.publish_hooks:
            hook(source, now)

    # -- subclass interface ---------------------------------------------------

    def poll_request(self) -> str:
        """What to send children when polling (design-specific)."""
        raise NotImplementedError

    def ingest(self, source: str, doc: GangliaDocument, now: float) -> None:
        """Fold one parsed poll response into local state (design-specific)."""
        raise NotImplementedError

    def ingest_columnar(self, source: str, cdoc, now: float) -> None:
        """Fold one columnar-parsed poll in; only designs with
        ``supports_columnar = True`` implement this."""
        raise NotImplementedError
