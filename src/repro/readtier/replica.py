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
    ``__repl__/@gen`` and *stages* every changed source -- decodes or
    parses its records, rebuilds the snapshot -- before touching its
    datastore; only when the whole batch stages cleanly are the
    snapshots installed and the triple adopted.  Any inconsistency
    aborts the batch and falls back to the pub-sub full-sync recovery
    path, so a query can never observe a half-applied generation.

Byte identity
    A cluster source's detail record is the GBF1 ``CLUSTER_DOC`` frame
    of the ingest's columns: it decodes straight into the replica's
    intern pool (no XML parse) and installs as a hostless shell plus
    columns plus fragment arena, as a binary ingest poll does.  Once
    per install the arena adopts the shipped frame as its held frame
    (a ``bin1`` read encodes nothing), and the arena's full-form
    fragment, joined once, is primed into the snapshot's ``frag_cache``
    under the install's detail stamp -- a read that leaves the arena's
    fresh-byte counts alone, so the first reply to splice it pays for
    the fresh hosts exactly as the arena's own answer would.  The copy
    is joined, not held as the arena's chunk list, because replicas
    answer the ``/source`` views: a view joins its reply from one string
    instead of gathering every host fragment, which costs far more once
    the fragments have gone cold.  Without ``columnar_serve`` there is
    no arena, and the fragment is rendered from the columns at install
    instead.  Whole-tree dumps and ``/source`` replies splice
    that fragment.  Summary records, grid sources and hostless shells
    ship as the ingest's XML fragments and are primed as shipped.  Path
    queries answer off the columns and arena exactly as on the ingest
    daemon, which the equivalence suites pin.

Validation
    Validation belongs at trust boundaries: where bytes arrive from a
    gmond or a child gmetad.  The feed is not one.  Its frames carry
    the ingest daemon's own columns, and :func:`decode_document` checks
    each one whole before anything is built from it: the CRC over the
    logical content, the exact body length, and the TYPE/SLOPE
    vocabulary; a record that is not base64, not a ``CLUSTER_DOC``, or
    names another cluster than its summary record is refused too.  The
    XML records parse under the ingest daemon's own ``validate_xml``
    switch (off by default); structural damage still raises with
    validation off.  Either way the generation barrier aborts the
    batch.  ``feed_frames`` and ``feed_xml_bytes`` count the frames
    decoded and the XML bytes parsed for installed feed records.
"""

from __future__ import annotations

import base64
import json
from typing import Iterable, Optional, Tuple

from repro.columnar import InternPool
from repro.core.datastore import Datastore, SourceSnapshot
from repro.core.gmetad_base import QueryServer, document_element_count
from repro.core.query import QueryEngine
from repro.net.address import Address
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.pubsub import messages
from repro.pubsub.client import PUSH_NOTIFY_PORT, PushClient
from repro.readtier.config import ReadTierConfig
from repro.readtier.feed import (
    FRAME_FORM,
    GEN_KEY,
    REPL_PREFIX,
    detail_key,
    meta_key,
    summary_key,
)
from repro.serve.fragments import memoized_source_fragment
from repro.sim.engine import Engine
from repro.sim.resources import DEFAULT_CAPACITY, CostModel, CpuAccount
from repro.wire.binfmt import CLUSTER_DOC, decode_document
from repro.wire.model import SummaryInfo
from repro.wire.parser import ParseError, parse_document
from repro.wire.reply import Chunks
from repro.wire.writer import XML_PROLOG


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
        #: the pool shipped cluster frames decode into; ids stay
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
        #: frames decoded and XML bytes parsed for installed records
        self.feed_frames = 0
        self.feed_xml_bytes = 0
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
                # FrameError and a base64 binascii.Error are ValueErrors
                self._abort_barrier()
                return
        # barrier complete: every changed source staged cleanly
        now = self.engine.now
        for source in sorted(staged):
            snapshot, up, frame, detail, summary = staged[source]
            self.datastore.install(snapshot, now)
            snapshot.up = up
            snapshot.frag_cache["summary"] = (
                snapshot.summary_stamp, Chunks.of(summary)
            )
            self.installs += 1
            self.feed_xml_bytes += len(summary)
            if frame is None:
                # the shipped string IS the serve output: prime the memo
                # cache under the install's fresh stamp so dumps splice
                # the ingest daemon's exact bytes
                snapshot.frag_cache["full"] = (
                    snapshot.detail_stamp, Chunks.of(detail)
                )
                self.feed_xml_bytes += len(detail)
                continue
            self.feed_frames += 1
            # the arena is shared across installs, so it only moves
            # once the barrier holds
            arena = self._install_arena(source, snapshot.columns)
            if arena is None:
                # no arena to join: render the fragment once, from the
                # columns, under the install's stamp
                memoized_source_fragment(self.query_engine, snapshot, "full")
                continue
            snapshot.arena = arena
            arena.hold_frame(frame)
            # joined once per install: a /source view then copies one
            # string, not every host fragment (see "Byte identity")
            snapshot.frag_cache["full"] = (
                snapshot.detail_stamp, Chunks.of(arena.chunks().text())
            )
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
    ) -> Tuple[SourceSnapshot, bool, Optional[bytes], str, str]:
        """Rebuild one source's snapshot from its feed records.

        A framed detail record decodes into this replica's intern pool
        and stages as a hostless shell plus columns; it must hold one
        ``CLUSTER_DOC`` cluster named as in the summary record.  An XML
        detail record (a grid, a hostless cluster shell) and every
        summary record go through the tree parser under the ingest
        daemon's ``validate_xml`` (see "Validation" above).  Returns
        ``(snapshot, up, frame or None, detail, summary)``.
        """
        meta = json.loads(meta_raw)
        kind = meta.get("k", "cluster")
        validate = self.ingest.validate_xml
        columns = frame = detail_doc = None
        if meta.get("d") == FRAME_FORM:
            frame = base64.b64decode(detail, validate=True)
            self.charge(
                self.costs.binfmt_byte * len(frame)
                + self.costs.parse_byte * len(summary),
                "parse",
            )
            frame_kind, cdoc = decode_document(frame, self._intern_pool)
            if frame_kind != CLUSTER_DOC or len(cdoc.clusters) != 1:
                raise FeedError(f"feed frame for {source!r} is not one cluster")
            columns = cdoc.clusters[0]
            inserts = cdoc.element_count
        else:
            self.charge(
                self.costs.parse_byte * (len(detail) + len(summary)), "parse"
            )
            detail_doc = parse_document(self._wrap(detail), validate)
            inserts = document_element_count(detail_doc)
        summary_doc = parse_document(self._wrap(summary), validate)
        self.charge(self.costs.hash_insert * inserts, "parse")
        cluster = grid = None
        if kind == "cluster":
            if columns is not None:
                cluster = columns.shell_cluster()
            elif detail_doc.clusters:
                cluster = next(iter(detail_doc.clusters.values()))
            if cluster is None or not summary_doc.clusters:
                raise FeedError(f"feed for {source!r} lost its cluster")
            element = next(iter(summary_doc.clusters.values()))
            if element.name != cluster.name:
                raise FeedError(
                    f"feed for {source!r} ships cluster {cluster.name!r} "
                    f"under summary {element.name!r}"
                )
        else:
            if (
                detail_doc is None
                or not detail_doc.grids
                or not summary_doc.grids
            ):
                raise FeedError(f"feed for {source!r} lost its grid")
            grid = next(iter(detail_doc.grids.values()))
            element = next(iter(summary_doc.grids.values()))
        info = element.summary if element.summary is not None else SummaryInfo()
        if cluster is not None and meta.get("cs"):
            # restore the ingest-side aliasing the detail record dropped
            # (see repro.readtier.feed)
            cluster.summary = info
        snapshot = SourceSnapshot(
            name=source,
            kind=kind,
            summary=info,
            cluster=cluster,
            grid=grid,
            columns=columns,
            authority=meta.get("a", ""),
        )
        return snapshot, bool(meta.get("u", 1)), frame, detail, summary

    def _wrap(self, fragment: str) -> str:
        return (
            f"{XML_PROLOG}"
            f'<GANGLIA_XML VERSION="{self.version}" SOURCE="gmetad">\n'
            f"{fragment}</GANGLIA_XML>\n"
        )

    # -- serving (the shared QueryServer path) ----------------------------

    # bound on this class (not only inherited) so per-class span tables
    # such as benchmarks/e2e/spans.py can wrap it; an alias rather
    # than a super() wrapper, so a query pays for no extra call
    serve_query = QueryServer.serve_query
