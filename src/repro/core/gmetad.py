"""The N-level gmetad (Ganglia 2.5.4): summaries, GRID tags, queries.

Behaviour per §2.2-2.3 of the paper:

- **Polling**: children are asked for ``/?filter=summary``; gmond
  sources ignore the query and return full cluster XML (they have no
  query engine), so local clusters arrive at full detail and remote
  grids arrive as summaries.
- **Authority**: "Gmeta only keeps numerical summaries of data from
  clusters it is not an authority on."  Local clusters are kept in full
  and archived per-host; grid sources keep their summary-form structure
  plus the AUTHORITY URL pointing at the child that owns the detail.
- **Reporting**: a parent polling this daemon receives every local
  cluster and every remote grid in summary form -- "reports cluster
  summaries to its parent" (Fig. 5 caption) -- bounding upstream traffic
  at O(m) per source.
- **Queries**: the path engine of :mod:`repro.core.query` serves
  arbitrary subtrees from the hash-table datastore.
"""

from __future__ import annotations

from typing import Dict

from repro.columnar import (
    ColumnarSummaryTracker,
    columns_from_cluster,
    summarize_columns,
)
from repro.core.datastore import SourceSnapshot
from repro.core.gmetad_base import GmetadBase
from repro.core.query import (
    SUMMARY_POLL_QUERY,
    GmetadQuery,
    QueryEngine,
    QueryError,
)
from repro.core.summarize import merge_summaries, summarize_cluster
from repro.serve.fragments import summary_cluster_element
from repro.wire.binfmt import (
    FrameError,
    encode_summary_document,
)
from repro.wire.model import ClusterElement, GangliaDocument, GridElement


class Gmetad(GmetadBase):
    """N-level wide-area monitor daemon."""

    version = "2.5.4"
    supports_columnar = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # memoized serialization rides the same switch as the rest of
        # the incremental pipeline so the eager baseline's CPU charges
        # stay paper-faithful
        self.query_engine = QueryEngine(
            self.datastore,
            grid_name=self.config.gridname,
            authority=self.config.authority_url,
            version=self.version,
            memoize=self.config.incremental,
            columnar_serve=self.config.columnar_serve,
        )
        #: per-source delta summarizers (cluster sources, incremental);
        #: tree-parsed polls reach them through ``columns_from_cluster``
        self._summary_trackers: Dict[str, ColumnarSummaryTracker] = {}
        #: per-source fragment arenas (config.columnar_serve); they live
        #: on the daemon, not the snapshot, so fragments survive snapshot
        #: replacement and only changed hosts re-render
        self._serve_arenas: Dict[str, object] = {}

    # -- polling ------------------------------------------------------------

    def poll_request(self) -> str:
        """N-level children are polled with the summary query."""
        return SUMMARY_POLL_QUERY

    def ingest(self, source: str, doc: GangliaDocument, now: float) -> None:
        """Fold one poll response into the datastore.

        A gmond response carries CLUSTER elements (full form); a child
        gmetad response carries one GRID element whose contents are
        already in summary form.
        """
        for cluster in doc.clusters.values():
            # a summary-form CLUSTER (a ``/<cluster>?filter=summary``
            # answer) was already reduced by its authority: it passes
            # through summarize_cluster at zero cost and has no detail
            summary_form = cluster.is_summary
            if self.config.columnar and not summary_form:
                # tree-parsed cluster under a columnar config (salvage,
                # or a shape the fast parser fell back on): convert so
                # one tracker and one scatter-plan state machine exist
                # per source no matter which parser ran
                self._ingest_columns(
                    source,
                    columns_from_cluster(cluster, self._intern_pool),
                    now,
                )
                continue
            if self.config.incremental and not summary_form:
                # subtract-old/add-new: work scales with the k hosts
                # that changed, not the H hosts in the cluster
                summary, samples = self._summary_tracker(source).update(
                    columns_from_cluster(cluster, self._intern_pool)
                )
            else:
                summary, samples = summarize_cluster(
                    cluster, self.config.heartbeat_window
                )
            cluster.summary = summary  # element carries both resolutions
            self.charge(self.costs.summarize_metric * samples, "summarize")
            if self.config.archive_local_detail and not summary_form:
                self.archiver.archive_cluster_detail(source, cluster, now)
            self.archiver.archive_summary(source, cluster.name, summary, now)
            self.datastore.install(
                SourceSnapshot(
                    name=source,
                    kind="cluster",
                    summary=summary,
                    cluster=cluster,
                    authority=self.config.authority_url,
                ),
                now,
            )
        for grid in doc.grids.values():
            # merge the child's per-cluster/per-grid summaries into one
            # rollup for this source; cost is per *metric*, not per host
            parts = []
            for nested_cluster in grid.clusters.values():
                if nested_cluster.summary is not None:
                    parts.append(nested_cluster.summary)
            for nested_grid in grid.grids.values():
                if nested_grid.summary is not None:
                    parts.append(nested_grid.summary)
            if grid.summary is not None and not parts:
                summary = grid.summary
                operations = 0
            else:
                summary, operations = merge_summaries(parts)
            grid.summary = summary  # rollup for one-tag summary serving
            self.charge(self.costs.summarize_metric * operations, "summarize")
            # summary archives only: sum+num series per descendant cluster
            for nested_cluster in grid.clusters.values():
                if nested_cluster.summary is not None:
                    self.archiver.archive_summary(
                        source, nested_cluster.name, nested_cluster.summary, now
                    )
            for nested_grid in grid.grids.values():
                if nested_grid.summary is not None:
                    self.archiver.archive_summary(
                        source, nested_grid.name, nested_grid.summary, now
                    )
            self.datastore.install(
                SourceSnapshot(
                    name=source,
                    kind="grid",
                    summary=summary,
                    grid=grid,
                    authority=grid.authority or "",
                ),
                now,
            )

    def ingest_columnar(self, source: str, cdoc, now: float) -> None:
        """Fold one columnar-parsed poll response into the datastore."""
        for cols in cdoc.clusters:
            self._ingest_columns(source, cols, now)

    def _summary_tracker(self, source: str) -> ColumnarSummaryTracker:
        """The source's delta summarizer, created on first use."""
        tracker = self._summary_trackers.get(source)
        if tracker is None:
            tracker = ColumnarSummaryTracker(self.config.heartbeat_window)
            self._summary_trackers[source] = tracker
        return tracker

    def _ingest_columns(self, source: str, cols, now: float) -> None:
        """Columnar twin of the cluster branch of :meth:`ingest`.

        Summarization runs on the value column (vectorized, bit-identical
        totals and op counts); the archiver scatters the whole poll in
        one plan update; the datastore gets a hostless *shell* cluster
        plus the columns themselves -- full-form reads materialize the
        DOM lazily via :meth:`SourceSnapshot.ensure_hosts`, so polls that
        are never queried at full resolution never pay for a DOM.
        """
        if self.config.incremental:
            summary, samples = self._summary_tracker(source).update(cols)
        else:
            summary, samples = summarize_columns(
                cols, self.config.heartbeat_window
            )
        shell = cols.shell_cluster()
        shell.summary = summary  # element carries both resolutions
        self.charge(self.costs.summarize_metric * samples, "summarize")
        if self.config.archive_local_detail:
            self.archiver.archive_cluster_detail_columns(source, cols, now)
        self.archiver.archive_summary(source, cols.name, summary, now)
        arena = None
        if self.config.columnar_serve:
            from repro.serve import FragmentArena

            arena = self._serve_arenas.get(source)
            if arena is None:
                arena = FragmentArena()
                self._serve_arenas[source] = arena
            arena.install(cols)
        self.datastore.install(
            SourceSnapshot(
                name=source,
                kind="cluster",
                summary=summary,
                cluster=shell,
                columns=cols,
                arena=arena,
                authority=self.config.authority_url,
            ),
            now,
        )

    # -- serving -----------------------------------------------------------

    def serve_query(self, request: str) -> tuple[str, float]:
        """Serve one request through the path query engine."""
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
        """Binary answer for the whole-tree summary poll.

        The federation poll shape (``/?filter=summary``) always answers
        binary: it is the request every parent/peer sends on the
        background timescale, so it dominates serve-side wide-area
        bytes.  With ``columnar_serve`` on, single-source full dumps
        (``/source``) answer binary too -- a CLUSTER_DOC frame encoded
        straight from the held columns, the no-XML path capable readtier
        viewers negotiate.  Everything else declines (``None``) and
        falls back to XML.  The documents built here mirror the query
        engine's ``_write_tree``/``_source_fragment`` shapes element for
        element, so a binary-decoding peer installs exactly the state an
        XML-parsing peer would.
        """
        try:
            query = GmetadQuery.parse(request)
        except QueryError:
            return None
        if query.path:
            if query.summary or len(query.path) != 1:
                return None
            return self._serve_binary_detail(query)
        if not query.summary:
            return None
        now = self.engine.now
        seconds = self.charge(self.costs.query_fixed, "query")
        doc = GangliaDocument(version=self.version, source="gmetad")
        top = GridElement(
            name=self.config.gridname,
            authority=self.config.authority_url,
            # same truncation the XML envelope's LOCALTIME attr applies
            localtime=float(f"{now:.0f}"),
        )
        for name in self.datastore.source_names():
            snapshot = self.datastore.sources[name]
            if snapshot.kind == "cluster":
                # the shared hostless-shell synthesis picks the element;
                # copy it host-free for the encoder
                element = summary_cluster_element(snapshot)
                top.add_cluster(
                    ClusterElement(
                        name=element.name,
                        owner=element.owner,
                        localtime=element.localtime,
                        url=element.url,
                        summary=element.summary,
                    )
                )
            else:
                top.add_grid(
                    GridElement(
                        name=snapshot.grid.name,
                        authority=snapshot.authority or snapshot.grid.authority,
                        summary=snapshot.summary,
                    )
                )
        doc.add_grid(top)
        try:
            frame = encode_summary_document(doc)
        except FrameError:
            # a source without a usable summary: let XML (and its
            # error behavior, whatever it is) stay the source of truth
            return None
        self.last_serve_cached_bytes = 0
        seconds += self.charge(self.costs.serve_byte * len(frame), "serve")
        return frame, seconds

    def _serve_binary_detail(self, query: GmetadQuery):
        """A CLUSTER_DOC frame for one cluster source, straight from columns.

        The no-XML serving path: a ``bin1``-capable viewer (or readtier
        front door) asking for ``/source`` gets the columns re-framed,
        never serialized to text.  Requires ``columnar_serve`` and held
        columns; anything else declines to the XML engine.
        """
        if not self.config.columnar_serve:
            return None
        from repro.serve import columnar_detail_frame

        frame = columnar_detail_frame(
            self.datastore.source(query.path[0]), self.version
        )
        if frame is None:
            return None
        seconds = self.charge(self.costs.query_fixed, "query")
        seconds += self.charge(self.costs.hash_insert, "query")
        self.last_serve_cached_bytes = 0
        seconds += self.charge(self.costs.serve_byte * len(frame), "serve")
        return frame, seconds

    def request_is_summary(self, request: str) -> bool:
        """Summary-form answers key off content_version (see base)."""
        try:
            return GmetadQuery.parse(request).summary
        except QueryError:
            return False

    def remove_data_source(self, name: str) -> None:
        super().remove_data_source(name)
        self._summary_trackers.pop(name, None)
        self._serve_arenas.pop(name, None)

    # -- convenience for tools/alarms -----------------------------------------

    def resolve(self, query_text: str):
        """Resolve a query to model elements without serialization."""
        return self.query_engine.resolve(GmetadQuery.parse(query_text))

    def attach_pubsub(self, **kwargs):
        """Create and start a pub-sub broker riding on this daemon.

        Keyword arguments are forwarded to
        :class:`repro.pubsub.broker.PubSubBroker` (``lease``,
        ``max_queue``, ``upstreams``, ...).
        """
        from repro.pubsub.broker import PubSubBroker

        return PubSubBroker(self, **kwargs).start()
