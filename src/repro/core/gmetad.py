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
        )
        #: per-source delta summarizers (cluster sources, incremental)
        self._summary_trackers: Dict[str, ColumnarSummaryTracker] = {}

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
        self.archiver.begin_poll(source)
        for cluster in doc.clusters.values():
            if not cluster.is_summary:
                # a tree-parsed cluster (tree parser, salvage, or a shape
                # the fast parser fell back on) becomes columns, so one
                # summarizer and one archive plan exist per source no
                # matter which parser ran
                self._ingest_columns(
                    source,
                    columns_from_cluster(cluster, self._intern_pool),
                    now,
                )
                continue
            # a summary-form CLUSTER (a ``/<cluster>?filter=summary``
            # answer) was already reduced by its authority: it passes
            # through summarize_cluster at zero cost and has no detail
            summary, samples = summarize_cluster(
                cluster, self.config.heartbeat_window
            )
            cluster.summary = summary
            self.charge(self.costs.summarize_metric * samples, "summarize")
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
        self.archiver.begin_poll(source)
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
        """Summarize, archive and install one full-form cluster poll.

        Every full-form cluster lands here, whichever parser or codec
        delivered it.  Summarization runs on the value column
        (vectorized, the scalar fold's totals and op counts bit for
        bit); the archiver scatters the whole poll in one plan update;
        the datastore gets a hostless *shell* cluster plus the columns
        themselves, and readers slice the columns.
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
        self.archiver.archive_cluster_detail_columns(source, cols, now)
        self.archiver.archive_summary(source, cols.name, summary, now)
        self.datastore.install(
            SourceSnapshot(
                name=source,
                kind="cluster",
                summary=summary,
                cluster=shell,
                columns=cols,
                arena=self._install_arena(source, cols),
                authority=self.config.authority_url,
            ),
            now,
        )

    # -- serving -----------------------------------------------------------

    # bound on this class (not only inherited) so per-class span tables
    # such as benchmarks/e2e/spans.py can wrap it; an alias rather
    # than a super() wrapper, so a query pays for no extra call
    serve_query = GmetadBase.serve_query

    def serve_binary(self, request: str):
        """Binary answer for the whole-tree summary poll.

        The federation poll shape (``/?filter=summary``) always answers
        binary: it is the request every parent/peer sends on the
        background timescale, so it dominates serve-side wide-area
        bytes.  Path queries take the shared ``/source`` detail frame;
        everything else declines (``None``) and falls back to XML.  The
        document built here mirrors the query engine's ``_write_tree``
        shape element for element, so a binary-decoding peer installs
        exactly the state an XML-parsing peer would.
        """
        try:
            query = GmetadQuery.parse(request)
        except QueryError:
            return None
        if query.path:
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

    def remove_data_source(self, name: str) -> None:
        super().remove_data_source(name)
        self._summary_trackers.pop(name, None)

    # -- pub-sub ---------------------------------------------------------------

    def attach_pubsub(self, **kwargs):
        """Create and start a pub-sub broker riding on this daemon.

        Keyword arguments are forwarded to
        :class:`repro.pubsub.broker.PubSubBroker` (``lease``,
        ``max_queue``, ``upstreams``, ...).
        """
        from repro.pubsub.broker import PubSubBroker

        return PubSubBroker(self, **kwargs).start()
