"""The 1-level gmetad baseline (Ganglia monitor-core 2.5.1).

"A node in the monitoring tree reports the union of its children's data
to its parent, and will process and archive data for all clusters in its
subtree.  Nodes perform no reduction of monitoring data, forcing the
root to bear the brunt of the data from the entire cluster set. ...
every monitor between a cluster and the root will keep identical metric
archives for that cluster." (§2.1)

Consequently this daemon:

- polls children with a plain full-dump request;
- flattens every CLUSTER it receives (its own gmond sources *and* the
  unions forwarded by child gmetads) into full-detail state;
- archives every numeric metric of every host it has ever seen
  (the duplicated-archive pathology);
- serves exactly one thing: the entire tree -- "either the entire tree
  rooted at a monitoring node is reported, or nothing at all" (§2.3),
  which is why all three Table 1 views cost the viewer the same ~2 s.
"""

from __future__ import annotations

from typing import Dict

from repro.core.datastore import SourceSnapshot
from repro.core.gmetad_base import GmetadBase
from repro.core.query import FULL_DUMP_QUERY
from repro.serve.fragments import DetailRenderer
from repro.wire.model import GangliaDocument, SummaryInfo
from repro.wire.writer import XmlWriter


class OneLevelGmetad(GmetadBase):
    """The unscalable baseline design."""

    version = "2.5.1"
    summarizes = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: cluster name -> data source that delivered it (for diagnostics)
        self.cluster_origin: Dict[str, str] = {}
        #: renders each cluster's dump fragment from its columns
        self._detail = DetailRenderer()

    # -- polling -----------------------------------------------------------

    def poll_request(self) -> str:
        """2.5.1 children are asked for the full dump."""
        return FULL_DUMP_QUERY

    def ingest(self, source: str, doc: GangliaDocument, now: float) -> None:
        """Keep and archive every cluster in the response at full detail.

        A child 1-level gmetad responds with the union of its subtree as
        flat CLUSTER elements, so one poll may install many snapshots.
        Snapshots are keyed by *cluster* name: the root's datastore ends
        up with every cluster of the federation, whoever forwarded it.
        """
        for cluster in doc.walk_clusters():
            if cluster.is_summary:
                # 2.5.1 predates summaries; ignore foreign summary data.
                continue
            snapshot = SourceSnapshot.from_cluster(
                cluster,
                self._intern_pool,
                name=cluster.name,
                summary=SummaryInfo(),  # no reduction in this design
            )
            # the paper's baseline archive: every value of every cluster
            self.archiver.archive_cluster_detail_columns(
                cluster.name, snapshot.columns, now
            )
            self.cluster_origin[cluster.name] = source
            self.datastore.install(snapshot, now)

    def _on_source_down(self, source: str, error: str) -> None:
        # mark every cluster this source delivered as unreachable
        now = self.engine.now
        marked = False
        for cluster, origin in self.cluster_origin.items():
            if origin == source:
                self.datastore.mark_failure(cluster, now, error)
                marked = True
        if not marked:
            self.datastore.mark_failure(source, now, error)

    def _on_not_modified(self, source, notice, rtt) -> None:
        """Refresh liveness for every cluster this source delivered.

        The datastore is keyed by *cluster* name here, so the base
        class's by-source touch would miss; no localtime patching either
        -- this design stores clusters verbatim and its dump carries no
        per-serve timestamp.
        """
        now = self.engine.now
        self.charge(self.costs.tcp_connect, "network")
        self.polls_not_modified += 1
        touched = False
        for cluster, origin in self.cluster_origin.items():
            if origin == source:
                self.datastore.touch_success(cluster, now)
                # this design archives keyed by cluster name, not source
                self.archiver.replay(cluster, now)
                touched = True
        if not touched:
            self.datastore.touch_success(source, now)

    # -- serving -----------------------------------------------------------

    def request_is_summary(self, request: str) -> bool:
        """Never: every request gets the full tree."""
        return False

    def serve_query(self, request: str) -> tuple[str, float]:
        """Any request gets the full tree; there is no query engine."""
        writer = XmlWriter()
        writer.raw(
            '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'
        )
        writer.open_tag(
            "GANGLIA_XML", [("VERSION", self.version), ("SOURCE", "gmetad")]
        )
        cached_bytes = 0
        for name in self.datastore.source_names():
            snapshot = self.datastore.sources[name]
            if snapshot.cluster is None:
                continue
            cols = snapshot.columns
            if (cols is None or not cols.host_count) and (
                snapshot.cluster.summary is not None
            ):
                # summary form: no hosts in the columns, a rollup attached
                # (the in-band clusters' shells carry a rollup too)
                continue
            if self.config.incremental:
                cached = snapshot.frag_cache.get("full")
                if cached is not None and cached[0] == snapshot.detail_stamp:
                    writer.raw(cached[1])
                    cached_bytes += len(cached[1])
                    continue
            fragment, _ = self._detail.cluster(snapshot)
            if self.config.incremental:
                snapshot.frag_cache["full"] = (snapshot.detail_stamp, fragment)
            writer.raw(fragment)
        writer.close_tag("GANGLIA_XML")
        xml = writer.result()
        seconds = self.charge(
            self.costs.serve_byte * (len(xml) - cached_bytes), "serve"
        )
        if cached_bytes:
            seconds += self.charge(
                self.costs.serve_byte_cached * cached_bytes, "serve"
            )
        return xml, seconds
