"""Per-source fragment helpers shared by the query engine, the binary
summary answer, the replication feed and the 1-level dump: the element
a cluster's summary form serializes from, a cluster's full form from
its arena or columns, and the stamp-keyed ``frag_cache`` splice.

A fragment is a :class:`~repro.wire.reply.Chunks`: a rendered string
is a one-part fragment, an arena's full form is its open tag, host
fragments and close tag, never joined here.  ``frag_cache`` holds
``(stamp, Chunks)`` per form, so a held full-form fragment is the
arena's chunk tuple, not a joined copy.  Callers keep their own CPU
charging and stats accounting.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.serve.render import HostRenderer, render_cluster
from repro.wire.model import ClusterElement
from repro.wire.reply import Chunks
from repro.wire.writer import XmlWriter


class DetailRenderer:
    """Full-form cluster fragments, from a snapshot's arena or columns.

    Keeps one set of row templates (:class:`HostRenderer`) per intern
    pool it has rendered from -- a daemon's ingest pool and its in-band
    pool -- so both stay warm across replies.
    """

    __slots__ = ("_hosts",)

    def __init__(self) -> None:
        self._hosts: Dict[object, HostRenderer] = {}

    def host_renderer(self, cols) -> HostRenderer:
        """The row-template renderer for ``cols``' intern pool."""
        renderer = self._hosts.get(cols.pool)
        if renderer is None:
            renderer = self._hosts[cols.pool] = HostRenderer(cols.pool)
        return renderer

    def cluster(self, snapshot) -> Tuple[Chunks, int]:
        """``(CLUSTER fragment, bytes reused from the arena)``.

        Spliced from the arena when the source has one, else rendered
        from the columns.  A cluster without hosts (a failure
        placeholder, a summary-form cluster, an empty poll) is its
        shell, written by the writer's own rule: with a rollup attached
        the element is summary-form.
        """
        cols = snapshot.columns
        if cols is None or cols.host_count == 0:
            sub = XmlWriter()
            sub.cluster(snapshot.cluster)
            return Chunks.of(sub.result()), 0
        if snapshot.arena is not None:
            return snapshot.arena.detail_fragment()
        return Chunks.of(render_cluster(cols, self.host_renderer(cols))), 0

    def splice_reused(self, snapshot) -> int:
        """The reused-byte count :meth:`cluster` would report, for a
        reply that splices a held copy of its fragment instead."""
        cols = snapshot.columns
        if cols is None or cols.host_count == 0 or snapshot.arena is None:
            return 0
        return snapshot.arena.take_reused_bytes()


def summary_cluster_element(snapshot) -> ClusterElement:
    """The element a cluster source's summary form serializes from.

    Normally the installed cluster element itself (it carries the
    rollup).  A snapshot installed without an attached rollup --
    shouldn't happen via ``Gmetad.ingest``, but the engines stay total
    -- gets a synthesized hostless shell carrying the snapshot-level
    summary; the shell deliberately omits OWNER/URL, matching what the
    serializers always emitted for this case.
    """
    cluster = snapshot.cluster
    if cluster.summary is None:
        return ClusterElement(
            name=cluster.name,
            localtime=cluster.localtime,
            summary=snapshot.summary,
        )
    return cluster


def memoized_source_fragment(
    query_engine, snapshot, form: str, stats=None
) -> Tuple[Chunks, bool]:
    """Splice one source's fragment from its cache, or serialize it.

    ``form`` is ``"full"`` or ``"summary"``.  Returns
    ``(fragment, from_cache)``: the cache hits when the stored stamp
    still matches the snapshot's serialization stamp for that form
    (:class:`~repro.core.datastore.Datastore` bumps stamps on every
    content change).  On a miss the freshly serialized fragment is
    stored back under the current stamp.
    """
    summary = form == "summary"
    stamp = snapshot.summary_stamp if summary else snapshot.detail_stamp
    cached: Optional[Tuple[int, Chunks]] = snapshot.frag_cache.get(form)
    if cached is not None and cached[0] == stamp:
        return cached[1], True
    fragment = query_engine._source_fragment(snapshot, summary, stats)
    snapshot.frag_cache[form] = (stamp, fragment)
    return fragment, False

