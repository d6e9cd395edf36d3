"""Per-source fragment helpers shared by the query engine, the binary
summary answer and the replication feed: the element a cluster's
summary form serializes from, and the stamp-keyed ``frag_cache`` splice.
Callers keep their own CPU charging and stats accounting.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.wire.model import ClusterElement


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
) -> Tuple[str, bool]:
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
    cached: Optional[Tuple[int, str]] = snapshot.frag_cache.get(form)
    if cached is not None and cached[0] == stamp:
        return cached[1], True
    fragment = query_engine._source_fragment(snapshot, summary, stats)
    snapshot.frag_cache[form] = (stamp, fragment)
    return fragment, False

