"""Per-source arena of pre-rendered per-host XML fragments.

One :class:`FragmentArena` lives per cluster data source on a
columnar-serve daemon.  At install time it renders (or incrementally
re-renders) one byte fragment per host straight from the SoA columns;
at serve time a detail reply splices the CLUSTER open tag, the per-host
strings in host-name order and the close tag as one chunk list
(:class:`~repro.wire.reply.Chunks`, held until the next install) -- no
DOM, no re-serialization of unchanged hosts, and no join: the text is
built only where a reader asks for it.
A :class:`~repro.serve.render.HostRenderer` renders them from one row
template per host layout (``templates_built`` counts the layouts).

Invalidation reuses the columnar delta machinery: when the incoming
poll has the same layout as the previous one
(:meth:`ColumnarCluster.same_layout` -- host identity/order, metric
identity/order, TYPE/UNITS/SLOPE, validity), only hosts whose rendered
bytes could have moved are re-rendered.  ``same_layout`` deliberately
excludes exactly the per-row attributes that *do* reach the wire --
VAL, TN/TMAX/DMAX, SOURCE -- plus the per-host scalars, so the diff
here compares those and reduces per-row changes onto the host axis with
one ``bincount``.  NaN compares unequal to itself, so NaN-carrying rows
re-render every install: over-invalidation is allowed, staleness is not
(``test_serve_churn`` pins this).

The arena also holds the GBF1 ``CLUSTER_DOC`` frame of its current
columns, the answer to a ``bin1`` ``/source`` request and a read
tier's feed record.  The frame is encoded on the first such read after
an install and dropped by the next :meth:`FragmentArena.install`, so
repeated binary reads of one install encode once, and an install no
one reads in binary encodes nothing.  A read replica, whose columns
were decoded from the ingest's frame, holds that frame instead
(:meth:`FragmentArena.hold_frame`) and encodes nothing.  A quarantined
source keeps its last-good columns, so it keeps serving its last-good
frame.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Tuple

import numpy as np

from repro.columnar.layout import ColumnarDocument
from repro.serve.render import HostRenderer, cluster_open_tag
from repro.wire.binfmt import encode_cluster_document
from repro.wire.reply import Chunks

_CLOSE = "</CLUSTER>\n"


class FragmentArena:
    """Pre-rendered per-host fragments for one source's current columns."""

    __slots__ = (
        "cols",
        "_frags",
        "_order",
        "_open_tag",
        "_renderer",
        "_fresh_bytes",
        "_fresh_hosts",
        "_total_bytes",
        "_chunks",
        "_frame",
        "frag_hits",
        "frag_misses",
        "frag_invalidations",
        "frames_encoded",
        "frames_reused",
    )

    def __init__(self) -> None:
        self.cols = None
        self._frags: List[str] = []
        self._order: List[int] = []
        self._open_tag = ""
        self._renderer: Optional[HostRenderer] = None
        self._fresh_bytes = 0
        self._fresh_hosts = 0
        self._total_bytes = 0
        #: the full CLUSTER fragment's chunks, or None until the first
        #: read after an install
        self._chunks: Optional[Chunks] = None
        #: GBF1 CLUSTER_DOC frame of the current columns, or None until
        #: the first binary read after an install
        self._frame: Optional[bytes] = None
        #: fragments spliced into replies without re-rendering
        self.frag_hits = 0
        #: fragments rendered (initial builds and re-renders)
        self.frag_misses = 0
        #: fragments invalidated by a per-host delta diff
        self.frag_invalidations = 0
        #: CLUSTER_DOC frames encoded (at most one per install)
        self.frames_encoded = 0
        #: binary reads answered with the held frame
        self.frames_reused = 0

    # -- install-time maintenance -----------------------------------------

    def install(self, cols) -> None:
        """Adopt one poll's columns, re-rendering only what changed."""
        prev = self.cols
        self._frame = None
        self._chunks = None
        if self._renderer is None or self._renderer.pool is not cols.pool:
            self._renderer = HostRenderer(cols.pool)
        if prev is not None and cols.same_layout(prev):
            changed = np.flatnonzero(self._changed_hosts(prev, cols)).tolist()
            frags = self._frags
            for h, fragment in zip(changed, self._renderer.hosts(cols, changed)):
                self._fresh_bytes += len(fragment)
                frags[h] = fragment
            count = len(changed)
            self._fresh_hosts += count
            self.frag_invalidations += count
            self.frag_misses += count
            # host order is keyed by names, which same_layout guarantees
        else:
            names = cols.host_names
            self._frags = self._renderer.hosts(cols, range(len(names)))
            self._order = sorted(range(len(names)), key=names.__getitem__)
            self.frag_misses += len(names)
            self._fresh_bytes += sum(map(len, self._frags))
            self._fresh_hosts += len(names)
        self._open_tag = cluster_open_tag(cols)
        self._total_bytes = sum(map(len, self._frags))
        self.cols = cols

    @staticmethod
    def _changed_hosts(prev, cols) -> np.ndarray:
        """Per-host mask of fragments whose serialized bytes may differ."""
        host_count = cols.host_count
        row_changed = (
            (cols.metric_tn != prev.metric_tn)
            | (cols.metric_tmax != prev.metric_tmax)
            | (cols.metric_dmax != prev.metric_dmax)
            | (cols.source_ids != prev.source_ids)
        )
        host_changed = (
            np.bincount(
                cols.row_host[row_changed], minlength=host_count
            ).astype(bool)
        )
        # NaN placeholders make `values` useless for equality; the raw
        # VAL strings are what reach the wire anyway
        host_changed |= cols.vals_raw.host_changes(
            prev.vals_raw, cols.host_row_start
        )
        host_changed |= cols.host_reported != prev.host_reported
        host_changed |= cols.host_tn != prev.host_tn
        host_changed |= cols.host_tmax != prev.host_tmax
        host_changed |= cols.host_dmax != prev.host_dmax
        if cols.host_ip != prev.host_ip:
            host_changed |= np.fromiter(
                map(operator.ne, cols.host_ip, prev.host_ip),
                dtype=bool,
                count=host_count,
            )
        # host_location never serializes, so it cannot move the bytes
        return host_changed

    @property
    def templates_built(self) -> int:
        """METRIC row templates built: one per distinct host layout."""
        return 0 if self._renderer is None else self._renderer.templates_built

    # -- serve-time reads ---------------------------------------------------

    @property
    def open_tag(self) -> str:
        """The CLUSTER opening tag for the current columns."""
        return self._open_tag

    def detail_fragment(self) -> Tuple[Chunks, int]:
        """(full CLUSTER fragment's chunks, bytes spliced from reused
        fragments).

        The reused-byte count feeds ``QueryStats.bytes_from_cache`` so
        the host daemon charges unchanged hosts at the memcpy rate
        (``serve_byte_cached``) -- the in-simulation face of the fast
        path.  Fragments rendered since the last read count as fresh
        exactly once.
        """
        return self.chunks(), self.take_reused_bytes()

    def chunks(self) -> Chunks:
        """The full CLUSTER fragment as chunks: the open tag, the host
        fragments in name order, the close tag.  Built on the first
        read after an install and held until the next; a read that
        counts nothing."""
        held = self._chunks
        if held is None:
            parts = [self._open_tag]
            parts.extend(map(self._frags.__getitem__, self._order))
            parts.append(_CLOSE)
            size = len(self._open_tag) + self._total_bytes + len(_CLOSE)
            held = self._chunks = Chunks(tuple(parts), size)
        return held

    def take_reused_bytes(self) -> int:
        """The accounting half of :meth:`detail_fragment`: bytes a reply
        splicing the current fragment reuses.  Fresh bytes count once,
        so a reply that splices a held copy of :meth:`chunks` pays
        what the join would have."""
        fresh_bytes = min(self._fresh_bytes, self._total_bytes)
        fresh_hosts = min(self._fresh_hosts, len(self._frags))
        self._fresh_bytes = 0
        self._fresh_hosts = 0
        self.frag_hits += len(self._frags) - fresh_hosts
        return self._total_bytes - fresh_bytes

    def cluster_frame(self, version: str) -> bytes:
        """The GBF1 ``CLUSTER_DOC`` frame of the current columns.

        Encoded on the first call after an install and held until the
        next; ``version`` is the GANGLIA_XML VERSION of the one daemon
        that owns this arena.  A :class:`~repro.wire.binfmt.FrameError`
        propagates and leaves nothing held.
        """
        if self._frame is not None:
            self.frames_reused += 1
            return self._frame
        self._frame = encode_cluster_document(
            ColumnarDocument(
                version=version, source="gmetad", clusters=[self.cols]
            )
        )
        self.frames_encoded += 1
        return self._frame

    def hold_frame(self, frame: bytes) -> None:
        """Hold ``frame`` as the current columns' frame, unencoded.

        For a daemon whose columns were decoded from that very frame (a
        read replica installing its feed record): the frame encodes the
        same content, so :meth:`cluster_frame` answers with it until the
        next :meth:`install`.
        """
        self._frame = frame

    def host_fragment(self, host_name: str) -> Optional[str]:
        """The pre-rendered HOST fragment, or None if unknown."""
        cols = self.cols
        if cols is None:
            return None
        h = cols.host_index.get(host_name)
        if h is None:
            return None
        self.frag_hits += 1
        return self._frags[h]

