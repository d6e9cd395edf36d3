"""The replication feed: the ingest daemon's own bytes over the delta stream.

Replicas must serve the *same bytes* the ingest gmetad would, so the
feed ships what the ingest daemon already holds -- never a lossy
re-encoding.  A cluster source's hosts travel as the GBF1
``CLUSTER_DOC`` frame of its current columns, which a replica decodes
straight back into columns with no XML parse; everything else travels
as the ingest's memoized serialization fragments, the exact strings its
whole-tree dumps splice.  The feed lives in a hidden ``__repl__``
namespace of the pub-sub flat state:

==========================  ===========================================
``__repl__/@gen``           ``generation:content_version:detail_version``
``__repl__/<src>``          compact JSON meta (kind, authority, up, cs,
                            detail form ``d``)
``__repl__/<src>/detail``   ``d`` = ``bin1``: base64 text of the GBF1
                            ``CLUSTER_DOC`` frame of the source's
                            columns (a cluster source with hosts);
                            ``d`` = ``xml``: the full-form XML fragment
                            (grid sources, hostless cluster shells)
``__repl__/<src>/summary``  summary-form XML fragment of the source
==========================  ===========================================

Keys under ``__repl__`` are delivered only to subscriptions rooted at
``/__repl__`` (the broker gates them), so ordinary subscribers -- and
every existing pub-sub byte-count benchmark -- see nothing new.

The frame is the one the source's fragment arena holds
(:meth:`~repro.serve.arena.FragmentArena.cluster_frame`), so the feed
and ``bin1`` viewers share one encode per install; an arena-less
snapshot encodes its columns instead.  The feed keeps each source's
base64 record for as long as its detail stamp holds, so an unchanged
source republishes the same string and the delta diff ships nothing.
The ingest charges a new record at ``serve_byte`` per frame byte, as a
``bin1`` ``/source`` answer is charged, and a kept one at the cached
rate, as a spliced fragment is.

The feed's *values* stay codec-agnostic strings; when the ingest
daemon's ``binary_wire`` is on and the replica subscribes with
``ReadTierConfig.binary_feed``, the delta/full messages that carry
them travel as :mod:`repro.wire.binfmt` PUBSUB frames instead of JSON
-- same keys, same records, fewer bytes (negotiated per subscription,
so JSON-feed replicas coexist on the same broker).

The ``cs`` meta bit records whether the ingest snapshot's cluster
element carries an attached summary (``Gmetad.ingest`` aliases
``cluster.summary`` with ``snapshot.summary``).  Neither the frame nor
the full-form XML carries the summary, so a replica rebuilding the
cluster must re-attach it -- otherwise a cluster with an OWNER/URL
would fall into the query engine's hostless-shell synthesis branch and
serve different bytes than the ingest daemon.
"""

from __future__ import annotations

import base64
import json
from typing import Dict, Tuple

from repro.columnar.layout import ColumnarDocument
from repro.serve.fragments import memoized_source_fragment
from repro.wire.binfmt import encode_cluster_document

#: Root of the hidden replication namespace in the pub-sub flat state.
REPL_PREFIX = "__repl__"
#: Datastore version triple key (the generation-barrier marker).
GEN_KEY = f"{REPL_PREFIX}/@gen"
#: meta ``d`` values: the form the detail record is in
FRAME_FORM = "bin1"
XML_FORM = "xml"


def meta_key(source: str) -> str:
    """Flat key of one source's replication metadata record."""
    return f"{REPL_PREFIX}/{source}"


def detail_key(source: str) -> str:
    """Flat key of one source's detail record (frame or fragment)."""
    return f"{REPL_PREFIX}/{source}/detail"


def summary_key(source: str) -> str:
    """Flat key of one source's summary-form fragment."""
    return f"{REPL_PREFIX}/{source}/summary"


class ReplicationFeed:
    """Builds the ``__repl__`` view of one gmetad's datastore.

    Installed by the broker as the delta engine's ``augment`` hook when
    ``config.read_tier`` is set; :meth:`state` runs on every publish.
    XML fragments are shared with the serve path through each
    snapshot's ``frag_cache`` (same stamps, same strings), so with the
    incremental pipeline on, a fragment is serialized once and both the
    feed and whole-tree dumps splice it.
    """

    def __init__(self, gmetad) -> None:
        self.gmetad = gmetad
        self._query_engine = gmetad.query_engine
        self.fragments_serialized = 0
        self.fragments_cached = 0
        #: source -> (detail stamp, base64 frame record, frame bytes)
        self._frames: Dict[str, Tuple[int, str, int]] = {}

    def state(self) -> Dict[str, str]:
        """The current ``__repl__`` key set (merged into published state)."""
        datastore = self.gmetad.datastore
        state: Dict[str, str] = {
            GEN_KEY: (
                f"{datastore.generation}:{datastore.content_version}"
                f":{datastore.detail_version}"
            )
        }
        frames: Dict[str, Tuple[int, str, int]] = {}
        for name in datastore.source_names():
            snapshot = datastore.sources[name]
            cluster_summary_attached = (
                snapshot.cluster is not None
                and snapshot.cluster.summary is not None
            )
            framed = snapshot.columns is not None and snapshot.columns.host_count
            meta = {
                "a": snapshot.authority or "",
                "cs": 1 if cluster_summary_attached else 0,
                "d": FRAME_FORM if framed else XML_FORM,
                "k": snapshot.kind,
                "u": 1 if snapshot.up else 0,
            }
            state[meta_key(name)] = json.dumps(
                meta, separators=(",", ":"), sort_keys=True
            )
            if framed:
                frames[name] = self._frame_record(name, snapshot)
                state[detail_key(name)] = frames[name][1]
            else:
                state[detail_key(name)] = self._fragment(snapshot, "full")
            state[summary_key(name)] = self._fragment(snapshot, "summary")
        self._frames = frames
        return state

    def _frame_record(self, name: str, snapshot) -> Tuple[int, str, int]:
        """One cluster source's frame record, kept while its stamp holds.

        Priced like a fragment: a new record at ``serve_byte`` per frame
        byte (what a ``bin1`` ``/source`` answer costs), a kept one at
        ``serve_byte_cached``.
        """
        gmetad = self.gmetad
        record = self._frames.get(name)
        if record is not None and record[0] == snapshot.detail_stamp:
            gmetad.charge(gmetad.costs.serve_byte_cached * record[2], "serve")
            return record
        if snapshot.arena is not None:
            frame = snapshot.arena.cluster_frame(gmetad.version)
        else:
            frame = encode_cluster_document(
                ColumnarDocument(
                    version=gmetad.version,
                    source="gmetad",
                    clusters=[snapshot.columns],
                )
            )
        gmetad.charge(gmetad.costs.serve_byte * len(frame), "serve")
        return (
            snapshot.detail_stamp,
            base64.b64encode(frame).decode("ascii"),
            len(frame),
        )

    def _fragment(self, snapshot, form: str) -> str:
        """One source fragment, spliced from the serve cache when current.

        Only summary forms and hostless full forms come here, each one
        rendered string, so the text costs no join.
        """
        fragment, from_cache = memoized_source_fragment(
            self._query_engine, snapshot, form
        )
        gmetad = self.gmetad
        if from_cache:
            self.fragments_cached += 1
            gmetad.charge(
                gmetad.costs.serve_byte_cached * fragment.size, "serve"
            )
        else:
            self.fragments_serialized += 1
            gmetad.charge(gmetad.costs.serve_byte * fragment.size, "serve")
        return fragment.text()
