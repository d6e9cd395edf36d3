"""The replication feed: serve-exact fragments over the delta stream.

Replicas must serve the *same bytes* the ingest gmetad would, so the
feed ships the ingest daemon's own memoized serialization fragments --
the exact strings its whole-tree dumps splice -- rather than a lossy
re-encoding.  The feed lives in a hidden ``__repl__`` namespace of the
pub-sub flat state:

========================  =============================================
``__repl__/@gen``         ``generation:content_version:detail_version``
``__repl__/<src>``        compact JSON meta (kind, authority, up, cs)
``__repl__/<src>/detail``   full-form XML fragment of the source
``__repl__/<src>/summary``  summary-form XML fragment of the source
========================  =============================================

Keys under ``__repl__`` are delivered only to subscriptions rooted at
``/__repl__`` (the broker gates them), so ordinary subscribers -- and
every existing pub-sub byte-count benchmark -- see nothing new.

The feed's *values* are codec-agnostic strings; when the ingest
daemon's ``binary_wire`` is on and the replica subscribes with
``ReadTierConfig.binary_feed``, the delta/full messages that carry
them travel as :mod:`repro.wire.binfmt` PUBSUB frames instead of JSON
-- same keys, same fragments, fewer bytes (negotiated per
subscription, so XML-feed replicas coexist on the same broker).

The ``cs`` meta bit records whether the ingest snapshot's cluster
element carries an attached summary (``Gmetad.ingest`` aliases
``cluster.summary`` with ``snapshot.summary``).  Full-form cluster
serialization drops the summary, so a replica re-parsing the detail
fragment must re-attach it -- otherwise a cluster with an OWNER/URL
would fall into the query engine's hostless-shell synthesis branch and
serve different bytes than the ingest daemon.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.serve.fragments import memoized_source_fragment

#: Root of the hidden replication namespace in the pub-sub flat state.
REPL_PREFIX = "__repl__"
#: Datastore version triple key (the generation-barrier marker).
GEN_KEY = f"{REPL_PREFIX}/@gen"


def meta_key(source: str) -> str:
    """Flat key of one source's replication metadata record."""
    return f"{REPL_PREFIX}/{source}"


def detail_key(source: str) -> str:
    """Flat key of one source's full-form fragment."""
    return f"{REPL_PREFIX}/{source}/detail"


def summary_key(source: str) -> str:
    """Flat key of one source's summary-form fragment."""
    return f"{REPL_PREFIX}/{source}/summary"


class ReplicationFeed:
    """Builds the ``__repl__`` view of one gmetad's datastore.

    Installed by the broker as the delta engine's ``augment`` hook when
    ``config.read_tier`` is set; :meth:`state` runs on every publish.
    Fragments are shared with the serve path through each snapshot's
    ``frag_cache`` (same stamps, same strings), so with the incremental
    pipeline on, a fragment is serialized once and both the feed and
    whole-tree dumps splice it.
    """

    def __init__(self, gmetad) -> None:
        self.gmetad = gmetad
        self._query_engine = gmetad.query_engine
        self.fragments_serialized = 0
        self.fragments_cached = 0

    def state(self) -> Dict[str, str]:
        """The current ``__repl__`` key set (merged into published state)."""
        datastore = self.gmetad.datastore
        state: Dict[str, str] = {
            GEN_KEY: (
                f"{datastore.generation}:{datastore.content_version}"
                f":{datastore.detail_version}"
            )
        }
        for name in datastore.source_names():
            snapshot = datastore.sources[name]
            cluster_summary_attached = (
                snapshot.cluster is not None
                and snapshot.cluster.summary is not None
            )
            meta = {
                "a": snapshot.authority or "",
                "cs": 1 if cluster_summary_attached else 0,
                "k": snapshot.kind,
                "u": 1 if snapshot.up else 0,
            }
            state[meta_key(name)] = json.dumps(
                meta, separators=(",", ":"), sort_keys=True
            )
            state[detail_key(name)] = self._fragment(snapshot, "full")
            state[summary_key(name)] = self._fragment(snapshot, "summary")
        return state

    def _fragment(self, snapshot, form: str) -> str:
        """One source fragment, spliced from the serve cache when current."""
        fragment, from_cache = memoized_source_fragment(
            self._query_engine, snapshot, form
        )
        gmetad = self.gmetad
        if from_cache:
            self.fragments_cached += 1
            gmetad.charge(
                gmetad.costs.serve_byte_cached * len(fragment), "serve"
            )
        else:
            self.fragments_serialized += 1
            gmetad.charge(gmetad.costs.serve_byte * len(fragment), "serve")
        return fragment
