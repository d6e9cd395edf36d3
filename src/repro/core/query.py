"""The path query language and engine (§2.3).

"Instead of returning the entire tree rooted at a node, monitors accept
a small path-like query that specifies a single local subtree to report
(fig 4).  Low-latency query response is a primary goal of our design."

Grammar (matching the paper's ``/meteor/compute-0-0/`` example)::

    query   := "/" [ source [ "/" node [ "/" metric ] ] ] [ "?filter=summary" ]
    source  := data source name (cluster or child grid)
    node    := host name (cluster sources) or nested cluster/grid name
               (grid sources)
    metric  := metric name

Resolution is at most three hash lookups (`QueryStats.hash_lookups`),
mirroring §2.3.2; the expensive part is dumping the result -- O(m) for a
summary, O(H·m) for a full cluster -- which the engine reports via
``bytes_serialized`` so the host gmetad can charge CPU and compute the
service time viewers observe.

A reply is a chunk list (:class:`~repro.wire.reply.XmlReply`) of text
the daemon already holds: envelope tags, per-source fragments, and a
fragment arena's CLUSTER open tag and host fragments in name order.
``execute`` joins it once; the wire path sends it unjoined.  A
cluster's hosts are held as columns, so full-form cluster output is
rendered from them (:mod:`repro.serve.render`), or spliced from the
source's fragment arena when the daemon keeps one; summary forms and
grid sources serialize their elements through
:class:`~repro.wire.writer.XmlWriter` -- with ``memoize`` on, once per
(source, reply shape, serialization stamp), kept on the snapshot.

Whole-tree queries with ``filter=summary`` are how N-level parents poll
their children: the reply contains every local cluster and every remote
grid in summary form, each tagged with the AUTHORITY URL holding the
next resolution level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Tuple, Union

from repro.core.datastore import Datastore
from repro.serve.fragments import (
    DetailRenderer,
    memoized_source_fragment,
    summary_cluster_element,
)
from repro.serve.render import cluster_open_tag, metric_line
from repro.wire.model import ClusterElement, GridElement
from repro.wire.reply import Chunks, XmlReply
from repro.wire.writer import XML_PROLOG, XmlWriter, start_tag

#: Query string every N-level gmetad sends to its children when polling.
SUMMARY_POLL_QUERY = "/?filter=summary"
#: Query string the 1-level design (and full dumps) use.
FULL_DUMP_QUERY = "/"


class QueryError(ValueError):
    """Malformed query string."""


class QueryNotFound(KeyError):
    """The queried path does not exist in this gmetad's datastore."""

    def __init__(self, path: Tuple[str, ...]) -> None:
        super().__init__("/".join(path) or "/")
        self.path = path


@dataclass(frozen=True)
class GmetadQuery:
    """A parsed query: path segments plus the summary filter flag."""

    path: Tuple[str, ...] = ()
    summary: bool = False

    @classmethod
    def parse(cls, text: str) -> "GmetadQuery":
        """Parse a query string; raises QueryError on bad syntax."""
        if not isinstance(text, str):
            raise QueryError(f"query must be a string, got {type(text).__name__}")
        text = text.strip()
        if not text.startswith("/"):
            raise QueryError(f"query must start with '/': {text!r}")
        if "?" in text:
            path_text, _, query_string = text.partition("?")
            summary = False
            for param in query_string.split("&"):
                if not param:
                    continue
                key, _, value = param.partition("=")
                if key == "filter":
                    if value != "summary":
                        raise QueryError(f"unknown filter {value!r}")
                    summary = True
                else:
                    raise QueryError(f"unknown query parameter {key!r}")
        else:
            path_text, summary = text, False
        segments = tuple(s for s in path_text.split("/") if s)
        if len(segments) > 3:
            raise QueryError(f"query path too deep ({len(segments)} segments)")
        return cls(path=segments, summary=summary)

    def render(self) -> str:
        """The canonical string form of this query."""
        path = "/" + "/".join(self.path)
        return path + ("?filter=summary" if self.summary else "")


@dataclass
class QueryStats:
    """What executing one query cost."""

    hash_lookups: int = 0
    bytes_serialized: int = 0
    #: of bytes_serialized, how many were spliced from memoized source
    #: fragments or reused arena fragments (a memcpy, charged at
    #: serve_byte_cached instead of the full per-byte serialization cost)
    bytes_from_cache: int = 0
    found: bool = True


class QueryEngine:
    """Executes queries against a datastore; serializes the matched subtree.

    A reply is built as an :class:`~repro.wire.reply.XmlReply` chunk
    list: envelope tags, per-source fragments, an arena's open tag and
    host fragments.  :meth:`execute` joins it; the wire path asks for
    it unjoined.

    With ``memoize`` on, whole-tree dumps cache each source's serialized
    fragment on its snapshot, keyed by the datastore's serialization
    stamps: a dump after k of S sources changed re-serializes k
    fragments and splices the rest.  The cache lives on the
    :class:`SourceSnapshot` itself, so removing a source drops its
    fragments with it.  Summary-form and grid path replies keep the
    text they render there too, under reply-shape keys of their own
    (``path_renders`` counts the renders): a path reply never fills a
    form a whole-tree dump reads, so a dump's hits and misses, and what
    it charges, are the same whatever path replies came before.  A
    snapshot that carries a fragment arena answers its full-form and
    path replies from the arena's pre-rendered per-host fragments;
    replies are byte-identical either way, and reused arena bytes are
    reported via ``QueryStats.bytes_from_cache``.
    """

    def __init__(
        self,
        datastore: Datastore,
        grid_name: str,
        authority: str,
        version: str = "2.5.4",
        memoize: bool = False,
    ) -> None:
        self.datastore = datastore
        self.grid_name = grid_name
        self.authority = authority
        self.version = version
        self.memoize = memoize
        #: the last whole-tree summary reply, ``((LOCALTIME, content
        #: version), reply, spliced fragment bytes)``; a repeat of it
        #: would only re-join cached fragments, so it is handed back
        #: whole
        self._summary_reply: tuple = ((), None, 0)
        #: full-form cluster fragments for sources without an arena
        self._detail = DetailRenderer()
        #: summary-form and grid path replies rendered (not spliced)
        self.path_renders = 0
        #: the XML declaration and GANGLIA_XML open tag every reply
        #: starts with
        self._open = XML_PROLOG + start_tag(
            "GANGLIA_XML", [("VERSION", version), ("SOURCE", "gmetad")]
        )

    # -- public API ---------------------------------------------------------

    def execute(
        self, query: GmetadQuery, now: float, joined: bool = True
    ) -> Tuple[Union[str, XmlReply], QueryStats]:
        """Run ``query``; returns (XML text, stats).

        With ``joined`` False the text stays the reply's chunk list, an
        :class:`~repro.wire.reply.XmlReply` (the wire path's form).
        Unknown paths produce an empty GANGLIA_XML report (stats.found
        False) rather than an exception -- remote viewers must receive
        *something* parseable.
        """
        stats = QueryStats()
        try:
            reply = self._execute(query, now, stats)
        except QueryNotFound:
            stats.found = False
            reply = self._empty_document(query)
        stats.bytes_serialized = reply.size_bytes
        return (reply.xml if joined else reply), stats

    # -- serialization --------------------------------------------------------

    def _execute(
        self, query: GmetadQuery, now: float, stats: QueryStats
    ) -> XmlReply:
        key = None
        if self.memoize and query.summary and not query.path:
            key = (f"{now:.0f}", self.datastore.content_version)
            if self._summary_reply[0] == key:
                # the stats an all-cached re-join would report
                stats.bytes_from_cache += self._summary_reply[2]
                return self._summary_reply[1]
        reply = XmlReply()
        reply.add(self._open)
        if not query.path:
            spliced = self._write_tree(reply, query.summary, now, stats)
        else:
            self._write_path(reply, query, stats)
        reply.add("</GANGLIA_XML>\n")
        if key is not None:
            self._summary_reply = (key, reply, spliced)
        return reply

    def _write_tree(
        self, reply: XmlReply, summary: bool, now: float, stats: QueryStats
    ) -> int:
        """The whole local grid: every source, full or summary form.

        Only the outer GRID envelope (whose LOCALTIME moves every serve)
        is always rebuilt; per-source bodies are memoized when enabled.
        Returns the bytes of the per-source bodies.
        """
        reply.add(
            start_tag(
                "GRID",
                [
                    ("NAME", self.grid_name),
                    ("AUTHORITY", self.authority),
                    ("LOCALTIME", f"{now:.0f}"),
                ],
            )
        )
        form = "summary" if summary else "full"
        spliced = 0
        for name in self.datastore.source_names():
            snapshot = self.datastore.sources[name]
            if self.memoize:
                fragment, from_cache = memoized_source_fragment(
                    self, snapshot, form, stats
                )
                if from_cache:
                    stats.bytes_from_cache += fragment.size
            else:
                fragment = self._source_fragment(snapshot, summary, stats)
            spliced += fragment.size
            reply.splice(fragment)
        reply.add("</GRID>\n")
        return spliced

    def _source_fragment(self, snapshot, summary: bool, stats=None) -> Chunks:
        """Serialize one source's element(s) exactly as the tree dump does."""
        if snapshot.kind == "cluster" and not summary:
            return self._cluster_detail(snapshot, stats)
        sub = XmlWriter()
        if snapshot.kind == "cluster":
            # the synthesized-shell case lives in the shared helper
            sub.cluster(summary_cluster_element(snapshot), summary_only=True)
        elif summary:
            sub.grid(_summary_grid(snapshot), summary_only=True)
        else:
            sub.grid(snapshot.grid)
        return Chunks.of(sub.result())

    def _cluster_detail(self, snapshot, stats=None) -> Chunks:
        """A cluster source's full-form fragment (arena or columns)."""
        fragment, reused = self._detail.cluster(snapshot)
        if stats is not None:
            stats.bytes_from_cache += reused
        return fragment

    def _path_fragment(
        self, snapshot, shape: str, stamp: int, write: Callable[[XmlWriter], None]
    ) -> Chunks:
        """A summary-form or grid path reply's body, rendered by
        ``write`` once per (shape, stamp) when memoizing.

        Kept in ``frag_cache`` under ``shape``, a key no whole-tree dump
        reads, and counted as serialized like a fresh render: only what
        the daemon does changes, not what it charges.
        """
        if self.memoize:
            cached = snapshot.frag_cache.get(shape)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        sub = XmlWriter()
        write(sub)
        self.path_renders += 1
        fragment = Chunks.of(sub.result())
        if self.memoize:
            snapshot.frag_cache[shape] = (stamp, fragment)
        return fragment

    def _write_path(
        self, reply: XmlReply, query: GmetadQuery, stats: QueryStats
    ) -> None:
        """Serialize a path query result, keeping the output DTD-valid.

        Host and metric results are wrapped in a shell CLUSTER (and
        HOST) element carrying the real attributes but only the matched
        subtree -- exactly what the frontend needs to render the page
        without receiving sibling hosts.
        """
        path = query.path
        stats.hash_lookups += 1
        snapshot = self.datastore.source(path[0])
        if snapshot is None:
            raise QueryNotFound(path)
        if snapshot.kind == "cluster":
            self._write_cluster_path(reply, query, snapshot, stats)
            return
        grid = snapshot.grid
        if len(path) == 1:
            if query.summary or grid.is_summary:
                reply.splice(
                    self._path_fragment(
                        snapshot, "path:summary", snapshot.summary_stamp,
                        lambda w: w.grid(_summary_grid(snapshot), summary_only=True),
                    )
                )
            else:
                reply.splice(
                    self._path_fragment(
                        snapshot, "path:full", snapshot.detail_stamp,
                        lambda w: w.grid(grid),
                    )
                )
            return
        stats.hash_lookups += 1
        nested = self.datastore.find_nested(path[0], path[1])
        if nested is None or len(path) > 2:
            raise QueryNotFound(path)

        def write_nested(writer: XmlWriter) -> None:
            writer.open_tag(
                "GRID",
                [
                    ("NAME", grid.name),
                    ("AUTHORITY", snapshot.authority or grid.authority),
                ],
            )
            if isinstance(nested, ClusterElement):
                writer.cluster(nested, summary_only=nested.is_summary)
            else:
                writer.grid(nested, summary_only=nested.is_summary)
            writer.close_tag("GRID")

        reply.splice(
            self._path_fragment(
                snapshot, f"path:/{path[1]}", snapshot.detail_stamp, write_nested
            )
        )

    def _write_cluster_path(
        self, reply: XmlReply, query: GmetadQuery, snapshot, stats: QueryStats
    ) -> None:
        """``/source``, ``/source/host`` and ``/source/host/metric``.

        A ``/source`` detail reply splices the memoized full-form
        fragment when its stamp is current (read-only: a path query
        never fills the cache) and charges what the arena's chunks
        would have, else it is the arena's chunks or rendered from the
        columns.  The summary form is rendered once per summary stamp.
        The matched host comes from the arena's pre-rendered fragment
        when the source has one, else it is rendered from the columns;
        a metric reply is that fragment's HOST opening line plus the
        one METRIC line, in the shell CLUSTER envelope.  Below the
        source level the summary filter changes nothing.
        """
        path = query.path
        if len(path) == 1:
            if query.summary:
                reply.splice(
                    self._path_fragment(
                        snapshot, "path:summary", snapshot.summary_stamp,
                        lambda w: w.cluster(
                            summary_cluster_element(snapshot), summary_only=True
                        ),
                    )
                )
                return
            cached = snapshot.frag_cache.get("full") if self.memoize else None
            if cached is not None and cached[0] == snapshot.detail_stamp:
                reply.splice(cached[1])
                stats.bytes_from_cache += self._detail.splice_reused(snapshot)
            else:
                reply.splice(self._cluster_detail(snapshot, stats))
            return
        stats.hash_lookups += 1
        cols = snapshot.columns
        h = None if cols is None else cols.host_index.get(path[1])
        if h is None:
            raise QueryNotFound(path)
        arena = snapshot.arena
        if arena is None:
            host_fragment = self._detail.host_renderer(cols).hosts(cols, [h])[0]
            open_tag = cluster_open_tag(cols)
        else:
            host_fragment = arena.host_fragment(path[1])
            open_tag = arena.open_tag
        if len(path) == 2:
            reply.add(open_tag)
            reply.add(host_fragment)
            reply.add("</CLUSTER>\n")
            if arena is not None:
                stats.bytes_from_cache += len(host_fragment)
            return
        stats.hash_lookups += 1
        line = metric_line(host_fragment, path[2])
        if line is None:
            raise QueryNotFound(path)
        # a host owning a metric never self-closes, so its fragment's
        # first line is exactly the HOST opening tag the shell needs
        reply.add(open_tag)
        reply.add(host_fragment[: host_fragment.index("\n") + 1])
        reply.add(line)
        reply.add("</HOST>\n")
        reply.add("</CLUSTER>\n")

    def _empty_document(self, query: GmetadQuery) -> XmlReply:
        reply = XmlReply()
        reply.add(XML_PROLOG)
        reply.add(f"<!-- not found: {query.render()} -->\n")
        reply.add(self._open[len(XML_PROLOG):])
        reply.add("</GANGLIA_XML>\n")
        return reply


def _summary_grid(snapshot) -> GridElement:
    """A grid source's summary-form element: its name, the authority
    holding the next resolution level, and the source's rollup."""
    return GridElement(
        name=snapshot.grid.name,
        authority=snapshot.authority or snapshot.grid.authority,
        summary=snapshot.summary,
    )


# -- load shedding ----------------------------------------------------------


class ServeQueue:
    """Bounded in-flight serve queue with oldest-first shedding.

    The paper decouples query serving from the parse/summarize
    timescale, but a query storm can still saturate the daemon: every
    accepted query charges CPU and holds its response until the service
    time elapses.  This queue tracks in-flight serves; when a new query
    would exceed ``limit``, the *oldest* pending entry is shed -- its
    response payload is rewritten to an explicit OVERLOADED reply --
    on the theory that the oldest waiter is the most likely to have
    given up (or to retry anyway), while fresh queries see answers.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("serve queue limit must be >= 1")
        self.limit = limit
        self._entries: Deque[Tuple[float, object]] = deque()
        self.shed_count = 0
        self.accepted = 0
        #: high-water mark of :attr:`depth` over the queue's lifetime
        self.peak_depth = 0

    @property
    def depth(self) -> int:
        """Entries currently considered in flight."""
        return len(self._entries)

    def _purge(self, now: float) -> None:
        while self._entries and self._entries[0][0] <= now:
            self._entries.popleft()

    def make_room(self, now: float) -> List[object]:
        """Drop completed entries, then shed the oldest until one slot
        is free.  Returns the shed entries' attached objects."""
        self._purge(now)
        shed: List[object] = []
        while len(self._entries) >= self.limit:
            _, attached = self._entries.popleft()
            shed.append(attached)
            self.shed_count += 1
        return shed

    def push(self, done_at: float, attached: object) -> None:
        """Record one accepted serve completing at ``done_at``.

        Entries complete in push order in practice (service times are
        charged sequentially), so insertion keeps the deque sorted
        enough for the head-purge in :meth:`make_room`.
        """
        self.accepted += 1
        self._entries.append((done_at, attached))
        if len(self._entries) > self.peak_depth:
            self.peak_depth = len(self._entries)

    def take_peak_depth(self) -> int:
        """Sample the high-water mark and reset it for the next window.

        Benchmarks ramping offered load in steps need per-window peaks;
        a lifetime-monotone mark would report step 1's saturation for
        every later step.  The mark resets to the *current* depth, not
        zero, so entries still in flight at the window boundary are
        counted in the window that observes them.
        """
        peak = self.peak_depth
        self.peak_depth = len(self._entries)
        return peak
