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

A cluster's hosts are held as columns, so full-form cluster output is
rendered from them (:mod:`repro.serve.render`), or spliced from the
source's fragment arena when the daemon keeps one; summary forms and
grid sources serialize their elements through
:class:`~repro.wire.writer.XmlWriter`.

Whole-tree queries with ``filter=summary`` are how N-level parents poll
their children: the reply contains every local cluster and every remote
grid in summary form, each tagged with the AUTHORITY URL holding the
next resolution level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from repro.core.datastore import Datastore
from repro.serve.fragments import (
    DetailRenderer,
    memoized_source_fragment,
    summary_cluster_element,
)
from repro.serve.render import cluster_open_tag, metric_line
from repro.wire.model import ClusterElement, GridElement
from repro.wire.writer import XmlWriter

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

    With ``memoize`` on, whole-tree dumps cache each source's serialized
    fragment on its snapshot, keyed by the datastore's serialization
    stamps: a dump after k of S sources changed re-serializes k
    fragments and memcpys the rest.  The cache lives on the
    :class:`SourceSnapshot` itself, so removing a source drops its
    fragments with it.  A snapshot that carries a fragment arena
    answers its full-form and path replies from the arena's
    pre-rendered per-host fragments; replies are byte-identical either
    way, and reused arena bytes are reported via
    ``QueryStats.bytes_from_cache``.
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
        #: version), xml, spliced fragment bytes)``; a repeat of it would
        #: only re-join cached fragments, so it is handed back whole
        self._summary_reply: tuple = ((), "", 0)
        #: full-form cluster fragments for sources without an arena
        self._detail = DetailRenderer()

    # -- public API ---------------------------------------------------------

    def execute(self, query: GmetadQuery, now: float) -> Tuple[str, QueryStats]:
        """Run ``query``; returns (XML text, stats).

        Unknown paths produce an empty GANGLIA_XML report (stats.found
        False) rather than an exception -- remote viewers must receive
        *something* parseable.
        """
        stats = QueryStats()
        try:
            xml = self._execute(query, now, stats)
        except QueryNotFound:
            stats.found = False
            xml = self._empty_document(query)
        stats.bytes_serialized = len(xml)
        return xml, stats

    # -- serialization --------------------------------------------------------

    def _execute(self, query: GmetadQuery, now: float, stats: QueryStats) -> str:
        key = None
        if self.memoize and query.summary and not query.path:
            key = (f"{now:.0f}", self.datastore.content_version)
            if self._summary_reply[0] == key:
                # the stats an all-cached re-join would report
                stats.bytes_from_cache += self._summary_reply[2]
                return self._summary_reply[1]
        writer = XmlWriter()
        writer.raw('<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n')
        writer.open_tag(
            "GANGLIA_XML", [("VERSION", self.version), ("SOURCE", "gmetad")]
        )
        if not query.path:
            spliced = self._write_tree(writer, query.summary, now, stats)
        else:
            self._write_path(writer, query, stats)
        writer.close_tag("GANGLIA_XML")
        xml = writer.result()
        if key is not None:
            self._summary_reply = (key, xml, spliced)
        return xml

    def _write_tree(
        self, writer: XmlWriter, summary: bool, now: float, stats: QueryStats
    ) -> int:
        """The whole local grid: every source, full or summary form.

        Only the outer GRID envelope (whose LOCALTIME moves every serve)
        is always rebuilt; per-source bodies are memoized when enabled.
        Returns the bytes of the per-source bodies.
        """
        writer.open_tag(
            "GRID",
            [
                ("NAME", self.grid_name),
                ("AUTHORITY", self.authority),
                ("LOCALTIME", f"{now:.0f}"),
            ],
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
                    stats.bytes_from_cache += len(fragment)
            else:
                fragment = self._source_fragment(snapshot, summary, stats)
            spliced += len(fragment)
            writer.raw(fragment)
        writer.close_tag("GRID")
        return spliced

    def _source_fragment(self, snapshot, summary: bool, stats=None) -> str:
        """Serialize one source's element(s) exactly as the tree dump does."""
        if snapshot.kind == "cluster" and not summary:
            return self._cluster_detail(snapshot, stats)
        sub = XmlWriter()
        if snapshot.kind == "cluster":
            # the synthesized-shell case lives in the shared helper
            sub.cluster(summary_cluster_element(snapshot), summary_only=True)
        elif summary:
            merged = GridElement(
                name=snapshot.grid.name,
                authority=snapshot.authority or snapshot.grid.authority,
                summary=snapshot.summary,
            )
            sub.grid(merged, summary_only=True)
        else:
            sub.grid(snapshot.grid)
        return sub.result()

    def _cluster_detail(self, snapshot, stats=None) -> str:
        """A cluster source's full-form fragment (arena or columns)."""
        fragment, reused = self._detail.cluster(snapshot)
        if stats is not None:
            stats.bytes_from_cache += reused
        return fragment

    def _write_path(
        self, writer: XmlWriter, query: GmetadQuery, stats: QueryStats
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
            self._write_cluster_path(writer, query, snapshot, stats)
            return
        if len(path) == 1:
            if query.summary or snapshot.grid.is_summary:
                merged = GridElement(
                    name=snapshot.grid.name,
                    authority=snapshot.authority or snapshot.grid.authority,
                    summary=snapshot.summary,
                )
                writer.grid(merged, summary_only=True)
            else:
                writer.grid(snapshot.grid)
            return
        stats.hash_lookups += 1
        nested = self.datastore.find_nested(path[0], path[1])
        if nested is None or len(path) > 2:
            raise QueryNotFound(path)
        writer.open_tag(
            "GRID",
            [
                ("NAME", snapshot.grid.name),
                ("AUTHORITY", snapshot.authority or snapshot.grid.authority),
            ],
        )
        if isinstance(nested, ClusterElement):
            writer.cluster(nested, summary_only=nested.is_summary)
        else:
            writer.grid(nested, summary_only=nested.is_summary)
        writer.close_tag("GRID")

    def _write_cluster_path(
        self, writer: XmlWriter, query: GmetadQuery, snapshot, stats: QueryStats
    ) -> None:
        """``/source``, ``/source/host`` and ``/source/host/metric``.

        The matched host comes from the arena's pre-rendered fragment
        when the source has one, else it is rendered from the columns;
        a metric reply is that fragment's HOST opening line plus the
        one METRIC line, in the shell CLUSTER envelope.  Below the
        source level the summary filter changes nothing.
        """
        path = query.path
        if len(path) == 1:
            if query.summary:
                writer.cluster(snapshot.cluster, summary_only=True)
            else:
                writer.raw(self._cluster_detail(snapshot, stats))
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
            writer.raw(open_tag)
            writer.raw(host_fragment)
            writer.raw("</CLUSTER>\n")
            if arena is not None:
                stats.bytes_from_cache += len(host_fragment)
            return
        stats.hash_lookups += 1
        line = metric_line(host_fragment, path[2])
        if line is None:
            raise QueryNotFound(path)
        # a host owning a metric never self-closes, so its fragment's
        # first line is exactly the HOST opening tag the shell needs
        writer.raw(open_tag)
        writer.raw(host_fragment[: host_fragment.index("\n") + 1])
        writer.raw(line)
        writer.raw("</HOST>\n")
        writer.raw("</CLUSTER>\n")

    def _empty_document(self, query: GmetadQuery) -> str:
        writer = XmlWriter()
        writer.raw('<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n')
        writer.raw(f"<!-- not found: {query.render()} -->\n")
        writer.open_tag(
            "GANGLIA_XML", [("VERSION", self.version), ("SOURCE", "gmetad")]
        )
        writer.close_tag("GANGLIA_XML")
        return writer.result()


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
