"""Span recorder for the traced run.

The benchmark process wraps a fixed table of entry points of ``repro``
-- one per layer boundary -- without editing ``src/``.  Each call of a
wrapped entry point records one span ``[name, start, end, parent,
cycle, n]`` on a stack: ``parent`` is the index of the span that was
open when this one started (-1 for a root), ``cycle`` is the measured
cycle it fell in (-1 during warm-up and between cycles) and ``n`` is an
optional per-call payload (bytes in, bytes out or samples).  Spans stay
in memory and are written out when the run ends.

Module-level functions are patched in every loaded ``repro`` module
that holds a reference to them (``from x import f`` copies the name), so
``repro.core.gmetad_base.decode_document`` is wrapped as well as
``repro.wire.binfmt.decode_document``.  Methods are patched on the
class, which has to happen before any instance binds them into a
callback -- :func:`install` therefore runs before the workload is built.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, CYCLE, N = range(6)

#: the root span of a cycle's timed region
CYCLE_ROOT = "sim.engine.run_for"


class Recorder:
    """In-memory span store plus the counters the hooks feed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: measured-cycle index stamped on new spans; -1 = not measured
        self.cycle = -1
        self.counters: Dict[str, float] = {}
        #: intern pools seen by the decoders (identity-keyed)
        self.pools: Dict[int, object] = {}
        #: (parent span, name) -> [calls, seconds] of aggregated leaves
        self._leaves: Dict[tuple, list] = {}
        self._undo: List[tuple] = []

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add to a hook counter, measured cycles only."""
        if self.cycle >= 0:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn: Callable, post: Optional[Callable] = None):
        """A recording wrapper around ``fn``.

        ``post(recorder, span, args, kwargs, result)`` runs after a
        successful call, outside the span's timed interval.
        """
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cycle, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if post is not None:
                post(self, span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_leaf(self, name: str, fn: Callable):
        """A wrapper for a leaf called ~10^5 times per cycle.

        One span per call would cost more than the call; instead the
        calls made under one parent span are summed into a single
        synthetic child span (``n`` = number of calls) when the run
        ends.  Only valid for functions that call no other entry point.
        """
        stack = self.stack
        leaves = self._leaves

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (stack[-1] if stack else -1, name)
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def finalize(self) -> None:
        """Turn the aggregated leaves into synthetic child spans."""
        for (parent, name), (calls, seconds) in self._leaves.items():
            if parent < 0:
                continue  # a leaf called outside any span: not a layer cost
            anchor = self.spans[parent]
            self.spans.append(
                [name, anchor[START], anchor[START] + seconds, parent,
                 anchor[CYCLE], calls]
            )
        self._leaves.clear()

    # -- patching ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, post=None) -> None:
        original = cls.__dict__[attr]
        if post is LEAF:
            wrapped = self.wrap_leaf(name, original)
        else:
            wrapped = self.wrap(name, original, post)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def patch_function(self, module: str, attr: str, name: str, post=None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(name, original, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "cycle": span[CYCLE],
                            "n": span[N],
                        }
                    )
                )
                out.write("\n")


# -- per-call hooks ----------------------------------------------------------

#: table marker: aggregate this entry point with :meth:`Recorder.wrap_leaf`
LEAF = object()


def _bytes_of_first_arg(rec, span, args, kwargs, result) -> None:
    span[N] = len(args[0])


def _bytes_of_result(rec, span, args, kwargs, result) -> None:
    span[N] = len(result)


def _post_parse_columnar(rec, span, args, kwargs, result) -> None:
    span[N] = len(args[0])
    rec.count("parser.fast_lane_misses", result.fast_lane_misses)
    rec.count("parser.elements", result.element_count)
    pool = kwargs.get("pool")
    if pool is not None:
        rec.pools[id(pool)] = pool


def _post_decode(rec, span, args, kwargs, result) -> None:
    span[N] = len(args[0])
    pool = args[1] if len(args) > 1 else kwargs.get("pool")
    if pool is not None:
        rec.pools[id(pool)] = pool


def _post_columns_from_cluster(rec, span, args, kwargs, result) -> None:
    pool = args[1] if len(args) > 1 else kwargs.get("pool")
    if pool is not None:
        rec.pools[id(pool)] = pool


def _post_tracker_update(rec, span, args, kwargs, result) -> None:
    # args = (tracker, cols); result = (summary, samples re-reduced)
    span[N] = result[1]
    rec.count("summarize.samples", result[1])
    rec.count("summarize.rows", len(args[1].values))


def _post_execute(rec, span, args, kwargs, result) -> None:
    # args = (engine, query, now); result = (xml, stats).  The span is
    # renamed by the form of the query so the ledger can split the
    # three views of Table 1.
    query = args[1]
    if query.summary:
        form = "summary"
    elif len(query.path) >= 2:
        form = "path"
    else:
        form = "detail"
    span[NAME] = f"core.query.execute.{form}"
    stats = result[1]
    span[N] = stats.bytes_serialized
    rec.count("query.bytes_serialized", stats.bytes_serialized)
    rec.count("query.bytes_from_cache", stats.bytes_from_cache)


#: (module, class or None, attribute, span name, post hook)
ENTRY_POINTS = [
    ("repro.sim.engine", "Engine", "run_for", CYCLE_ROOT, None),
    ("repro.net.tcp", "TcpNetwork", "request", "net.tcp.request", None),
    ("repro.gmond.pseudo", "PseudoGmond", "_serve", "gmond.pseudo.serve", None),
    ("repro.wire.parser", None, "parse_columnar",
     "wire.parser.parse_columnar", _post_parse_columnar),
    ("repro.wire.parser", None, "parse_document",
     "wire.parser.parse_document", _bytes_of_first_arg),
    ("repro.wire.binfmt", None, "decode_document",
     "wire.binfmt.decode", _post_decode),
    ("repro.wire.binfmt", None, "encode_cluster_document",
     "wire.binfmt.encode_cluster", _bytes_of_result),
    ("repro.wire.binfmt", None, "encode_summary_document",
     "wire.binfmt.encode_summary", _bytes_of_result),
    ("repro.columnar.layout", None, "columns_from_cluster",
     "columnar.layout.columns_from_cluster", _post_columns_from_cluster),
    ("repro.columnar.summarize", "ColumnarSummaryTracker", "update",
     "columnar.summarize.update", _post_tracker_update),
    ("repro.core.archiver", "Archiver", "archive_cluster_detail_columns",
     "core.archiver.detail", None),
    ("repro.core.archiver", "Archiver", "archive_cluster_detail",
     "core.archiver.detail", None),
    ("repro.core.archiver", "Archiver", "archive_summary",
     "core.archiver.summary", None),
    ("repro.core.archiver", "Archiver", "replay", "core.archiver.replay", None),
    ("repro.rrd.store", "RrdStore", "update_columns",
     "rrd.bank.update_columns", None),
    ("repro.storage.tier", "StorageTier", "update_columns",
     "storage.tier.update_columns", None),
    ("repro.storage.tier", "StorageTier", "fetch_series",
     "storage.tier.fetch_series", LEAF),
    ("repro.storage.tier", "StorageTier", "rebalance_sweep",
     "storage.tier.rebalance_sweep", None),
    ("repro.storage.tier", "StorageTier", "repair_sweep",
     "storage.tier.repair_sweep", None),
    ("repro.analytics.engine", "AnalyticsEngine", "recompute",
     "analytics.engine.recompute", None),
    ("repro.analytics.engine", "AnalyticsEngine", "_scalar_window",
     "analytics.engine.scalar_window", None),
    ("repro.serve.arena", "FragmentArena", "install", "serve.arena.install", None),
    ("repro.serve.arena", "FragmentArena", "detail_fragment",
     "serve.arena.detail_fragment", None),
    ("repro.core.query", "QueryEngine", "execute",
     "core.query.execute", _post_execute),
    ("repro.core.datastore", "Datastore", "install",
     "core.datastore.install", None),
    ("repro.core.gmetad", "Gmetad", "ingest_columnar",
     "core.gmetad.ingest_columnar", None),
    ("repro.core.gmetad", "Gmetad", "ingest", "core.gmetad.ingest", None),
    ("repro.core.gmetad", "Gmetad", "serve_query",
     "core.gmetad.serve_query", None),
    ("repro.core.gmetad", "Gmetad", "serve_binary",
     "core.gmetad.serve_binary", None),
    ("repro.readtier.replica", "ReadReplica", "serve_query",
     "readtier.replica.serve_query", None),
    ("repro.readtier.replica", "ReadReplica", "_on_feed",
     "readtier.replica.feed_apply", None),
    ("repro.pubsub.delta", "DeltaEngine", "advance",
     "pubsub.broker.advance", None),
    ("repro.obs.observability", "Observability", "refresh_self_cluster",
     "obs.observability.refresh_self_cluster", None),
    ("repro.obs.drift", "DriftAuditor", "sweep", "obs.drift.sweep", None),
    ("repro.core.alarms", "AlarmEngine", "evaluate",
     "core.alarms.evaluate", None),
]

#: span names whose ``n`` is a number of calls, not a payload
LEAF_NAMES = {name for *_, name, post in ENTRY_POINTS if post is LEAF}

#: span names the entry-point table can produce (execute splits in three)
SPAN_NAMES = sorted(
    {name for *_, name, _ in ENTRY_POINTS if name != "core.query.execute"}
    | {f"core.query.execute.{form}" for form in ("detail", "summary", "path")}
)


def install() -> Recorder:
    """Wrap every entry point of the table; returns the live recorder.

    A module loaded after this runs imports the wrapped function from
    the defining module, so only modules already loaded need the scan
    in :meth:`Recorder.patch_function`.
    """
    recorder = Recorder()
    for module, cls_name, attr, name, post in ENTRY_POINTS:
        if cls_name is None:
            recorder.patch_function(module, attr, name, post)
        else:
            cls = getattr(importlib.import_module(module), cls_name)
            recorder.patch_method(cls, attr, name, post)
    return recorder


# -- analysis ----------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus what its child spans cover."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            out[parent] -= span[END] - span[START]
    return out


def in_cycle_region(spans: List[list]) -> List[bool]:
    """Whether each span's root ancestor is a cycle's timed region."""
    flags: List[bool] = []
    for span in spans:
        parent = span[PARENT]
        flags.append(
            flags[parent] if parent >= 0 else span[NAME] == CYCLE_ROOT
        )
    return flags
