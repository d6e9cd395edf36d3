"""Delta encoding of datastore changes.

The gmetad datastore (§2.3.2) is three levels of hash tables; this
module flattens it into a canonical ``{path: value}`` map and diffs
successive maps into compact *delta operations* -- the unit of pub-sub
notification.  Flat paths reuse the query engine's addressing:

========================================  ================================
``source``                                source liveness + kind
``source?summary``                        summary host counts (up|down)
``source?summary/metric``                 one additive reduction (sum|num)
``source/host``                           host membership + heartbeat state
``source/host/metric``                    one full-resolution metric value
``source/nested?summary[...]``            grid sources: nested summaries
========================================  ================================

Deliberately *excluded* are the pure-bookkeeping attributes that change
on every poll even when nothing happened (``TN``, ``REPORTED``,
``LOCALTIME``): a delta subscriber cares whether a value or membership
changed, and heartbeat freshness is already folded into the up/down
bit.  This is what makes the delta stream scale with the *change rate*
rather than the poll rate.

Two ways to the same map
------------------------

:func:`flatten_datastore` / :func:`flatten_snapshot` build the map from
scratch, walking a host tree each builds from a cluster's columns.
They are the reference the tests hold the engine to.  :class:`DeltaEngine` -- what a broker runs on every publish --
keeps one view per source instead and works in proportion to what
changed: a source whose snapshot is untouched costs a token compare,
and a re-polled cluster source is diffed row by row off its held
columns (raw ``VAL`` strings and the per-host up mask) without ever
building a tree.  Both produce the same ops and the same key order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count
from operator import attrgetter, ne
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.datastore import Datastore, SourceSnapshot
from repro.wire.model import ClusterElement, SummaryInfo

#: Suffix marking a summary-form path segment.
SUMMARY_MARK = "?summary"

_HOST_UP = "host|up"
_HOST_DOWN = "host|down"


@dataclass(frozen=True)
class DeltaOp:
    """One atomic change: set a flat path to a value, or delete it."""

    op: str  # "set" | "del"
    path: str
    value: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("set", "del"):
            raise ValueError(f"bad delta op {self.op!r}")

    def wire(self) -> list:
        """The compact list form used on the wire."""
        if self.op == "set":
            return ["s", self.path, self.value]
        return ["d", self.path]


_by_path = attrgetter("path")


def key_segments(key: str) -> Tuple[str, ...]:
    """Logical path segments of a flat key (summary marks stripped).

    ``"sdsc/attic-c0?summary/load_one"`` -> ``("sdsc", "attic-c0",
    "load_one")`` -- the same segments the query grammar addresses, so
    subscription paths match both full and summary resolution keys.
    """
    return tuple(
        seg[: -len(SUMMARY_MARK)] if seg.endswith(SUMMARY_MARK) else seg
        for seg in key.split("/")
    )


# -- flattening ------------------------------------------------------------


def _summary_items(prefix: str, summary: SummaryInfo) -> Iterator[Tuple[str, str]]:
    yield (
        prefix + SUMMARY_MARK,
        f"hosts|{summary.hosts_up}|{summary.hosts_down}",
    )
    for name, metric in summary.metrics.items():
        yield (
            f"{prefix}{SUMMARY_MARK}/{name}",
            f"{metric.total:.10g}|{metric.num}",
        )


def _cluster_items(
    prefix: str, cluster: ClusterElement, heartbeat_window: float
) -> Iterator[Tuple[str, str]]:
    for host in cluster.hosts.values():
        state = _HOST_UP if host.is_up(heartbeat_window) else _HOST_DOWN
        yield f"{prefix}/{host.name}", state
        for metric in host.metrics.values():
            yield f"{prefix}/{host.name}/{metric.name}", metric.val


def _head_items(snapshot: SourceSnapshot) -> Dict[str, str]:
    """A source's header keys: liveness plus its summary."""
    head = {
        snapshot.name: f"src|{snapshot.kind}|{'up' if snapshot.up else 'down'}"
    }
    head.update(_summary_items(snapshot.name, snapshot.summary))
    return head


def _grid_body(snapshot: SourceSnapshot) -> Dict[str, str]:
    """The keys below a grid source's header: its nested summaries.

    A cluster source without columns (a failure placeholder or a
    summary-form cluster) has no keys below its header.
    """
    body: Dict[str, str] = {}
    if snapshot.grid is not None:
        nested: Dict[str, object] = dict(snapshot.grid.clusters)
        nested.update(snapshot.grid.grids)
        for name, element in nested.items():
            summary = getattr(element, "summary", None)
            if summary is not None:
                body.update(_summary_items(f"{snapshot.name}/{name}", summary))
    return body


def flatten_snapshot(
    snapshot: SourceSnapshot, heartbeat_window: float = 80.0
) -> Dict[str, str]:
    """Flatten one source snapshot into delta paths.

    The reference the engine is held to: a cluster's keys are read off
    a host tree built here from its columns.
    """
    state = _head_items(snapshot)
    cols = snapshot.columns
    if cols is None:
        state.update(_grid_body(snapshot))
    else:
        cluster = cols.materialize_into(cols.shell_cluster())
        state.update(_cluster_items(snapshot.name, cluster, heartbeat_window))
    return state


def flatten_datastore(
    datastore: Datastore,
    heartbeat_window: float = 80.0,
    exclude_sources: Iterable[str] = (),
) -> Dict[str, str]:
    """Flatten the whole datastore; ``exclude_sources`` are skipped.

    An interior broker excludes sources covered by an upstream relay
    link: for those the child's (higher-resolution) feed is canonical
    and the local summary keys would fight it.
    """
    excluded = set(exclude_sources)
    state: Dict[str, str] = {}
    for name, snapshot in datastore.sources.items():
        if name in excluded:
            continue
        state.update(flatten_snapshot(snapshot, heartbeat_window))
    return state


# -- diffing ---------------------------------------------------------------


def _diff_into(
    old: Dict[str, str], new: Dict[str, str], ops: List[DeltaOp]
) -> None:
    """Append the (unsorted) ops turning ``old`` into ``new``."""
    for path, value in new.items():
        if old.get(path) != value:
            ops.append(DeltaOp("set", path, value))
    for path in old:
        if path not in new:
            ops.append(DeltaOp("del", path))


def diff_states(old: Dict[str, str], new: Dict[str, str]) -> List[DeltaOp]:
    """Ops turning ``old`` into ``new``, sorted by path (deterministic)."""
    ops: List[DeltaOp] = []
    _diff_into(old, new, ops)
    ops.sort(key=_by_path)
    return ops


def apply_ops(state: Dict[str, str], ops: Iterable[DeltaOp]) -> None:
    """Apply delta ops to a mutable state map in place."""
    for op in ops:
        if op.op == "set":
            state[op.path] = op.value
        else:
            state.pop(op.path, None)


class _SourceView:
    """One source's published keys, and the snapshot they were read from.

    ``head`` holds the header keys (liveness and summary).  The keys
    below it live in ``body`` for a snapshot without columns; for a
    cluster with columns they are implied by ``cols`` plus the key lists
    built once per layout (``host_keys`` per host, ``row_keys`` per
    metric row), and ``body`` stays ``None``.
    """

    __slots__ = (
        "snapshot", "token", "head", "body", "cols", "host_keys", "row_keys",
    )

    def __init__(self) -> None:
        self.snapshot: Optional[SourceSnapshot] = None
        self.token: Optional[tuple] = None
        self.head: Dict[str, str] = {}
        self.body: Optional[Dict[str, str]] = {}
        self.cols = None
        self.host_keys: List[str] = []
        self.row_keys: List[str] = []

    def __len__(self) -> int:
        if self.body is None:
            return len(self.head) + len(self.host_keys) + len(self.row_keys)
        return len(self.head) + len(self.body)

    def body_items(self, heartbeat_window: float) -> Dict[str, str]:
        """The keys below the header, in flatten order."""
        if self.body is not None:
            return self.body
        cols = self.cols
        vals = cols.vals_raw
        row_keys = self.row_keys
        starts = cols.host_row_start.tolist()
        up = cols.up_mask(heartbeat_window).tolist()
        body: Dict[str, str] = {}
        for h, host_key in enumerate(self.host_keys):
            body[host_key] = _HOST_UP if up[h] else _HOST_DOWN
            lo, hi = starts[h], starts[h + 1]
            body.update(zip(row_keys[lo:hi], vals[lo:hi]))
        return body

    def items(self, heartbeat_window: float) -> Iterator[Tuple[str, str]]:
        return chain(
            self.head.items(), self.body_items(heartbeat_window).items()
        )

    def set_layout(self, cols, prefix: str) -> None:
        """Hold ``cols`` and build the key lists of its layout."""
        strings = cols.pool.strings
        names = [strings[i] for i in cols.name_ids.tolist()]
        starts = cols.host_row_start.tolist()
        host_keys = [f"{prefix}/{host}" for host in cols.host_names]
        row_keys: List[str] = []
        for h, host_key in enumerate(host_keys):
            row_keys.extend(
                f"{host_key}/{name}" for name in names[starts[h] : starts[h + 1]]
            )
        self.cols, self.body = cols, None
        self.host_keys, self.row_keys = host_keys, row_keys


class DeltaEngine:
    """Per-source delta views over one datastore; emits ops on demand.

    One engine per broker.  ``advance`` returns the ops since the
    previous call -- exactly ``diff_states(old, flatten_datastore(...))``
    -- but rebuilds nothing that did not change.  Each source keeps a
    view tagged with a token: the snapshot's identity, its
    ``detail_stamp`` and ``summary_stamp``, ``up`` and ``kind``.
    (``up`` is there because :meth:`Datastore.mark_failure` and
    :meth:`Datastore.touch_success` flip it in place, moving no stamp.)

    - Token unchanged: the view is reused; no ops, no work.
    - Columnar snapshot with the previous columns' layout
      (:meth:`ColumnarCluster.same_layout`): rows whose raw ``VAL``
      differs and hosts whose up bit flipped become ``set`` ops; the
      per-layout key lists are reused.
    - Columnar snapshot on a new layout: the keys are rebuilt straight
      from the columns and diffed against the old ones.  A broker
      never builds a host tree.
    - Snapshot without columns (grid sources, failure placeholders,
      summary-form clusters): its nested summaries re-flattened and
      diffed.
    - Removed or now-excluded source: every key of its view is deleted.

    The ``augment`` namespace is diffed on its own, and the ops of all
    parts are sorted by path.  The caller charges CPU for
    ``keys_scanned``: the published keys plus the ops of each pass.
    That *models* the C gmetad walking its hash tables once per
    publish, so it is summed from the view sizes, not from work done.
    """

    def __init__(
        self, datastore: Datastore, heartbeat_window: float = 80.0
    ) -> None:
        self.datastore = datastore
        self.heartbeat_window = heartbeat_window
        #: published sources' views, in ``datastore.sources`` order
        self._views: Dict[str, _SourceView] = {}
        self._augmented: Dict[str, str] = {}
        #: the flattened view, built on first read after a change
        self._state: Optional[Dict[str, str]] = {}
        #: optional extra-keys hook (() -> Dict[str, str]) merged into
        #: every flattened view; the read tier's replication feed hangs
        #: its hidden ``__repl__`` namespace here
        self.augment = None
        self.diffs_computed = 0
        self.keys_scanned = 0

    @property
    def state(self) -> Dict[str, str]:
        """The engine's current flattened view (do not mutate)."""
        if self._state is None:
            state: Dict[str, str] = {}
            for view in self._views.values():
                state.update(view.items(self.heartbeat_window))
            state.update(self._augmented)
            self._state = state
        return self._state

    def advance(self, exclude_sources: Iterable[str] = ()) -> List[DeltaOp]:
        """Diff the live datastore against the last published state."""
        excluded = set(exclude_sources)
        previous = self._views
        order = list(previous)
        views: Dict[str, _SourceView] = {}
        ops: List[DeltaOp] = []
        for name, snapshot in self.datastore.sources.items():
            if name in excluded:
                continue
            view = previous.pop(name, None)
            if view is None:
                view = _SourceView()
            self._refresh(view, snapshot, ops)
            views[name] = view
        for view in previous.values():  # removed, or now relayed
            ops.extend(
                DeltaOp("del", path)
                for path, _ in view.items(self.heartbeat_window)
            )
        if self.augment is not None:
            augmented = self.augment()
            _diff_into(self._augmented, augmented, ops)
            self._augmented = augmented
        ops.sort(key=_by_path)
        if ops or list(views) != order:
            self._state = None
        self._views = views
        self.diffs_computed += 1
        self.keys_scanned += (
            sum(map(len, views.values())) + len(self._augmented) + len(ops)
        )
        return ops

    def _refresh(
        self, view: _SourceView, snapshot: SourceSnapshot, ops: List[DeltaOp]
    ) -> None:
        """Bring one source's view up to ``snapshot``, appending its ops."""
        token = (
            snapshot.detail_stamp,
            snapshot.summary_stamp,
            snapshot.up,
            snapshot.kind,
        )
        if view.snapshot is snapshot and view.token == token:
            return
        head = _head_items(snapshot)
        _diff_into(view.head, head, ops)
        view.head = head
        cols = snapshot.columns
        if cols is None:
            body = _grid_body(snapshot)
            _diff_into(view.body_items(self.heartbeat_window), body, ops)
            view.body, view.cols = body, None
            view.host_keys, view.row_keys = [], []
        elif view.cols is not None and cols.same_layout(view.cols):
            self._diff_rows(view, cols, ops)
            view.cols = cols
        else:
            old = view.body_items(self.heartbeat_window)
            view.set_layout(cols, snapshot.name)
            _diff_into(old, view.body_items(self.heartbeat_window), ops)
        view.snapshot, view.token = snapshot, token

    def _diff_rows(self, view: _SourceView, cols, ops: List[DeltaOp]) -> None:
        """Ops between two generations of columns on one layout."""
        old = view.cols
        vals = cols.vals_raw
        row_keys = view.row_keys
        for r in compress(count(), map(ne, vals, old.vals_raw)):
            ops.append(DeltaOp("set", row_keys[r], vals[r]))
        up = cols.up_mask(self.heartbeat_window)
        flipped = np.flatnonzero(up != old.up_mask(self.heartbeat_window))
        host_keys = view.host_keys
        for h in flipped.tolist():
            ops.append(
                DeltaOp("set", host_keys[h], _HOST_UP if up[h] else _HOST_DOWN)
            )
