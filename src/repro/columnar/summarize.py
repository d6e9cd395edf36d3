"""Summarization kernels over :class:`ColumnarCluster`.

- :func:`summarize_columns` mirrors
  :func:`repro.core.summarize.summarize_cluster` -- one eager additive
  reduction per poll, computed with masked scatter-adds over the metric
  row axis instead of per-host Python loops.  ``np.add.at`` is an
  unbuffered in-order scatter, so each metric's SUM accumulates in
  document order exactly like the scalar left-to-right fold.  Totals,
  NUM counts, metric order, units backfill, metadata provenance (first
  occurrence) and the op count match the scalar fold bit for bit --
  including the sign of zero, patched up explicitly (a scalar fold of
  only ``-0.0`` contributions yields ``-0.0`` while a scatter-add seeded
  from ``0.0`` yields ``+0.0``).  The drift auditor re-folds held
  columns with it, so auditing never builds an element tree.
- :class:`ColumnarSummaryTracker` is the daemon's one incremental
  summarizer: it remembers each host's last contribution and, per poll,
  subtracts the stale contribution of changed/removed hosts and adds
  the new one, so work scales with the k hosts that changed, not the H
  hosts in the cluster.  Tree-parsed polls reach it through
  :func:`repro.columnar.columns_from_cluster`.

The additive (SUM, NUM) reduction of §2.2 makes the tracker sound: NUM
is exact integer arithmetic, but naive ``total += / -=`` on SUM
accumulates rounding error across churn, and a sequence that drains a
metric back toward zero can leave a residue like ``-7.1e-15`` that the
4-decimal wire formatting renders as ``"-0"`` while an eager re-fold
serves ``"0"``.  Two mechanisms keep incremental totals wire-identical
to an eager re-fold:

- every accumulator uses **Neumaier-compensated** addition (a running
  compensation term recovers the low-order bits each naive add drops),
  held as parallel slot arrays; each host's add/subtract is one
  vectorized update, since a host's metrics touch distinct slots;
- when a metric's reporter count drains to zero its slot is freed (an
  eager re-fold would not produce the metric at all), and when the
  source's host count drains to zero every accumulator is rebuilt from
  nothing -- exact zeros, no residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.columnar.layout import ColumnarCluster, InternPool
from repro.wire.model import MetricSummary, SummaryInfo

_NO_ROW = np.iinfo(np.int64).max


def summarize_columns(
    cols: ColumnarCluster,
    heartbeat_window: float = 80.0,
) -> Tuple[SummaryInfo, int]:
    """Eagerly reduce a columnar poll; mirrors ``summarize_cluster``.

    Returns ``(summary, samples_reduced)`` with the same charging
    contract: the second element is the number of numeric samples folded
    in.
    """
    pool = cols.pool
    up = cols.up_mask(heartbeat_window)
    info = SummaryInfo()
    info.hosts_up = int(np.count_nonzero(up))
    info.hosts_down = cols.host_count - info.hosts_up

    mask = cols.valid & up[cols.row_host]
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return info, 0
    nids = cols.name_ids[rows]
    vals = cols.values[rows]

    size = pool.size
    sums = np.zeros(size, dtype=np.float64)
    np.add.at(sums, nids, vals)
    nums = np.bincount(nids, minlength=size)
    first = np.full(size, _NO_ROW, dtype=np.int64)
    np.minimum.at(first, nids, rows)

    # Sign-of-zero parity: the scalar fold starts from the first value
    # itself, so a metric whose every contribution is -0.0 sums to -0.0;
    # the scatter-add starts from +0.0 and loses the sign.  (Any other
    # zero total -- cancellation, mixed-sign zeros -- is +0.0 both ways.)
    zeros = (vals == 0.0) & np.signbit(vals)
    if zeros.any():
        negz = np.bincount(nids[zeros], minlength=size)
        all_negz = (nums > 0) & (negz == nums)
        sums[all_negz] = -0.0

    # UNITS is the first *non-empty* value in document order (the scalar
    # path backfills ``existing.units = existing.units or ms.units``).
    units_final = np.full(size, pool.empty_id, dtype=np.int64)
    nonempty = cols.units_ids[rows] != pool.empty_id
    if nonempty.any():
        ufirst = np.full(size, _NO_ROW, dtype=np.int64)
        np.minimum.at(ufirst, nids[nonempty], rows[nonempty])
        seen = ufirst != _NO_ROW
        units_final[seen] = cols.units_ids[ufirst[seen]]

    active = np.flatnonzero(nums > 0)
    active = active[np.argsort(first[active], kind="stable")]
    strings = pool.strings
    type_ids = cols.type_ids
    slope_ids = cols.slope_ids
    metrics = info.metrics
    for nid in active:
        r = first[nid]
        metrics[strings[nid]] = MetricSummary(
            name=strings[nid],
            total=float(sums[nid]),
            num=int(nums[nid]),
            mtype=pool.mtype_at(int(type_ids[r])),
            units=strings[units_final[nid]],
            slope=pool.slope_at(int(slope_ids[r])),
        )
    return info, int(rows.size)


@dataclass(slots=True)
class _HostState:
    """One host's live share of the running summary (columnar form)."""

    up: bool
    #: accumulator slot per contributing metric, document order
    slots: np.ndarray
    values: np.ndarray
    name_ids: np.ndarray
    type_ids: np.ndarray
    units_ids: np.ndarray
    slope_ids: np.ndarray

    def count(self) -> int:
        # name_ids, not slots: a fresh state's slots are only resolved
        # once _add_host runs, but its contribution size is known
        return len(self.name_ids)


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def _empty_host_state(up: bool) -> _HostState:
    return _HostState(
        up=up,
        slots=_EMPTY_I64,
        values=_EMPTY_F64,
        name_ids=_EMPTY_I32,
        type_ids=_EMPTY_I32,
        units_ids=_EMPTY_I32,
        slope_ids=_EMPTY_I32,
    )


class ColumnarSummaryTracker:
    """Running summary for one cluster source, updated host-by-host.

    Accumulator state is a set of parallel *slot* arrays (Neumaier sum
    and compensation, exposed total, NUM, metadata ids); a slot is
    allocated when a metric gains its first reporter and freed when its
    reporter count drains to zero.  ``_order`` is the running summary's
    metric insertion order, so the serialized METRICS sequence is
    stable -- a sole-reporter metric that drains and is immediately
    re-added moves to the end.

    When consecutive polls share a layout (same hosts, same metric rows,
    same liveness -- the overwhelmingly common case), changed hosts are
    found with one vectorized value comparison; otherwise a per-host
    slow path compares each host's contribution as a key *set*
    (order-insensitive).
    """

    def __init__(self, heartbeat_window: float = 80.0) -> None:
        self.heartbeat_window = heartbeat_window
        self._pool: Optional[InternPool] = None
        self._hosts: Dict[str, _HostState] = {}
        self._hosts_up = 0
        self._hosts_down = 0
        # slot arrays (capacity-doubled)
        self._cap = 0
        self._size = 0
        self._sum = _EMPTY_F64
        self._comp = _EMPTY_F64
        self._tot = _EMPTY_F64  # exposed total: first value, then sum+comp
        self._num = _EMPTY_I64
        self._tid = _EMPTY_I32
        self._uid = _EMPTY_I32
        self._sid = _EMPTY_I32
        self._free: List[int] = []
        #: name id -> slot (dense array over the intern pool), -1 absent
        self._slot_of_nid = _EMPTY_I64
        #: name id -> None, in running-dict insertion order
        self._order: Dict[int, None] = {}
        self._prev: Optional[ColumnarCluster] = None
        self._prev_up: Optional[np.ndarray] = None
        #: diagnostic: how many times the drain-to-zero rebuild fired
        self.rebuilds = 0

    # -- slot management ---------------------------------------------------

    def _grow(self, needed: int) -> None:
        cap = max(64, self._cap)
        while cap < needed:
            cap *= 2
        if cap == self._cap:
            return
        for name in ("_sum", "_comp", "_tot"):
            arr = np.zeros(cap, dtype=np.float64)
            arr[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, arr)
        num = np.zeros(cap, dtype=np.int64)
        num[: self._size] = self._num[: self._size]
        self._num = num
        for name in ("_tid", "_uid", "_sid"):
            arr = np.zeros(cap, dtype=np.int32)
            arr[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, arr)
        self._cap = cap

    def _alloc(self, k: int) -> np.ndarray:
        slots = np.empty(k, dtype=np.int64)
        reuse = min(k, len(self._free))
        for i in range(reuse):
            slots[i] = self._free.pop()
        fresh = k - reuse
        if fresh:
            self._grow(self._size + fresh)
            slots[reuse:] = np.arange(
                self._size, self._size + fresh, dtype=np.int64
            )
            self._size += fresh
        return slots

    def _sync_pool(self, pool: InternPool) -> None:
        if self._pool is None:
            self._pool = pool
        elif self._pool is not pool:
            raise ValueError("tracker is bound to a different intern pool")
        if len(self._slot_of_nid) < pool.size:
            table = np.full(max(64, 2 * pool.size), -1, dtype=np.int64)
            table[: len(self._slot_of_nid)] = self._slot_of_nid
            self._slot_of_nid = table

    # -- per-host add/subtract ----------------------------------------------

    def _subtract_host(self, st: _HostState) -> int:
        if st.up:
            self._hosts_up -= 1
        else:
            self._hosts_down -= 1
        slots = st.slots
        if slots.size == 0:
            return 0
        self._num[slots] -= 1
        drained = self._num[slots] == 0
        live = slots[~drained]
        if live.size:
            v = -st.values[~drained]
            s = self._sum[live]
            t = s + v
            self._comp[live] += np.where(
                np.abs(s) >= np.abs(v), (s - t) + v, (v - t) + s
            )
            self._sum[live] = t
            self._tot[live] = t + self._comp[live]
        if drained.any():
            # last reporter left: drop the reduction and free its slot
            # (an eager re-fold would simply not produce the metric)
            dn = st.name_ids[drained]
            order = self._order
            for nid in dn:
                del order[int(nid)]
            self._slot_of_nid[dn] = -1
            self._free.extend(int(s) for s in slots[drained])
        return int(slots.size)

    def _add_host(self, st: _HostState) -> int:
        if st.up:
            self._hosts_up += 1
        else:
            self._hosts_down += 1
        nids = st.name_ids
        if nids.size == 0:
            return 0
        slots = self._slot_of_nid[nids]
        missing = slots < 0
        if missing.any():
            new_nids = nids[missing]
            new_slots = self._alloc(int(missing.sum()))
            slots[missing] = new_slots
            self._slot_of_nid[new_nids] = new_slots
            v = st.values[missing]
            self._sum[new_slots] = v
            self._comp[new_slots] = 0.0
            self._tot[new_slots] = v  # first value verbatim
            self._num[new_slots] = 1
            self._tid[new_slots] = st.type_ids[missing]
            self._uid[new_slots] = st.units_ids[missing]
            self._sid[new_slots] = st.slope_ids[missing]
            order = self._order
            for nid in new_nids:  # document order == insertion order
                order[int(nid)] = None
        existing = ~missing
        if existing.any():
            ls = slots[existing]
            v = st.values[existing]
            s = self._sum[ls]
            t = s + v
            self._comp[ls] += np.where(
                np.abs(s) >= np.abs(v), (s - t) + v, (v - t) + s
            )
            self._sum[ls] = t
            self._tot[ls] = t + self._comp[ls]
            self._num[ls] += 1
            u = self._uid[ls]
            backfill = u == self._pool.empty_id
            if backfill.any():
                u[backfill] = st.units_ids[existing][backfill]
                self._uid[ls] = u
        st.slots = slots
        return int(nids.size)

    # -- contribution extraction and comparison ----------------------------

    def _fresh_state(self, cols: ColumnarCluster, h: int, up: bool) -> _HostState:
        if not up:
            return _empty_host_state(False)
        r0 = int(cols.host_row_start[h])
        r1 = int(cols.host_row_start[h + 1])
        sel = np.flatnonzero(cols.valid[r0:r1]) + r0
        if sel.size == 0:
            return _empty_host_state(True)
        return _HostState(
            up=True,
            slots=_EMPTY_I64,  # resolved by _add_host
            values=cols.values[sel].copy(),
            name_ids=cols.name_ids[sel].copy(),
            type_ids=cols.type_ids[sel].copy(),
            units_ids=cols.units_ids[sel].copy(),
            slope_ids=cols.slope_ids[sel].copy(),
        )

    @staticmethod
    def _states_equal(a: _HostState, b: _HostState) -> bool:
        """Whether two contributions match (key sets, then tuples)."""
        if a.up != b.up:
            return False
        if a.count() != b.count():
            return False
        if np.array_equal(a.name_ids, b.name_ids):
            # common case: same metrics in the same order
            return (
                np.array_equal(a.values, b.values)  # NaN -> not equal
                and np.array_equal(a.type_ids, b.type_ids)
                and np.array_equal(a.units_ids, b.units_ids)
                and np.array_equal(a.slope_ids, b.slope_ids)
            )
        # permuted order: the comparison is key-SET based
        index = {int(n): i for i, n in enumerate(a.name_ids)}
        for j, nid in enumerate(b.name_ids):
            i = index.pop(int(nid), None)
            if i is None:
                return False
            if (
                a.values[i] != b.values[j]  # NaN compares unequal: changed
                or a.type_ids[i] != b.type_ids[j]
                or a.units_ids[i] != b.units_ids[j]
                or a.slope_ids[i] != b.slope_ids[j]
            ):
                return False
        return not index

    # -- the public update -------------------------------------------------

    def update(self, cols: ColumnarCluster) -> Tuple[SummaryInfo, int]:
        """Fold a fresh columnar poll into the running summary.

        Returns ``(summary, ops)`` mirroring the signature of
        ``summarize_cluster`` -- ``ops`` counts only the samples of
        hosts that actually changed (the CPU charge), and the summary
        is an independent clone (the datastore may hold it across
        later updates).
        """
        self._sync_pool(cols.pool)
        up = cols.up_mask(self.heartbeat_window)
        ops = 0
        had = bool(self._hosts)

        prev = self._prev
        if (
            prev is not None
            and cols.same_layout(prev)
            and self._prev_up is not None
            and np.array_equal(up, self._prev_up)
        ):
            # fast path: identical structure and liveness -- changed
            # hosts fall out of one vectorized value comparison
            mask = cols.valid & up[cols.row_host]
            diff = mask & (cols.values != prev.values)  # NaN: changed
            if diff.any():
                changed = np.unique(cols.row_host[diff])
                for h in changed:  # ascending == document order
                    name = cols.host_names[h]
                    st = self._hosts[name]
                    ops += self._subtract_host(st)
                    fresh = self._fresh_state(cols, int(h), True)
                    ops += self._add_host(fresh) + 1
                    self._hosts[name] = fresh
        else:
            # removed hosts: subtract their stale contributions
            index = cols.host_index
            for name in list(self._hosts):
                if name not in index:
                    ops += self._subtract_host(self._hosts.pop(name)) + 1
            # changed or new hosts, in document order
            for h, name in enumerate(cols.host_names):
                fresh = self._fresh_state(cols, h, bool(up[h]))
                previous = self._hosts.get(name)
                if previous is not None and self._states_equal(
                    previous, fresh
                ):
                    continue  # untouched host: zero summarization work
                if previous is not None:
                    ops += self._subtract_host(previous)
                ops += self._add_host(fresh) + 1
                self._hosts[name] = fresh

        if had and not self._hosts:
            # contribution count drained to zero: rebuild exactly
            self._reset_accumulators()
            self.rebuilds += 1

        self._prev = cols
        self._prev_up = up
        return self._snapshot(), ops

    def _snapshot(self) -> SummaryInfo:
        pool = self._pool
        info = SummaryInfo(
            hosts_up=self._hosts_up, hosts_down=self._hosts_down
        )
        if pool is None:
            return info
        strings = pool.strings
        metrics = info.metrics
        table = self._slot_of_nid
        for nid in self._order:
            slot = int(table[nid])
            metrics[strings[nid]] = MetricSummary(
                name=strings[nid],
                total=float(self._tot[slot]),
                num=int(self._num[slot]),
                mtype=pool.mtype_at(int(self._tid[slot])),
                units=strings[int(self._uid[slot])],
                slope=pool.slope_at(int(self._sid[slot])),
            )
        return info

    def _reset_accumulators(self) -> None:
        self._hosts_up = 0
        self._hosts_down = 0
        self._size = 0
        self._free.clear()
        self._order.clear()
        if len(self._slot_of_nid):
            self._slot_of_nid[:] = -1

    def reset(self) -> None:
        """Forget all state (source removed or re-pointed)."""
        self._hosts.clear()
        self._reset_accumulators()
        self._prev = None
        self._prev_up = None
