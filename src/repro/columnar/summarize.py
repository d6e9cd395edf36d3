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
  summarizer: it remembers each host's last contribution (as columns)
  and, per poll, subtracts the stale contribution of changed/removed
  hosts and adds the new one, so work scales with the k hosts that
  changed, not the H hosts in the cluster.  Tree-parsed polls reach it
  through :func:`repro.columnar.columns_from_cluster`.

The additive (SUM, NUM) reduction of §2.2 makes the tracker sound: NUM
is exact integer arithmetic, but naive ``total += / -=`` on SUM
accumulates rounding error across churn, and a sequence that drains a
metric back toward zero can leave a residue like ``-7.1e-15`` that the
4-decimal wire formatting renders as ``"-0"`` while an eager re-fold
serves ``"0"``.  Two mechanisms keep incremental totals wire-identical
to an eager re-fold:

- every accumulator uses **Neumaier-compensated** addition (a running
  compensation term recovers the low-order bits each naive add drops),
  held as parallel slot arrays.  A same-layout poll folds all its
  changed hosts in one batched pass: per slot, the hosts' subtracts and
  adds form one operation sequence, whose running sums are one
  ``np.add.accumulate`` (sequential, so bit-identical to adding them one
  by one) and whose compensation is a second accumulate over the
  per-step terms.  Polls that change layout or liveness, drain a
  metric's last reporter or backfill UNITS fold host by host;
- when a metric's reporter count drains to zero its slot is freed (an
  eager re-fold would not produce the metric at all), and when the
  source's host count drains to zero every accumulator is rebuilt from
  nothing -- exact zeros, no residue.
"""

from __future__ import annotations

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


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def _contributing(cols: ColumnarCluster, up: np.ndarray, h: int) -> np.ndarray:
    """The rows host ``h`` folds into the summary: its valid rows, if up."""
    if not up[h]:
        return _EMPTY_I64
    r0 = int(cols.host_row_start[h])
    r1 = int(cols.host_row_start[h + 1])
    return np.flatnonzero(cols.valid[r0:r1]) + r0


def _compensations(before: np.ndarray, after: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Neumaier's term for each step ``after = before + v``: the low-order
    bits the rounded add dropped."""
    return np.where(
        np.abs(before) >= np.abs(v), (before - after) + v, (v - after) + before
    )


class ColumnarSummaryTracker:
    """Running summary for one cluster source, updated by changed hosts.

    Accumulator state is a set of parallel *slot* arrays (Neumaier sum
    and compensation, exposed total, NUM, metadata ids); a slot is
    allocated when a metric gains its first reporter and freed when its
    reporter count drains to zero.  ``_order`` is the running summary's
    metric insertion order, so the serialized METRICS sequence is
    stable -- a sole-reporter metric that drains and is immediately
    re-added moves to the end.

    Host contributions are a column record, not per-host objects: the
    last installed poll, its liveness, and per row the value the sums
    hold for it (``_held``).  ``_held`` is rewritten only at changed
    hosts, so a ``0.0 -> -0.0`` flip that ``!=`` calls unchanged keeps
    the bits that were added.

    When consecutive polls share a layout (same hosts, same metric rows,
    same liveness -- the overwhelmingly common case), changed hosts fall
    out of one vectorized value comparison and are folded in one batched
    pass (:meth:`_fold_batch`).  Other polls, and the batch's two inexact
    cases (a metric losing its last reporter, a UNITS backfill), fold
    hosts one at a time; that path compares each host's contribution as
    a key *set* (order-insensitive).
    """

    def __init__(self, heartbeat_window: float = 80.0) -> None:
        self.heartbeat_window = heartbeat_window
        self._pool: Optional[InternPool] = None
        #: tracked host names in first-added order, the order removed
        #: hosts are subtracted in
        self._hosts: Dict[str, None] = {}
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
        #: per row of ``_prev``: the value the sums hold for it
        self._held = _EMPTY_F64
        #: diagnostic: how many times the drain-to-zero rebuild fired
        self.rebuilds = 0
        #: polls whose changed hosts were folded in one batched pass
        self.batched_polls = 0
        #: hosts folded one at a time (added, removed or replaced)
        self.host_passes = 0

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

    # -- one host's add/subtract --------------------------------------------

    def _step(self, slots: np.ndarray, v: np.ndarray) -> None:
        """One compensated add of ``v`` into distinct ``slots``."""
        s = self._sum[slots]
        t = s + v
        self._comp[slots] += _compensations(s, t, v)
        self._sum[slots] = t
        self._tot[slots] = t + self._comp[slots]

    def _subtract(self, nids: np.ndarray, values: np.ndarray) -> None:
        """Take one host's held contribution out (its metrics, one each)."""
        if nids.size == 0:
            return
        slots = self._slot_of_nid[nids]
        self._num[slots] -= 1
        drained = self._num[slots] == 0
        live = ~drained
        if live.any():
            self._step(slots[live], -values[live])
        if drained.any():
            # last reporter left: drop the reduction and free its slot
            # (an eager re-fold would simply not produce the metric)
            dn = nids[drained]
            order = self._order
            for nid in dn:
                del order[int(nid)]
            self._slot_of_nid[dn] = -1
            self._free.extend(int(s) for s in slots[drained])

    def _add(self, cols: ColumnarCluster, rows: np.ndarray) -> None:
        """Fold one host's contributing ``rows`` of ``cols`` in."""
        if rows.size == 0:
            return
        nids = cols.name_ids[rows]
        slots = self._slot_of_nid[nids]
        missing = slots < 0
        if missing.any():
            new_nids = nids[missing]
            new_rows = rows[missing]
            new_slots = self._alloc(int(missing.sum()))
            self._slot_of_nid[new_nids] = new_slots
            v = cols.values[new_rows]
            self._sum[new_slots] = v
            self._comp[new_slots] = 0.0
            self._tot[new_slots] = v  # first value verbatim
            self._num[new_slots] = 1
            self._tid[new_slots] = cols.type_ids[new_rows]
            self._uid[new_slots] = cols.units_ids[new_rows]
            self._sid[new_slots] = cols.slope_ids[new_rows]
            order = self._order
            for nid in new_nids:  # document order == insertion order
                order[int(nid)] = None
        existing = ~missing
        if existing.any():
            ls = slots[existing]
            rows = rows[existing]
            self._step(ls, cols.values[rows])
            self._num[ls] += 1
            u = self._uid[ls]
            backfill = u == self._pool.empty_id
            if backfill.any():
                u[backfill] = cols.units_ids[rows][backfill]
                self._uid[ls] = u

    # -- the batched pass --------------------------------------------------

    def _fold_batch(
        self, slots: np.ndarray, old: np.ndarray, new: np.ndarray
    ) -> None:
        """Apply every changed host's subtract-then-add in one pass.

        Row ``i`` takes ``old[i]`` out of ``slots[i]`` and puts ``new[i]``
        in; rows come in ascending host order and no slot drains.  Per
        slot that is the per-host loop's operation sequence, and each of
        its steps is exact to batch: Neumaier's running sum is plain
        sequential float addition, which ``np.add.accumulate`` computes
        bit for bit along an axis (``reduce`` is pairwise, accumulate is
        not); each compensation term depends only on two consecutive
        partial sums and the operand; and the compensation is a second
        accumulate seeded with the slot's current one.  Slots are
        bucketed by run length, so the scratch stays O(rows).
        """
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        starts = np.flatnonzero(np.diff(slots, prepend=-1))
        runs = np.diff(starts, append=slots.size)
        for run in np.unique(runs).tolist():
            first = starts[runs == run]
            pick = order[(first[:, None] + np.arange(run)).ravel()]
            s = slots[first]
            m = first.size
            seq = np.empty((m, 2 * run + 1), dtype=np.float64)
            seq[:, 0] = self._sum[s]
            seq[:, 1::2] = -old[pick].reshape(m, run)
            seq[:, 2::2] = new[pick].reshape(m, run)
            part = np.add.accumulate(seq, axis=1)
            terms = _compensations(part[:, :-1], part[:, 1:], seq[:, 1:])
            seq[:, 0] = self._comp[s]
            seq[:, 1:] = terms
            comp = np.add.accumulate(seq, axis=1)[:, -1]
            total = part[:, -1]
            self._sum[s] = total
            self._comp[s] = comp
            self._tot[s] = total + comp

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
        had = bool(self._hosts)

        prev = self._prev
        if (
            prev is not None
            and cols.same_layout(prev)
            and np.array_equal(up, self._prev_up)
        ):
            ops = self._fold_same_layout(cols, up)
        else:
            ops = self._fold_per_host(cols, up)

        if had and not self._hosts:
            # contribution count drained to zero: rebuild exactly
            self._reset_accumulators()
            self.rebuilds += 1

        self._hosts_up = int(np.count_nonzero(up))
        self._hosts_down = cols.host_count - self._hosts_up
        self._prev = cols
        self._prev_up = up
        return self._snapshot(), ops

    def _fold_same_layout(self, cols: ColumnarCluster, up: np.ndarray) -> int:
        """A poll with the previous one's layout and liveness."""
        mask = cols.valid & up[cols.row_host]
        diff = mask & (cols.values != self._held)  # NaN: changed
        if not diff.any():
            return 0
        changed = np.zeros(cols.host_count, dtype=bool)
        changed[cols.row_host[diff]] = True
        rows = np.flatnonzero(mask & changed[cols.row_host])
        slots = self._slot_of_nid[cols.name_ids[rows]]
        empty = self._pool.empty_id
        if (self._num[slots] == 1).any() or (
            (self._uid[slots] == empty) & (cols.units_ids[rows] != empty)
        ).any():
            # a drain or a backfill is inexact to batch: fold host by host
            hosts = np.flatnonzero(changed).tolist()
            for h in hosts:  # ascending == document order
                host_rows = _contributing(cols, up, h)
                self._subtract(cols.name_ids[host_rows], self._held[host_rows])
                self._add(cols, host_rows)
            self.host_passes += len(hosts)
        else:
            self._fold_batch(slots, self._held[rows], cols.values[rows])
            self.batched_polls += 1
        self._held[rows] = cols.values[rows]
        return 2 * int(rows.size) + int(np.count_nonzero(changed))

    def _fold_per_host(self, cols: ColumnarCluster, up: np.ndarray) -> int:
        """Any other poll: compare and fold each host on its own."""
        prev = self._prev
        prev_up = self._prev_up
        prev_index = prev.host_index if prev is not None else {}
        index = cols.host_index
        ops = 0
        passes = 0
        # removed hosts: subtract their held contributions
        for name in list(self._hosts):
            if name not in index:
                rows = _contributing(prev, prev_up, prev_index[name])
                self._subtract(prev.name_ids[rows], self._held[rows])
                del self._hosts[name]
                ops += int(rows.size) + 1
                passes += 1
        # changed or new hosts, in document order
        held = cols.values.copy()
        for h, name in enumerate(cols.host_names):
            rows = _contributing(cols, up, h)
            p = prev_index.get(name)
            if p is None:
                self._hosts[name] = None
            else:
                old_rows = _contributing(prev, prev_up, p)
                if self._keep(old_rows, bool(prev_up[p]), cols, rows, bool(up[h]), held):
                    continue  # untouched host: zero summarization work
                self._subtract(prev.name_ids[old_rows], self._held[old_rows])
                ops += int(old_rows.size)
            self._add(cols, rows)
            ops += int(rows.size) + 1
            passes += 1
        self._held = held
        self.host_passes += passes
        return ops

    def _keep(
        self,
        old_rows: np.ndarray,
        old_up: bool,
        cols: ColumnarCluster,
        rows: np.ndarray,
        up: bool,
        held: np.ndarray,
    ) -> bool:
        """Whether a host's contribution is unchanged (key sets, then
        values and metadata); if so its held values move to ``rows`` of
        ``held``, bit for bit."""
        if old_up != up or old_rows.size != rows.size:
            return False
        prev = self._prev
        a = prev.name_ids[old_rows]
        b = cols.name_ids[rows]
        if not np.array_equal(a, b):
            # permuted order: the comparison is key-SET based (a host's
            # metric names are unique)
            ia = np.argsort(a, kind="stable")
            ib = np.argsort(b, kind="stable")
            if not np.array_equal(a[ia], b[ib]):
                return False
            old_rows = old_rows[ia]
            rows = rows[ib]
        values = self._held[old_rows]
        if not (
            np.array_equal(values, cols.values[rows])  # NaN -> not equal
            and np.array_equal(prev.type_ids[old_rows], cols.type_ids[rows])
            and np.array_equal(prev.units_ids[old_rows], cols.units_ids[rows])
            and np.array_equal(prev.slope_ids[old_rows], cols.slope_ids[rows])
        ):
            return False
        held[rows] = values
        return True

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
        self._held = _EMPTY_F64
