"""The batched summary tracker, held to the host-by-host loop it replaced.

:class:`ColumnarSummaryTracker` folds a same-layout poll's changed hosts
in one batched pass (running sums and compensations as ``np.add.accumulate``
along each slot's operation sequence) and keeps host contributions as a
column record.  The oracle below is the tracker as it was before: one
``_HostState`` per host, each changed host subtracted and re-added on
its own.  Hypothesis drives both over the same polls -- same-layout
churn at every rate, NaN, infinite and unparseable VALs, ``0``/``-0``
flips, sole-reporter metrics draining and coming back, UNITS backfill,
hosts going down, up, in and out, permuted metric and host order, drains
to empty and ``reset()`` -- and after every poll the two summaries must
match bit for bit: totals by ``float.hex``, NUM, TYPE/UNITS/SLOPE,
metric order, host counts, ``ops`` and ``rebuilds``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.columnar import ColumnarSummaryTracker, InternPool, columns_from_cluster
from repro.columnar.layout import ColumnarCluster
from repro.metrics.catalog import Slope
from repro.metrics.types import MetricType
from repro.wire.model import (
    ClusterElement,
    HostElement,
    MetricElement,
    MetricSummary,
    SummaryInfo,
)

WINDOW = 80.0

# NaN and infinite VALs make both trackers' compensation arithmetic warn
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


# -- the oracle: the host-by-host tracker, as it was -------------------------

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


class HostLoopTracker:
    """Running summary for one cluster source, updated host-by-host (oracle).

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


# -- the polls ---------------------------------------------------------------

#: the metrics every host reports, with one set of metadata each
SHARED = (
    ("m0", MetricType.FLOAT, "%", Slope.BOTH),
    ("m1", MetricType.DOUBLE, "B", Slope.BOTH),
    ("m2", MetricType.UINT32, "", Slope.ZERO),
    ("m3", MetricType.FLOAT, "s", Slope.POSITIVE),
    ("label", MetricType.STRING, "", Slope.ZERO),
)
#: magnitudes far enough apart that every add rounds, and the
#: compensation carries bits the running sum cannot
MAGNITUDES = (1e-3, 0.5, 7.0, 1e3, 1e8, 1e15, 1e16, 1e17)


def number(rng: random.Random, scale: Optional[float] = None) -> str:
    """A finite VAL: mostly floats of ``scale`` (by default any of
    :data:`MAGNITUDES`), sometimes a signed zero."""
    if rng.random() < 0.1:
        return rng.choice(("0", "-0", "0.0", "-0.0"))
    return repr(rng.uniform(-1.0, 1.0) * (scale or rng.choice(MAGNITUDES)))


@dataclass
class Row:
    val: str
    mtype: MetricType
    units: str
    slope: Slope


@dataclass
class Host:
    up: bool
    rows: Dict[str, Row]


def as_summary(result: Tuple[SummaryInfo, int]) -> tuple:
    """Everything a poll's result shows, totals by their exact bits."""
    info, ops = result
    return (
        ops,
        info.hosts_up,
        info.hosts_down,
        [
            (name, float.hex(m.total), m.num, m.mtype, m.units, m.slope)
            for name, m in info.metrics.items()
        ],
    )


class TrackerMachine(RuleBasedStateMachine):
    """Feed the batched tracker and the host loop the same polls."""

    def __init__(self) -> None:
        super().__init__()
        self.pool = InternPool()
        self.ours = ColumnarSummaryTracker(WINDOW)
        self.oracle = HostLoopTracker(WINDOW)
        self.hosts: Dict[str, Host] = {}
        self.made = 0
        self.polls = 0

    # -- model helpers -----------------------------------------------------

    def new_host(self, rng: random.Random) -> Tuple[str, Host]:
        self.made += 1
        rows = {
            name: Row(
                "up" if mtype is MetricType.STRING else number(rng),
                mtype, units, slope,
            )
            for name, mtype, units, slope in SHARED
        }
        return f"h{self.made}", Host(True, rows)

    def numeric_rows(self, host: Host) -> List[Row]:
        return [r for r in host.rows.values() if r.mtype.is_numeric]

    def pick(self, seed: int) -> Optional[Host]:
        if not self.hosts:
            return None
        return random.Random(seed).choice(list(self.hosts.values()))

    def poll(self) -> None:
        cluster = ClusterElement(name="c", localtime=100.0)
        for name, host in self.hosts.items():
            element = HostElement(name=name, tn=1.0 if host.up else 1000.0)
            for metric, row in host.rows.items():
                element.add_metric(
                    MetricElement(metric, row.val, row.mtype, row.units, slope=row.slope)
                )
            cluster.add_host(element)
        cols = columns_from_cluster(cluster, self.pool)
        ours = as_summary(self.ours.update(cols))
        oracle = as_summary(self.oracle.update(cols))
        assert ours == oracle
        assert self.ours.rebuilds == self.oracle.rebuilds
        self.polls += 1

    # -- steps -------------------------------------------------------------

    @initialize(count=st.integers(0, 8), seed=st.integers(0, 2**16))
    def start(self, count: int, seed: int) -> None:
        rng = random.Random(seed)
        self.hosts = dict(self.new_host(rng) for _ in range(count))
        self.poll()

    @rule(
        rate=st.one_of(st.sampled_from((0.0, 0.1, 0.5, 1.0)), st.floats(0.0, 1.0)),
        scale=st.one_of(st.none(), st.sampled_from(MAGNITUDES)),
        seed=st.integers(0, 2**16),
    )
    def churn(self, rate: float, scale: Optional[float], seed: int) -> None:
        """A same-layout poll: new finite values on a share of hosts.

        A churn at one scale after another leaves each sum small next
        to the rounding it went through, so the compensation's own
        bits show in the total."""
        rng = random.Random(seed)
        for host in self.hosts.values():
            if rng.random() < rate:
                for row in self.numeric_rows(host):
                    if row.val not in ("junk", "nan", "inf", "-inf", ""):
                        row.val = number(rng, scale)
        self.poll()

    @rule(seed=st.integers(0, 2**16))
    def flip_zeros(self, seed: int) -> None:
        """Zeros whose sign flips: ``!=`` calls them unchanged."""
        rng = random.Random(seed)
        for host in self.hosts.values():
            for row in self.numeric_rows(host):
                if row.val in ("0", "0.0"):
                    row.val = "-0"
                elif row.val in ("-0", "-0.0"):
                    row.val = "0.0"
                elif rng.random() < 0.2:
                    row.val = rng.choice(("0", "-0"))
        self.poll()

    @rule(
        seed=st.integers(0, 2**16),
        val=st.sampled_from(("nan", "inf", "-inf", "junk", "")),
    )
    def special(self, seed: int, val: str) -> None:
        """One VAL turns NaN, infinite or unparseable (or back)."""
        host = self.pick(seed)
        if host is not None:
            row = random.Random(seed).choice(self.numeric_rows(host))
            row.val = val if row.val != val else "1.5"
        self.poll()

    @rule(seed=st.integers(0, 2**16))
    def clear_specials(self, seed: int) -> None:
        rng = random.Random(seed)
        for host in self.hosts.values():
            for row in self.numeric_rows(host):
                if row.val in ("nan", "inf", "-inf", "junk", ""):
                    row.val = number(rng)
        self.poll()

    @rule(seed=st.integers(0, 2**16), mtype=st.sampled_from(
        (MetricType.FLOAT, MetricType.UINT16, MetricType.STRING)))
    def sole_reporter(self, seed: int, mtype: MetricType) -> None:
        """A metric only one host reports appears, or leaves."""
        host = self.pick(seed)
        if host is not None:
            if "solo" in host.rows:
                del host.rows["solo"]
            else:
                rng = random.Random(seed)
                host.rows["solo"] = Row(number(rng), mtype, rng.choice(("", "J")), Slope.BOTH)
        self.poll()

    @rule(seed=st.integers(0, 2**16))
    def backfill(self, seed: int) -> None:
        """A metric whose first reporter has no UNITS, or it leaves."""
        rng = random.Random(seed)
        if any("bf" in host.rows for host in self.hosts.values()):
            for host in self.hosts.values():
                host.rows.pop("bf", None)
        else:
            for i, host in enumerate(self.hosts.values()):
                if rng.random() < 0.7:
                    units = "" if i == 0 or rng.random() < 0.3 else "W"
                    host.rows["bf"] = Row(number(rng), MetricType.FLOAT, units, Slope.BOTH)
        self.poll()

    @rule(seed=st.integers(0, 2**16))
    def toggle(self, seed: int) -> None:
        """A host goes down (its values stop counting) or comes back."""
        host = self.pick(seed)
        if host is not None:
            host.up = not host.up
        self.poll()

    @rule(seed=st.integers(0, 2**16))
    def add_host(self, seed: int) -> None:
        rng = random.Random(seed)
        items = list(self.hosts.items())
        items.insert(rng.randint(0, len(items)), self.new_host(rng))
        self.hosts = dict(items)
        self.poll()

    @rule(seed=st.integers(0, 2**16), count=st.integers(1, 4))
    def remove_hosts(self, seed: int, count: int) -> None:
        rng = random.Random(seed)
        for name in rng.sample(list(self.hosts), min(count, len(self.hosts))):
            del self.hosts[name]
        self.poll()

    @rule(seed=st.integers(0, 2**16))
    def permute_metrics(self, seed: int) -> None:
        """One host reports its metrics in another order, same values."""
        host = self.pick(seed)
        if host is not None:
            items = list(host.rows.items())
            random.Random(seed).shuffle(items)
            host.rows = dict(items)
        self.poll()

    @rule(seed=st.integers(0, 2**16))
    def shuffle_hosts(self, seed: int) -> None:
        items = list(self.hosts.items())
        random.Random(seed).shuffle(items)
        self.hosts = dict(items)
        self.poll()

    @rule(seed=st.integers(0, 2**16))
    def restate(self, seed: int) -> None:
        """A host changes a metric's SLOPE or UNITS: a layout change."""
        host = self.pick(seed)
        if host is not None:
            row = random.Random(seed).choice(self.numeric_rows(host))
            if row.slope is Slope.BOTH:
                row.slope = Slope.ZERO
            else:
                row.units = row.units + "x"
        self.poll()

    @rule()
    def drain(self) -> None:
        """Every host leaves: the accumulators rebuild from nothing."""
        self.hosts = {}
        self.poll()

    @rule()
    def reset(self) -> None:
        self.ours.reset()
        self.oracle.reset()
        self.poll()



TrackerMachine.TestCase.settings = settings(stateful_step_count=40, deadline=None)
TestTrackerDifferential = TrackerMachine.TestCase


# -- the identity the batch rests on, and the routes it takes ---------------


def test_accumulate_is_the_sequential_fold() -> None:
    """``np.add.accumulate`` along either axis of a 2-D float64 array is
    the left-to-right scalar loop, bit for bit (``reduce`` is pairwise)."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 301)) * 10.0 ** rng.integers(-8, 17, size=(5, 301))
    rows = np.add.accumulate(a, axis=1)
    cols = np.add.accumulate(a.T.copy(), axis=0).T
    for i in range(a.shape[0]):
        s = a[i, 0]
        for j in range(1, a.shape[1]):
            s = s + a[i, j]
            assert s.hex() == float(rows[i, j]).hex() == float(cols[i, j]).hex()


def _cluster(values: Dict[str, List[str]], units: str = "B") -> ClusterElement:
    cluster = ClusterElement(name="c", localtime=100.0)
    for name, vals in values.items():
        host = HostElement(name=name, tn=1.0)
        for i, val in enumerate(vals):
            host.add_metric(MetricElement(f"m{i}", val, MetricType.FLOAT, units))
        cluster.add_host(host)
    return cluster


def test_same_layout_churn_takes_the_batch() -> None:
    pool = InternPool()
    ours, oracle = ColumnarSummaryTracker(WINDOW), HostLoopTracker(WINDOW)
    rng = random.Random(3)
    for poll in range(4):
        cols = columns_from_cluster(
            _cluster({f"h{h}": [number(rng) for _ in range(3)] for h in range(6)}),
            pool,
        )
        assert as_summary(ours.update(cols)) == as_summary(oracle.update(cols))
    # the first poll adds six hosts one at a time; the other three batch
    assert (ours.batched_polls, ours.host_passes) == (3, 6)


def test_a_draining_metric_folds_host_by_host() -> None:
    pool = InternPool()
    ours, oracle = ColumnarSummaryTracker(WINDOW), HostLoopTracker(WINDOW)
    for poll in range(3):
        values = {"h0": ["1.5", "2"], "h1": ["2.5"], "h2": ["3.5"]}
        values["h0"][1] = str(poll)  # m1: h0 is its only reporter
        values["h1"][0] = str(poll + 0.25)
        cols = columns_from_cluster(_cluster(values), pool)
        assert as_summary(ours.update(cols)) == as_summary(oracle.update(cols))
    assert ours.batched_polls == 0
    assert ours.host_passes == 3 + 2 + 2
