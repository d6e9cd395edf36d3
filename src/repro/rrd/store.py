"""The per-gmetad archive store: one RRD per (source, cluster, host, metric).

Two modes:

- ``mode="full"`` keeps every series as a column of one
  :class:`~repro.rrd.bank.SeriesBank`, each value-identical to a
  standalone :class:`~repro.rrd.database.RrdDatabase` fed the same
  samples -- used by tests, examples and the forensics workflows.
- ``mode="account"`` counts updates without allocating arrays -- used by
  the Figure 5/6 scaling experiments, where only the *CPU cost* of
  archiving matters (the paper puts archives on tmpfs for the same
  reason: isolate CPU from I/O).  The update-counting is exact, so the
  charged work is identical to full mode.

Every write is a :class:`ColumnPlan` scatter: :meth:`RrdStore.column_plan`
binds a poll layout's keys to their series once, and each poll lands
with one :meth:`RrdStore.update_columns` call.  Summary archives use
host="__summary__" and two series per metric (sum and num), matching
"Nodes in the N-level monitoring tree keep only summary archives of
descendants rather than full duplicates".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rrd.bank import SeriesBank
from repro.rrd.database import RraSpec

#: Pseudo-host name under which cluster/grid summaries are archived.
SUMMARY_HOST = "__summary__"


@dataclass(frozen=True, order=True)
class MetricKey:
    """Identifies one archived time series."""

    source: str   # data source (cluster or grid) name
    cluster: str  # cluster name ("" for grid-level summaries)
    host: str     # host name, or SUMMARY_HOST
    metric: str   # metric name, possibly suffixed ".sum" / ".num"

    def __str__(self) -> str:
        return f"{self.source}/{self.cluster}/{self.host}/{self.metric}"


def distinct_keys(
    keys: Sequence[MetricKey],
) -> Tuple[List[MetricKey], Optional["np.ndarray"]]:
    """Each key once, in first-sight order, and where its value sits.

    A poll layout can name one series twice (a summary metric ``x.num``
    beside the NUM series of ``x``).  The key binds once and its last
    occurrence's value lands; ``select`` picks those positions out of a
    poll's values, and is ``None`` when no key repeats.
    """
    last = {key: j for j, key in enumerate(keys)}
    if len(last) == len(keys):
        return list(keys), None
    return list(last), np.fromiter(last.values(), dtype=np.int64, count=len(last))


class ColumnPlan:
    """A bound scatter target: one bank series per distinct key.

    Built once per stable poll layout by :meth:`RrdStore.column_plan`;
    each poll then lands with a single :meth:`update` call, charging one
    update per distinct key (accounting parity).
    """

    __slots__ = ("store", "keys", "indices", "select")

    def __init__(
        self, store: "RrdStore", keys: Sequence[MetricKey],
        indices: Optional["np.ndarray"], select: Optional["np.ndarray"],
    ) -> None:
        self.store = store
        self.keys = list(keys)
        self.indices = indices  # None in accounting mode
        self.select = select  # see distinct_keys

    def __len__(self) -> int:
        return len(self.keys)

    def update(self, t: float, values: "np.ndarray") -> None:
        """Apply one poll: ``values[j]`` is the sample for the ``j``-th
        key the plan was bound over."""
        store = self.store
        n = len(self.keys)
        store.update_count += n
        if store.on_update is not None:
            store.on_update(n)
        if store.mode == "account":
            return
        if self.select is not None:
            values = values[self.select]
        store._bank.update_column(t, self.indices, values)


class RrdStore:
    """Creates series on demand and routes updates to them.

    Every series lives in one shared :class:`~repro.rrd.bank.SeriesBank`.
    A key's first :meth:`column_plan` bind allocates its bank slot, and
    every later plan that names the key writes to that slot.
    :meth:`database` returns a :class:`BankSeriesView` with the read
    surface of a standalone :class:`~repro.rrd.database.RrdDatabase`.
    """

    def __init__(
        self,
        mode: str = "full",
        step: float = 15.0,
        rra_specs: Optional[Sequence[RraSpec]] = None,
        downtime_fill: str = "zero",
        on_update: Optional[Callable[[int], None]] = None,
    ) -> None:
        if mode not in ("full", "account"):
            raise ValueError(f"mode must be 'full' or 'account', got {mode!r}")
        self.mode = mode
        self.step = step
        self.rra_specs = list(rra_specs) if rra_specs is not None else None
        self.downtime_fill = downtime_fill
        self.on_update = on_update
        self._bank: Optional[SeriesBank] = (
            SeriesBank(
                step=step, rra_specs=self.rra_specs, downtime_fill=downtime_fill
            )
            if mode == "full"
            else None
        )
        #: key -> bank index; insertion order is index order
        self._bank_index: Dict[MetricKey, int] = {}
        #: (stamp, keys, bank columns) of the last window readout
        self._readout: Tuple = (None, [], None)
        self.update_count = 0
        self.create_count = 0

    # -- writing -----------------------------------------------------------

    def _slot(self, key: MetricKey) -> int:
        """The bank index of ``key``, allocated on first touch."""
        i = self._bank_index.get(key)
        if i is None:
            i = self._bank.add_series(1)
            self._bank_index[key] = i
            self.create_count += 1
        return i

    def column_plan(self, keys: Sequence[MetricKey]) -> ColumnPlan:
        """Bind ``keys`` to bank series for vectorized scatter updates.

        In full mode each key gets (or keeps) its bank slot, so a series
        bound again by a later layout's plan continues with one history.
        A repeated key binds once (:func:`distinct_keys`).  In
        accounting mode the plan only counts.
        """
        keys, select = distinct_keys(keys)
        if self.mode == "account":
            return ColumnPlan(self, keys, None, select)
        indices = np.fromiter(
            (self._slot(key) for key in keys), dtype=np.int64, count=len(keys)
        )
        return ColumnPlan(self, keys, indices, select)

    def update_columns(self, plan: ColumnPlan, t: float, values: "np.ndarray") -> None:
        """Apply one poll through a previously bound :class:`ColumnPlan`."""
        plan.update(t, values)

    def copy_series_from(self, src: "RrdStore", keys: Sequence[MetricKey]) -> None:
        """Replicate the full state of ``keys`` from another store.

        The storage tier's replica-sync primitive, one bank-block copy:
        afterwards this store answers ``fetch``/``latest``/``updates``
        for every copied key identically to ``src``.  Keys ``src`` does
        not hold are skipped; an accounting store on either side copies
        nothing.
        """
        if self.mode == "account" or src.mode == "account":
            return
        src_idx = src.slots(keys)
        held = src_idx >= 0
        dst_idx = np.fromiter(
            (self._slot(key) for key, h in zip(keys, held) if h),
            dtype=np.int64, count=int(held.sum()),
        )
        self._bank.copy_columns_from(src._bank, src_idx[held], dst_idx)

    # -- reading -----------------------------------------------------------

    def database(self, key: MetricKey) -> Optional["BankSeriesView"]:
        """The series for a key, or None if never written (full mode).

        A :class:`BankSeriesView`: ``fetch``, ``latest``, ``flush``,
        ``updates`` and ``last_update_time``, as on a standalone database.
        """
        if self.mode == "account":
            raise RuntimeError("accounting-mode store keeps no databases")
        i = self._bank_index.get(key)
        return None if i is None else BankSeriesView(self._bank, i)

    def window_readout(
        self, k: int, skip_source: Optional[str] = None
    ) -> Tuple[List[MetricKey], "np.ndarray", float, "np.ndarray"]:
        """The last ``k`` finest rows of every series, in one bank gather.

        Returns ``(keys, values, row_seconds, end_times)``: column ``j``
        of the ``(k, len(keys))`` matrix ``values`` holds ``keys[j]``'s
        rows as :meth:`SeriesBank.window_matrix` lays them out, and
        ``end_times[j]`` is the end time of its newest closed row
        (negative when it has none).  Series of source ``skip_source``
        are left out; an accounting store reads no series.  This is the
        analytics stage's one readout call --
        :class:`~repro.storage.tier.StorageTier` answers it too.
        """
        if self.mode == "account":
            return [], np.full((k, 0), np.nan), self.step, np.zeros(0)
        stamp = (len(self._bank_index), skip_source)
        if self._readout[0] != stamp:
            keys = [key for key in self._bank_index if key.source != skip_source]
            self._readout = (stamp, keys, self.slots(keys))
        _, keys, cols = self._readout
        return (keys, *self.window_columns(k, cols))

    def slots(self, keys: Sequence[MetricKey]) -> "np.ndarray":
        """Each key's bank index; -1 where the store holds no such series."""
        get = self._bank_index.get
        return np.fromiter(
            (get(key, -1) for key in keys), dtype=np.int64, count=len(keys)
        )

    def window_columns(
        self, k: int, cols: "np.ndarray"
    ) -> Tuple["np.ndarray", float, "np.ndarray"]:
        """``(values, row_seconds, end_times)`` of bank columns ``cols``."""
        values, _, row_seconds, last_end = self._bank.window_matrix(k, cols)
        return values, row_seconds, last_end * self._bank.step

    def keys(self) -> List[MetricKey]:
        """Every archived series key, sorted."""
        return sorted(self._bank_index)

    def keys_for_host(self, source: str, cluster: str, host: str) -> List[MetricKey]:
        """All series keys for one (source, cluster, host)."""
        return sorted(
            k
            for k in self._bank_index
            if k.source == source and k.cluster == cluster and k.host == host
        )

    def fetch_series(
        self, key: MetricKey, start: float, end: float
    ) -> Tuple["np.ndarray", "np.ndarray", float]:
        """Fetch one series' history."""
        series = self.database(key)
        if series is None:
            raise KeyError(f"no archive for {key}")
        return series.fetch(start, end)

    def __len__(self) -> int:
        return len(self._bank_index)


class BankSeriesView:
    """Read/maintenance adapter giving one bank series the database API."""

    __slots__ = ("bank", "index")

    def __init__(self, bank: "SeriesBank", index: int) -> None:
        self.bank = bank
        self.index = index

    @property
    def step(self) -> float:
        return self.bank.step

    @property
    def updates(self) -> int:
        return self.bank.updates_of(self.index)

    @property
    def last_update_time(self) -> Optional[float]:
        return self.bank.last_update_time_of(self.index)

    def update(self, t: float, value: Optional[float]) -> None:
        self.bank.update_one(self.index, t, value)

    def flush(self, now: float) -> None:
        self.bank.flush_one(self.index, now)

    def fetch(self, start: float, end: float):
        return self.bank.fetch(self.index, start, end)

    def latest(self) -> Optional[float]:
        return self.bank.latest(self.index)
