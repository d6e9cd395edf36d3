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

Summary archives use host="__summary__" and two series per metric
(sum and num), matching "Nodes in the N-level monitoring tree keep only
summary archives of descendants rather than full duplicates".
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


class ColumnPlan:
    """A bound scatter target: one bank series per key, in key order.

    Built once per stable poll layout by :meth:`RrdStore.column_plan`;
    each poll then lands with a single :meth:`update` call.  Charges the
    same update count the per-key loop would (accounting parity).
    """

    __slots__ = ("store", "keys", "indices")

    def __init__(
        self, store: "RrdStore", keys: Sequence[MetricKey],
        indices: Optional["np.ndarray"],
    ) -> None:
        self.store = store
        self.keys = list(keys)
        self.indices = indices  # None in accounting mode

    def __len__(self) -> int:
        return len(self.keys)

    def update(self, t: float, values: "np.ndarray") -> None:
        """Apply one poll: ``values[j]`` is the sample for ``keys[j]``."""
        store = self.store
        n = len(self.keys)
        store.update_count += n
        if store.on_update is not None:
            store.on_update(n)
        if store.mode == "account":
            return
        store._bank.update_column(t, self.indices, values)


class RrdStore:
    """Creates series on demand and routes updates to them.

    Every series lives in one shared :class:`~repro.rrd.bank.SeriesBank`.
    A key's first write -- a scalar :meth:`update`, an
    :meth:`update_summary` or a :meth:`column_plan` bind -- allocates
    its bank slot, and every later write, scalar or scatter, lands in
    that slot.  :meth:`database` returns a :class:`BankSeriesView` with
    the read surface of a standalone
    :class:`~repro.rrd.database.RrdDatabase`.
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
        self._bank_keys_cache: List[MetricKey] = []
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

    def update(self, key: MetricKey, t: float, value: Optional[float]) -> None:
        """Route one sample to its series (creating it on first touch)."""
        self.update_count += 1
        if self.on_update is not None:
            self.on_update(1)
        if self.mode == "account":
            return
        self._bank.update_one(self._slot(key), t, value)

    def column_plan(self, keys: Sequence[MetricKey]) -> ColumnPlan:
        """Bind ``keys`` to bank series for vectorized scatter updates.

        In full mode each key gets (or keeps) its bank slot, so a series
        first written by scalar updates continues under the plan with
        one history.  In accounting mode the plan only counts.
        """
        if self.mode == "account":
            return ColumnPlan(self, keys, None)
        indices = np.fromiter(
            (self._slot(key) for key in keys), dtype=np.int64, count=len(keys)
        )
        return ColumnPlan(self, keys, indices)

    def update_columns(self, plan: ColumnPlan, t: float, values: "np.ndarray") -> None:
        """Apply one poll through a previously bound :class:`ColumnPlan`."""
        plan.update(t, values)

    def update_summary(
        self, source: str, cluster: str, metric: str, t: float,
        total: float, num: int,
    ) -> None:
        """Archive one summary reduction as its two component series."""
        base = MetricKey(source, cluster, SUMMARY_HOST, metric)
        self.update(base, t, total)
        self.update(
            MetricKey(source, cluster, SUMMARY_HOST, f"{metric}.num"),
            t,
            float(num),
        )

    def clone_series_from(self, key: MetricKey, src: "RrdStore") -> bool:
        """Replicate one series' full state from another store.

        The storage tier's repair/re-replication primitive: after the
        copy, this store answers ``fetch``/``latest``/``updates`` for
        ``key`` identically to ``src``.  Returns False when there is
        nothing to copy (unknown key, or either store only accounts).
        """
        if self.mode == "account" or src.mode == "account":
            return False
        src_i = src._bank_index.get(key)
        if src_i is None:
            return False
        self._bank.copy_series_from(src._bank, src_i, self._slot(key))
        return True

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

    def bank_series(self) -> Tuple[Optional[SeriesBank], List[MetricKey]]:
        """The shared bank and its index-ordered key list.

        ``keys[i]`` names bank column ``i`` -- the inverse of the
        key-to-index map, which the analytics stage needs to label the
        columns of :meth:`SeriesBank.window_matrix`.  Returns
        ``(None, [])`` in accounting mode.  Indices are allocated densely
        in insertion order and never reused, so the list is rebuilt only
        when series were added since the last call.
        """
        if len(self._bank_keys_cache) != len(self._bank_index):
            self._bank_keys_cache = list(self._bank_index)
        return self._bank, self._bank_keys_cache

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
