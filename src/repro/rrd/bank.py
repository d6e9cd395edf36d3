"""A bank of RRD series updated by vectorized column scatter.

One :class:`SeriesBank` holds the per-series step clocks, PDP
accumulators and ring buffers for *many* metric series that share a step
and RRA ladder -- every series one :class:`~repro.rrd.store.RrdStore`
archives.  Where
:class:`~repro.rrd.database.RrdDatabase` pays Python call dispatch and
step bookkeeping per metric per poll, the bank applies a whole poll as a
handful of array operations (§4: "gmetad can manipulate its RRD
databases in a more efficient manner").

The trick that makes the hot path branch-free: in the steady state every
series in a poll is exactly one step behind the incoming sample, so
finalizing their PDPs, consolidating them into the row accumulators and
closing rows (when the step grid says so -- rows are aligned to the
absolute grid, identically for every series) are uniform vector ops over
the whole cohort.  Series that are further behind (a host rejoining
after downtime) drop to a per-series scalar path that mirrors
``RrdDatabase.update`` -- including ``push_fill``'s partial/bulk/partial
row structure -- so the archived rows are value-identical to what a
standalone ``RrdDatabase`` would hold.  A one-series write through the
database view (:meth:`SeriesBank.update_one`) takes that same
per-series path.

Ring positions are derived from the absolute step grid
(``(end_step // pdp_per_row - 1) % rows``), so no per-series head
pointer exists; physical slot layout differs from the scalar archive's
(which starts every series at slot 0) but all reads reconstruct rows
from ``last_row_end``/``rows_written``, making the layout unobservable.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rrd.consolidate import ConsolidationFunction
from repro.rrd.database import RraSpec, default_rra_specs

#: per-series step clock and PDP accumulator (``SeriesBank._<name>``)
_CLOCK_FIELDS = ("started", "cur_step", "pdp_sum", "pdp_count", "last_t", "updates")


class _BankRra:
    """One RRA ladder rung, vectorized across all series in the bank."""

    __slots__ = (
        "cf",
        "pdp_per_row",
        "rows",
        "xff",
        "values",
        "rows_written",
        "last_row_end",
        "acc_total",
        "acc_known",
        "acc_sum",
        "acc_min",
        "acc_max",
        "acc_last",
        "acc_last_known",
    )

    def __init__(self, spec: RraSpec, capacity: int) -> None:
        self.cf = spec.cf
        self.pdp_per_row = spec.pdp_per_row
        self.rows = spec.rows
        self.xff = spec.xff
        self.values = np.full((spec.rows, capacity), np.nan)
        self.rows_written = np.zeros(capacity, dtype=np.int64)
        self.last_row_end = np.full(capacity, -1, dtype=np.int64)  # -1: none
        self.acc_total = np.zeros(capacity, dtype=np.int64)
        self.acc_known = np.zeros(capacity, dtype=np.int64)
        self.acc_sum = np.zeros(capacity)
        self.acc_min = np.full(capacity, np.inf)
        self.acc_max = np.full(capacity, -np.inf)
        self.acc_last = np.full(capacity, np.nan)
        self.acc_last_known = np.zeros(capacity, dtype=bool)

    def grow(self, capacity: int) -> None:
        old = self.values.shape[1]
        if capacity <= old:
            return
        for name in self.__slots__[4:]:
            arr = getattr(self, name)
            if arr.ndim == 2:
                fresh = np.full((self.rows, capacity), np.nan)
                fresh[:, :old] = arr
            else:
                fill = {
                    "rows_written": 0,
                    "last_row_end": -1,
                    "acc_total": 0,
                    "acc_known": 0,
                    "acc_sum": 0.0,
                    "acc_min": np.inf,
                    "acc_max": -np.inf,
                    "acc_last": np.nan,
                    "acc_last_known": False,
                }[name]
                fresh = np.full(capacity, fill, dtype=arr.dtype)
                fresh[:old] = arr
            setattr(self, name, fresh)

    # -- vectorized cohort operations ---------------------------------------

    def add_pdp_cohort(self, idx: np.ndarray, pdp: np.ndarray, step: int) -> None:
        """``push_pdp(pdp, step)`` for every series in ``idx`` at once."""
        self.acc_total[idx] += 1
        known = ~np.isnan(pdp)
        ik = idx[known]
        if ik.size:
            pk = pdp[known]
            self.acc_known[ik] += 1
            self.acc_sum[ik] += pk
            self.acc_min[ik] = np.minimum(self.acc_min[ik], pk)
            self.acc_max[ik] = np.maximum(self.acc_max[ik], pk)
            self.acc_last[ik] = pk
            self.acc_last_known[ik] = True
        if (step + 1) % self.pdp_per_row == 0:
            self._close_rows(idx, step + 1)

    def _close_rows(self, idx: np.ndarray, end_step: int) -> None:
        total = self.acc_total[idx]
        known = self.acc_known[idx]
        result = np.full(idx.shape, np.nan)
        # total > 0 always here (a PDP was just added); replicate the
        # RowAccumulator.result formula elementwise
        frac = 1.0 - known / total
        ok = (known > 0) & (frac <= self.xff)
        iok = idx[ok]
        if iok.size:
            if self.cf is ConsolidationFunction.AVERAGE:
                result[ok] = self.acc_sum[iok] / known[ok]
            elif self.cf is ConsolidationFunction.MIN:
                result[ok] = self.acc_min[iok]
            elif self.cf is ConsolidationFunction.MAX:
                result[ok] = self.acc_max[iok]
            else:  # LAST
                result[ok] = self.acc_last[iok]
        self.values[(end_step // self.pdp_per_row - 1) % self.rows, idx] = result
        self.rows_written[idx] += 1
        self.last_row_end[idx] = end_step
        # reset accumulators
        self.acc_total[idx] = 0
        self.acc_known[idx] = 0
        self.acc_sum[idx] = 0.0
        self.acc_min[idx] = np.inf
        self.acc_max[idx] = -np.inf
        self.acc_last_known[idx] = False

    # -- per-series scalar operations (gap/straggler path) ------------------

    def push_pdp_one(self, i: int, value: float, step: int) -> None:
        self.acc_total[i] += 1
        if not math.isnan(value):
            self.acc_known[i] += 1
            self.acc_sum[i] += value
            if value < self.acc_min[i]:
                self.acc_min[i] = value
            if value > self.acc_max[i]:
                self.acc_max[i] = value
            self.acc_last[i] = value
            self.acc_last_known[i] = True
        if (step + 1) % self.pdp_per_row == 0:
            self._close_row_one(i, step + 1)

    def _close_row_one(self, i: int, end_step: int) -> None:
        total = int(self.acc_total[i])
        known = int(self.acc_known[i])
        if total == 0 or known == 0 or (1.0 - known / total) > self.xff:
            result = math.nan
        elif self.cf is ConsolidationFunction.AVERAGE:
            result = self.acc_sum[i] / known
        elif self.cf is ConsolidationFunction.MIN:
            result = self.acc_min[i]
        elif self.cf is ConsolidationFunction.MAX:
            result = self.acc_max[i]
        else:
            result = self.acc_last[i] if self.acc_last_known[i] else math.nan
        self.values[(end_step // self.pdp_per_row - 1) % self.rows, i] = result
        self.rows_written[i] += 1
        self.last_row_end[i] = end_step
        self.acc_total[i] = 0
        self.acc_known[i] = 0
        self.acc_sum[i] = 0.0
        self.acc_min[i] = np.inf
        self.acc_max[i] = -np.inf
        self.acc_last_known[i] = False

    def push_fill_one(self, i: int, value: float, count: int, first_step: int) -> None:
        """``RoundRobinArchive.push_fill`` for one series: partial row the
        slow way, whole rows in bulk, leftover accumulation."""
        if count <= 0:
            return
        ppr = self.pdp_per_row
        step = first_step
        remaining = count
        while remaining > 0 and (step % ppr != 0 or self.acc_total[i]):
            self.push_pdp_one(i, value, step)
            step += 1
            remaining -= 1
        full_rows = remaining // ppr
        if full_rows > 0:
            # bulk rows take the fill value directly, not via the
            # accumulator (matching the scalar bulk path: a row built
            # purely from one fill value consolidates to that value)
            if full_rows >= self.rows:
                self.values[:, i] = value
            else:
                pos = (step // ppr + np.arange(full_rows)) % self.rows
                self.values[pos, i] = value
            self.rows_written[i] += full_rows
            step += full_rows * ppr
            remaining -= full_rows * ppr
            self.last_row_end[i] = step
        while remaining > 0:
            self.push_pdp_one(i, value, step)
            step += 1
            remaining -= 1

    # -- reading -------------------------------------------------------------

    def coverage_steps_one(self, i: int) -> int:
        return int(min(self.rows_written[i], self.rows)) * self.pdp_per_row

    def rows_with_end_steps_one(self, i: int) -> List[Tuple[int, float]]:
        last_end = int(self.last_row_end[i])
        if last_end < 0:
            return []
        n = int(min(self.rows_written[i], self.rows))
        ppr = self.pdp_per_row
        last_pos = last_end // ppr - 1
        pos = (last_pos - (n - 1) + np.arange(n)) % self.rows
        vals = self.values[pos, i]
        return [
            (last_end - (n - 1 - j) * ppr, float(vals[j])) for j in range(n)
        ]


#: per-series row cursor and row accumulator of one rung
_RUNG_FIELDS = _BankRra.__slots__[5:]


class SeriesBank:
    """Many RRD series sharing one step and RRA ladder.

    Series are identified by dense integer index (allocate with
    :meth:`add_series`); the owning store maps :class:`MetricKey` to
    index.  The write path is :meth:`update_column` -- one call per
    (poll, step) applying a value vector to a series-index vector.
    """

    def __init__(
        self,
        step: float = 15.0,
        rra_specs: Optional[Sequence[RraSpec]] = None,
        downtime_fill: str = "zero",
    ) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        if downtime_fill not in ("zero", "nan"):
            raise ValueError(
                f"downtime_fill must be 'zero' or 'nan', got {downtime_fill!r}"
            )
        self.step = step
        self.specs = (
            list(rra_specs) if rra_specs is not None else default_rra_specs()
        )
        if not self.specs:
            raise ValueError("at least one RRA is required")
        self.downtime_fill = downtime_fill
        self._fill_value = 0.0 if downtime_fill == "zero" else math.nan
        self.size = 0
        self._cap = 0
        self._started = np.zeros(0, dtype=bool)
        self._cur_step = np.zeros(0, dtype=np.int64)
        self._pdp_sum = np.zeros(0)
        self._pdp_count = np.zeros(0, dtype=np.int64)
        self._last_t = np.full(0, np.nan)
        self._updates = np.zeros(0, dtype=np.int64)
        self.rras: List[_BankRra] = [_BankRra(s, 0) for s in self.specs]
        self._ladder = [(r.cf.value, r.pdp_per_row, r.rows, r.xff) for r in self.rras]

    # -- series management ---------------------------------------------------

    def _grow(self, needed: int) -> None:
        """Make room for ``needed`` series, growing by about a quarter.

        Capacity rounds up to a multiple of 64 slots.  A quarter rather
        than a doubling keeps capacity within ``1.25 * size + 64``: a
        store allocates a slot per series on first write, so doubling
        would leave up to half of every ring array as slack.
        """
        if needed <= self._cap:
            return
        cap = -(-max(needed, self._cap + self._cap // 4) // 64) * 64
        n = self.size
        started = np.zeros(cap, dtype=bool)
        started[:n] = self._started[:n]
        self._started = started
        for name, fill, dtype in (
            ("_cur_step", 0, np.int64),
            ("_pdp_sum", 0.0, np.float64),
            ("_pdp_count", 0, np.int64),
            ("_last_t", np.nan, np.float64),
            ("_updates", 0, np.int64),
        ):
            arr = np.full(cap, fill, dtype=dtype)
            arr[:n] = getattr(self, name)[:n]
            setattr(self, name, arr)
        for rra in self.rras:
            rra.grow(cap)
        self._cap = cap

    def add_series(self, count: int = 1) -> int:
        """Allocate ``count`` fresh series; returns the first index."""
        first = self.size
        self._grow(self.size + count)
        self.size += count
        return first

    def export_series(self, i: int) -> Dict[str, Any]:
        """Series ``i``'s complete state, detached from the bank.

        Plain JSON-able values -- step, downtime fill, step clock, PDP
        accumulator and, per RRA rung, its spec, row cursor and row
        accumulator -- plus ``"rings"``, a copy of each rung's ring
        column.  :meth:`import_series` restores it into any bank with
        the same step, ladder and fill; on-disk persistence goes through
        this pair, and :meth:`copy_columns_from` is its in-memory block
        form.
        """
        state: Dict[str, Any] = {
            "step": self.step, "downtime_fill": self.downtime_fill,
        }
        for name in _CLOCK_FIELDS:
            state[name] = getattr(self, "_" + name)[i].item()
        state["rras"] = [
            {
                "cf": rra.cf.value, "pdp_per_row": rra.pdp_per_row,
                "rows": rra.rows, "xff": rra.xff,
                **{name: getattr(rra, name)[i].item() for name in _RUNG_FIELDS},
            }
            for rra in self.rras
        ]
        state["rings"] = [rra.values[:, i].copy() for rra in self.rras]
        return state

    def import_series(self, i: int, state: Dict[str, Any]) -> None:
        """Overwrite series ``i`` with a state from :meth:`export_series`."""
        ladder = [
            (r["cf"], r["pdp_per_row"], r["rows"], r["xff"]) for r in state["rras"]
        ]
        if (state["step"], state["downtime_fill"], ladder) != (
            self.step, self.downtime_fill, self._ladder
        ):
            raise ValueError("banks must share step, RRA ladder and downtime fill")
        for name in _CLOCK_FIELDS:
            getattr(self, "_" + name)[i] = state[name]
        for rra, rung, ring in zip(self.rras, state["rras"], state["rings"]):
            if ring.shape != (rra.rows,):
                raise ValueError("ring size does not match the RRA ladder")
            rra.values[:, i] = ring
            for name in _RUNG_FIELDS:
                getattr(rra, name)[i] = rung[name]

    def copy_columns_from(
        self, src: "SeriesBank", src_idx: np.ndarray, dst_idx: np.ndarray
    ) -> None:
        """Overwrite series ``dst_idx[j]`` with the state of ``src[src_idx[j]]``.

        The block form of ``import_series(export_series(...))``: the
        banks' step, ladder and downtime fill are checked once, then
        each clock field, ring and rung field moves in one indexed copy.
        ``dst_idx`` must not repeat a series.
        """
        if (src.step, src.downtime_fill, src._ladder) != (
            self.step, self.downtime_fill, self._ladder
        ):
            raise ValueError("banks must share step, RRA ladder and downtime fill")
        for name in _CLOCK_FIELDS:
            getattr(self, "_" + name)[dst_idx] = getattr(src, "_" + name)[src_idx]
        for rra, src_rra in zip(self.rras, src.rras):
            rra.values[:, dst_idx] = src_rra.values[:, src_idx]
            for name in _RUNG_FIELDS:
                getattr(rra, name)[dst_idx] = getattr(src_rra, name)[src_idx]

    # -- writing -------------------------------------------------------------

    def update_column(
        self, t: float, idx: np.ndarray, values: np.ndarray
    ) -> None:
        """Apply one poll's samples: ``values[j]`` to series ``idx[j]``.

        ``idx`` must not repeat a series.  NaN values record explicit
        unknown samples (they advance the step clock without counting
        toward the PDP), exactly like ``RrdDatabase.update``.
        """
        if idx.size == 0:
            return
        last = self._last_t[idx]
        late = last > t  # NaN (never updated) compares False
        if late.any():
            j = int(np.argmax(late))
            raise ValueError(
                f"out-of-order update: {t} < last {float(last[j])}"
            )
        self._last_t[idx] = t
        self._updates[idx] += 1
        step = int(t // self.step)

        started = self._started[idx]
        if not started.all():
            fresh = idx[~started]
            self._started[fresh] = True
            self._cur_step[fresh] = step
            # pdp_sum/count already zero for fresh series
        behind = started & (self._cur_step[idx] < step)
        if behind.any():
            bidx = idx[behind]
            cohort_mask = self._cur_step[bidx] == step - 1
            cohort = bidx[cohort_mask]
            if cohort.size:
                cnt = self._pdp_count[cohort]
                pdp = np.full(cohort.shape, np.nan)
                nz = cnt > 0
                if nz.any():
                    pdp[nz] = self._pdp_sum[cohort[nz]] / cnt[nz]
                for rra in self.rras:
                    rra.add_pdp_cohort(cohort, pdp, step - 1)
                self._cur_step[cohort] = step
                self._pdp_sum[cohort] = 0.0
                self._pdp_count[cohort] = 0
            stragglers = bidx[~cohort_mask]
            for i in stragglers:
                self._advance_one(int(i), step)

        known = ~np.isnan(values)
        ik = idx[known]
        if ik.size:
            self._pdp_sum[ik] += values[known]
            self._pdp_count[ik] += 1

    def _advance_one(self, i: int, step: int) -> None:
        """Mirror of ``RrdDatabase.update``'s step advance for one series."""
        cur = int(self._cur_step[i])
        cnt = int(self._pdp_count[i])
        pdp = self._pdp_sum[i] / cnt if cnt else math.nan
        for rra in self.rras:
            rra.push_pdp_one(i, pdp, cur)
        missing = step - cur - 1
        if missing > 0:
            for rra in self.rras:
                rra.push_fill_one(i, self._fill_value, missing, cur + 1)
        self._cur_step[i] = step
        self._pdp_sum[i] = 0.0
        self._pdp_count[i] = 0

    def update_one(self, i: int, t: float, value: Optional[float]) -> None:
        """Scalar update for one series (mirror of ``RrdDatabase.update``)."""
        last = self._last_t[i]
        if not math.isnan(last) and t < last:
            raise ValueError(f"out-of-order update: {t} < last {float(last)}")
        self._last_t[i] = t
        self._updates[i] += 1
        step = int(t // self.step)
        if not self._started[i]:
            self._started[i] = True
            self._cur_step[i] = step
        elif step > self._cur_step[i]:
            self._advance_one(i, step)
        if value is not None and not (
            isinstance(value, float) and math.isnan(value)
        ):
            self._pdp_sum[i] += float(value)
            self._pdp_count[i] += 1

    def flush_one(self, i: int, now: float) -> None:
        """Close out steps up to ``now`` (mirror of ``RrdDatabase.flush``)."""
        if not self._started[i]:
            return
        if int(now // self.step) > self._cur_step[i]:
            self.update_one(i, now, None)

    # -- reading -------------------------------------------------------------

    def updates_of(self, i: int) -> int:
        return int(self._updates[i])

    def last_update_time_of(self, i: int) -> Optional[float]:
        t = float(self._last_t[i])
        return None if math.isnan(t) else t

    def _best_rra_for(self, i: int, span_steps: int) -> _BankRra:
        by_resolution = sorted(self.rras, key=lambda r: r.pdp_per_row)
        for rra in by_resolution:
            if rra.coverage_steps_one(i) >= span_steps:
                return rra
        return max(by_resolution, key=lambda r: r.coverage_steps_one(i))

    def fetch(
        self, i: int, start: float, end: float
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Mirror of ``RrdDatabase.fetch`` for one series."""
        if end < start:
            raise ValueError("end must be >= start")
        span_steps = max(1, int(math.ceil((end - start) / self.step)))
        rra = self._best_rra_for(i, span_steps)
        times: List[float] = []
        values: List[float] = []
        for end_step, value in rra.rows_with_end_steps_one(i):
            t = end_step * self.step
            if start < t <= end:
                times.append(t)
                values.append(value)
        return (
            np.asarray(times),
            np.asarray(values),
            rra.pdp_per_row * self.step,
        )

    def latest(self, i: int) -> Optional[float]:
        """Most recent finalized full-resolution row value (may be NaN)."""
        finest = min(self.rras, key=lambda r: r.pdp_per_row)
        rows = finest.rows_with_end_steps_one(i)
        return float(rows[-1][1]) if rows else None

    def window_matrix(
        self, k: int, cols: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """The last ``k`` finest-resolution rows of many series, time-major.

        ``cols`` picks the series (an index array, output column ``j``
        is series ``cols[j]``); ``None`` reads every series in index
        order.  Returns ``(values, counts, row_seconds, last_end_steps)``:

        - ``values`` is ``(k, n)``; row ``k-1`` is each series'
          newest closed row, earlier rows walk back one row period at a
          time.  Slots a series has not written are NaN.
        - ``counts[j]`` is how many of the ``k`` rows are real for
          column ``j``.
        - ``row_seconds`` is the row period (finest ``pdp_per_row`` x
          step), shared by every series in the bank.
        - ``last_end_steps[j]`` is the absolute end step of column
          ``j``'s newest row (-1 when it has no closed rows); the row
          at position ``r`` ends at ``(last_end_steps[j] - (k-1-r) *
          pdp_per_row) * step`` seconds.

        This is the stores' window readout: one fancy-indexed gather
        regardless of how many series are read, the vectorized twin of
        calling :meth:`_BankRra.rows_with_end_steps_one` per series (the
        differential test pins the equivalence).  Rows are aligned per
        series to its own newest row -- a straggler's window simply ends
        earlier, which per-series trend/anomaly kernels are indifferent
        to.
        """
        if k <= 0:
            raise ValueError("window size must be positive")
        finest = min(self.rras, key=lambda r: r.pdp_per_row)
        cols = (
            np.arange(self.size) if cols is None
            else np.asarray(cols, dtype=np.int64)
        )
        n = cols.size
        ppr = finest.pdp_per_row
        row_seconds = ppr * self.step
        values = np.full((k, n), np.nan)
        counts = np.zeros(n, dtype=np.int64)
        last_end = finest.last_row_end[cols]
        if n == 0:
            return values, counts, row_seconds, last_end
        have = last_end >= 0
        counts[have] = np.minimum(
            finest.rows_written[cols][have], min(finest.rows, k)
        )
        last_pos = last_end // ppr - 1  # junk where have is False
        offsets = np.arange(k - 1, -1, -1)  # back-offsets per output row
        pos = (last_pos[None, :] - offsets[:, None]) % finest.rows
        gathered = finest.values[pos, cols[None, :]]
        valid = offsets[:, None] < counts[None, :]
        values[valid] = gathered[valid]
        return values, counts, row_seconds, last_end
