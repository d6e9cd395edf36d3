"""One metric's history: a step clock plus a set of round-robin archives.

Semantics follow RRDtool's GAUGE data source (gmond already reports
rates, so Ganglia archives gauges): updates are binned into fixed steps,
multiple updates within a step are averaged, and skipped steps during an
outage are filled.  The fill value is configurable:

- ``downtime_fill="zero"`` (default) reproduces the paper's behaviour --
  "If a monitored node has failed, it keeps a 'zero' record during the
  downtime, aiding time-of-death forensic analysis";
- ``downtime_fill="nan"`` gives RRDtool's native unknown semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.rrd.consolidate import ConsolidationFunction
from repro.rrd.rra import RoundRobinArchive


@dataclass(frozen=True)
class RraSpec:
    """Declarative archive description used to build databases."""

    cf: ConsolidationFunction
    pdp_per_row: int
    rows: int
    xff: float = 0.5

    def __post_init__(self) -> None:
        # accept the function's name ("AVERAGE") as well as the member
        object.__setattr__(self, "cf", ConsolidationFunction(self.cf))

    def build(self) -> RoundRobinArchive:
        """Instantiate the archive this spec describes."""
        return RoundRobinArchive(self.cf, self.pdp_per_row, self.rows, self.xff)


def default_rra_specs() -> List[RraSpec]:
    """Ganglia's stock RRA ladder (step 15 s).

    hour at full resolution, day at 6 min, week at ~42 min, month at
    ~2.8 h, year at ~24 h -- "we can see a metric's history over the past
    year but with less resolution than if we ask about more recent
    behavior".
    """
    avg = ConsolidationFunction.AVERAGE
    return [
        RraSpec(avg, 1, 244),
        RraSpec(avg, 24, 244),
        RraSpec(avg, 168, 244),
        RraSpec(avg, 672, 244),
        RraSpec(avg, 5760, 374),
    ]


def compact_rra_specs() -> List[RraSpec]:
    """A small ladder for tests and examples (bounded memory)."""
    avg = ConsolidationFunction.AVERAGE
    return [RraSpec(avg, 1, 64), RraSpec(avg, 8, 64), RraSpec(avg, 64, 64)]


class RrdDatabase:
    """Fixed-size, multi-resolution history for one numeric metric."""

    def __init__(
        self,
        step: float = 15.0,
        rra_specs: Optional[Sequence[RraSpec]] = None,
        downtime_fill: str = "zero",
        xff: float = 0.5,
    ) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        if downtime_fill not in ("zero", "nan"):
            raise ValueError(f"downtime_fill must be 'zero' or 'nan', got {downtime_fill!r}")
        self.step = step
        specs = list(rra_specs) if rra_specs is not None else default_rra_specs()
        if not specs:
            raise ValueError("at least one RRA is required")
        self.rras = [s.build() for s in specs]
        self.downtime_fill = downtime_fill
        self._fill_value = 0.0 if downtime_fill == "zero" else math.nan
        self._current_step: Optional[int] = None
        self._step_sum = 0.0
        self._step_count = 0
        self.last_update_time: Optional[float] = None
        self.updates = 0

    # -- ingestion -----------------------------------------------------------

    def _step_index(self, t: float) -> int:
        return int(t // self.step)

    def update(self, t: float, value: Optional[float]) -> None:
        """Record ``value`` observed at time ``t``.

        ``t`` must be non-decreasing across calls (RRDtool rejects
        out-of-order updates too).  ``None`` or NaN records an explicit
        unknown sample.
        """
        if self.last_update_time is not None and t < self.last_update_time:
            raise ValueError(
                f"out-of-order update: {t} < last {self.last_update_time}"
            )
        self.last_update_time = t
        self.updates += 1
        step = self._step_index(t)
        if self._current_step is None:
            self._current_step = step
        elif step > self._current_step:
            self._finalize_pdp()
            missing = step - self._current_step - 1
            if missing > 0:
                for rra in self.rras:
                    rra.push_fill(
                        self._fill_value, missing, self._current_step + 1
                    )
            self._current_step = step
        if value is not None and not (isinstance(value, float) and math.isnan(value)):
            self._step_sum += float(value)
            self._step_count += 1

    def _finalize_pdp(self) -> None:
        if self._current_step is None:
            return
        pdp = (
            self._step_sum / self._step_count if self._step_count else math.nan
        )
        for rra in self.rras:
            rra.push_pdp(pdp, self._current_step)
        self._step_sum = 0.0
        self._step_count = 0

    def flush(self, now: float) -> None:
        """Close out steps up to ``now`` (e.g. before a fetch at end of run)."""
        if self._current_step is None:
            return
        step = self._step_index(now)
        if step > self._current_step:
            self.update(now, None)
            # the update() call above started accumulating an (empty)
            # PDP for `step`; nothing else to do.

    # -- reading ---------------------------------------------------------

    def memory_rows(self) -> int:
        """Total rows across archives (fixed: never grows)."""
        return sum(r.rows for r in self.rras)

    def best_rra_for(self, span_steps: int) -> RoundRobinArchive:
        """Finest-resolution archive covering at least ``span_steps``.

        If no archive has accumulated enough history yet, the one with
        the widest coverage wins (early in a database's life the finest
        archive holds everything there is).
        """
        by_resolution = sorted(self.rras, key=lambda r: r.pdp_per_row)
        for rra in by_resolution:
            if rra.coverage_steps() >= span_steps:
                return rra
        return max(by_resolution, key=lambda r: r.coverage_steps())

    def fetch(
        self, start: float, end: float
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """History rows whose interval ends in ``(start, end]``.

        Returns ``(times, values, resolution_seconds)`` where ``times``
        are row-end timestamps.  Picks the finest archive that covers the
        requested span -- ask about last hour, get 15-second rows; ask
        about last month, get coarse ones.
        """
        if end < start:
            raise ValueError("end must be >= start")
        span_steps = max(1, int(math.ceil((end - start) / self.step)))
        rra = self.best_rra_for(span_steps)
        times: List[float] = []
        values: List[float] = []
        for end_step, value in rra.rows_with_end_steps():
            t = end_step * self.step
            if start < t <= end:
                times.append(t)
                values.append(value)
        return (
            np.asarray(times),
            np.asarray(values),
            rra.pdp_per_row * self.step,
        )

    def latest(self) -> Optional[float]:
        """Most recent finalized full-resolution row value (may be NaN)."""
        finest = min(self.rras, key=lambda r: r.pdp_per_row)
        rows = finest.recent_rows(1)
        return float(rows[0]) if len(rows) else None
