"""Connects gmetad ingestion to the RRD store, charging archive CPU.

"As metric archiving is a processor-intensive task, this redundancy is
unwanted" (§2.1) -- archiving cost is the main thing the N-level design
moves and removes, so every update flows through here where it is both
performed and charged.

Archiving policy differences between the designs:

- 1-level: :meth:`archive_cluster_detail_columns` for *every* cluster
  in the subtree (the duplicated archives of Fig. 3 left);
- N-level: :meth:`archive_cluster_detail_columns` only for local
  clusters plus :meth:`archive_summary` for everything ("Nodes in the
  N-level monitoring tree keep only summary archives of descendants
  rather than full duplicates").

Every write, detail, summary or replay, is one column-plan scatter
(:meth:`~repro.rrd.store.RrdStore.update_columns`): a plan binds one
poll layout's keys to their series once, and each poll of that layout
lands as a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.rrd.store import SUMMARY_HOST, ColumnPlan, MetricKey, RrdStore
from repro.sim.resources import CostModel
from repro.wire.model import SummaryInfo

if TYPE_CHECKING:
    from repro.columnar.layout import ColumnarCluster

#: charge(work_units, category)
ChargeFn = Callable[[float, str], float]
#: one held scatter: the plan and the values it last wrote
_Held = Tuple[ColumnPlan, np.ndarray]


@dataclass
class _DetailPlan:
    """Cached scatter plan for one (source, cluster) detail layout."""

    cols: "ColumnarCluster"  # the layout the plan was built against
    up: np.ndarray
    rows: np.ndarray  # metric rows that archive (valid & live host)
    plan: ColumnPlan


class Archiver:
    """Routes monitoring data into round-robin archives.

    The archiver also remembers what each data source's last archived
    poll wrote -- one ``(plan, values)`` pair per detail or summary
    scatter -- so a NOT-MODIFIED poll can :meth:`replay` them at the new
    timestamp.  An unchanged gauge still gets an RRD write every step in
    a real monitor -- skipping it would leave a gap the zero-fill turns
    into a phantom "host down" record.  Replay re-scatters the held
    arrays; the RRD work itself is charged at full price (the disks
    don't know the value didn't change).
    """

    def __init__(
        self,
        store: RrdStore,
        charge: ChargeFn,
        costs: CostModel,
        heartbeat_window: float = 80.0,
    ) -> None:
        self.store = store
        self.charge = charge
        self.costs = costs
        self.heartbeat_window = heartbeat_window
        self.detail_updates = 0
        self.summary_updates = 0
        self.replayed_updates = 0
        #: source -> (kind, cluster) -> last scatter (plan, values)
        self._held: Dict[str, Dict[Tuple[str, str], _Held]] = {}
        #: (source, cluster) -> cached detail scatter plan
        self._column_plans: Dict[Tuple[str, str], _DetailPlan] = {}
        #: (source, cluster) -> (metric names, plan) of the summary layout
        self._summary_plans: Dict[
            Tuple[str, str], Tuple[Tuple[str, ...], ColumnPlan]
        ] = {}
        #: called as (source, t) after every archive write -- detail,
        #: summary or NOT-MODIFIED replay.  The analytics stage
        #: (repro.analytics) registers here so trend/anomaly kernels run
        #: exactly when fresh rows may have closed; None costs nothing.
        self.on_flush: Optional[Callable[[str, float], None]] = None

    def begin_poll(self, source: str) -> None:
        """Start a poll of ``source``: its held writes restart empty.

        A source's held set is exactly what its last archived poll
        wrote, so a cluster that left the source is not replayed.
        """
        self._held.pop(source, None)

    def _scatter(
        self, source: str, slot: Tuple[str, str], plan: ColumnPlan,
        t: float, values: np.ndarray,
    ) -> int:
        """Land one scatter, hold it for replay, charge and announce it."""
        self.store.update_columns(plan, t, values)
        self._held.setdefault(source, {})[slot] = (plan, values)
        updates = len(plan)
        self.charge(updates * self.costs.rrd_update, "archive")
        self._flushed(source, t)
        return updates

    def _flushed(self, source: str, t: float) -> None:
        if self.on_flush is not None:
            self.on_flush(source, t)

    def archive_cluster_detail_columns(
        self, source: str, cols: "ColumnarCluster", t: float
    ) -> int:
        """One RRD update per numeric metric of every *live* host.

        Hosts past the heartbeat window are skipped: their databases see
        a gap, which the zero-fill turns into the paper's "zero record
        during the downtime".  The rows that archive (numeric,
        parseable, live host -- document order) bind to bank series once
        per layout via a cached :class:`ColumnPlan`; while the cluster's
        shape is stable, each poll costs one scatter.
        """
        up = cols.up_mask(self.heartbeat_window)
        cache_key = (source, cols.name)
        cached = self._column_plans.get(cache_key)
        if (
            cached is not None
            and cols.same_layout(cached.cols)
            and np.array_equal(up, cached.up)
        ):
            rows, plan = cached.rows, cached.plan
        else:
            rows = np.flatnonzero(cols.valid & up[cols.row_host])
            strings = cols.pool.strings
            host_names = cols.host_names
            row_host = cols.row_host
            name_ids = cols.name_ids
            keys = [
                MetricKey(
                    source, cols.name, host_names[row_host[r]], strings[name_ids[r]]
                )
                for r in rows
            ]
            plan = self.store.column_plan(keys)
            self._column_plans[cache_key] = _DetailPlan(cols, up, rows, plan)
        updates = self._scatter(
            source, ("detail", cols.name), plan, t, cols.values[rows]
        )
        self.detail_updates += updates
        return updates

    #: kept by name for ``benchmarks/e2e/spans.py``, which wraps it;
    #: nothing calls it
    archive_cluster_detail = archive_cluster_detail_columns

    def archive_summary(
        self, source: str, cluster: str, summary: SummaryInfo, t: float
    ) -> int:
        """Two updates (sum, num) per reduced metric, in one scatter.

        The plan binds ``name``, ``name.num`` for each metric in summary
        order, once per (source, cluster, metric layout).
        """
        metrics = list(summary.metrics.values())
        names = tuple(m.name for m in metrics)
        cache_key = (source, cluster)
        cached = self._summary_plans.get(cache_key)
        if cached is not None and cached[0] == names:
            plan = cached[1]
        else:
            keys = [
                MetricKey(source, cluster, SUMMARY_HOST, series)
                for name in names
                for series in (name, f"{name}.num")
            ]
            plan = self.store.column_plan(keys)
            self._summary_plans[cache_key] = (names, plan)
        values = np.empty(2 * len(metrics))
        values[0::2] = [m.total for m in metrics]
        values[1::2] = [m.num for m in metrics]
        updates = self._scatter(source, ("summary", cluster), plan, t, values)
        self.summary_updates += updates
        return updates

    def replay(self, source: str, t: float) -> int:
        """Re-write the source's last-seen values at timestamp ``t``.

        Called on a NOT-MODIFIED poll: the source re-confirmed its data,
        so the archives advance with the held values instead of gapping.
        """
        updates = 0
        for plan, values in self._held.get(source, {}).values():
            self.store.update_columns(plan, t, values)
            updates += len(plan)
        self.replayed_updates += updates
        self.charge(updates * self.costs.rrd_update, "archive")
        self._flushed(source, t)
        return updates

    def forget(self, source: str) -> None:
        """Drop the held writes and cached plans of a removed data source."""
        self._held.pop(source, None)
        for plans in (self._column_plans, self._summary_plans):
            for cache_key in [k for k in plans if k[0] == source]:
                del plans[cache_key]
