"""Connects gmetad ingestion to the RRD store, charging archive CPU.

"As metric archiving is a processor-intensive task, this redundancy is
unwanted" (§2.1) -- archiving cost is the main thing the N-level design
moves and removes, so every update flows through here where it is both
performed and charged.

Archiving policy differences between the designs:

- 1-level: :meth:`archive_cluster_detail` for *every* cluster in the
  subtree (the duplicated archives of Fig. 3 left);
- N-level: :meth:`archive_cluster_detail` only for local clusters plus
  :meth:`archive_summary` for everything ("Nodes in the N-level
  monitoring tree keep only summary archives of descendants rather than
  full duplicates").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.rrd.store import ColumnPlan, MetricKey, RrdStore
from repro.sim.resources import CostModel
from repro.wire.model import ClusterElement, SummaryInfo

if TYPE_CHECKING:
    import numpy as np

    from repro.columnar.layout import ColumnarCluster

#: charge(work_units, category)
ChargeFn = Callable[[float, str], float]


@dataclass
class _DetailPlan:
    """Cached scatter plan for one (source, cluster) detail layout."""

    cols: "ColumnarCluster"  # the layout the plan was built against
    up: "np.ndarray"
    rows: "np.ndarray"  # metric rows that archive (valid & live host)
    plan: ColumnPlan


class Archiver:
    """Routes monitoring data into round-robin archives.

    The archiver also remembers the last batch of values written per
    data source so a NOT-MODIFIED poll can :meth:`replay` them at the
    new timestamp.  An unchanged gauge still gets an RRD write every
    step in a real monitor -- skipping it would leave a gap the
    zero-fill turns into a phantom "host down" record.  Replay re-writes
    pre-extracted floats, skipping the XML-model walk and per-value
    string parsing of the eager path; the RRD work itself is charged at
    full price (the disks don't know the value didn't change).
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
        #: source -> cluster -> last detail batch [(key, value), ...]
        self._held_detail: Dict[str, Dict[str, List[Tuple[MetricKey, float]]]] = {}
        #: source -> cluster -> last summary batch [(name, total, num), ...]
        self._held_summary: Dict[str, Dict[str, List[Tuple[str, float, int]]]] = {}
        #: source -> cluster -> last columnar batch (plan, values)
        self._held_columns: Dict[str, Dict[str, Tuple[ColumnPlan, "np.ndarray"]]] = {}
        #: (source, cluster) -> cached scatter plan
        self._column_plans: Dict[Tuple[str, str], _DetailPlan] = {}
        #: called as (source, t) after every archive write -- detail,
        #: summary or NOT-MODIFIED replay.  The analytics stage
        #: (repro.analytics) registers here so trend/anomaly kernels run
        #: exactly when fresh rows may have closed; None costs nothing.
        self.on_flush: Optional[Callable[[str, float], None]] = None

    def _flushed(self, source: str, t: float) -> None:
        if self.on_flush is not None:
            self.on_flush(source, t)

    def archive_cluster_detail(
        self, source: str, cluster: ClusterElement, t: float
    ) -> int:
        """One RRD update per numeric metric of every *live* host.

        Hosts past the heartbeat window are skipped: their databases see
        a gap, which the zero-fill turns into the paper's "zero record
        during the downtime".
        """
        if cluster.is_summary:
            raise ValueError(
                f"cannot archive detail for summary-form cluster {cluster.name!r}"
            )
        updates = 0
        batch: List[Tuple[MetricKey, float]] = []
        for host in cluster.hosts.values():
            if not host.is_up(self.heartbeat_window):
                continue
            for metric in host.metrics.values():
                if not metric.is_numeric:
                    continue
                try:
                    value = metric.numeric()
                except ValueError:
                    continue
                key = MetricKey(source, cluster.name, host.name, metric.name)
                self.store.update(key, t, value)
                batch.append((key, value))
                updates += 1
        self._held_detail.setdefault(source, {})[cluster.name] = batch
        # this cluster is now held in scalar form; a stale columnar hold
        # would double-replay it on the next NOT-MODIFIED poll
        held_columns = self._held_columns.get(source)
        if held_columns:
            held_columns.pop(cluster.name, None)
        self.detail_updates += updates
        self.charge(updates * self.costs.rrd_update, "archive")
        self._flushed(source, t)
        return updates

    def archive_cluster_detail_columns(
        self, source: str, cols: "ColumnarCluster", t: float
    ) -> int:
        """Columnar twin of :meth:`archive_cluster_detail`.

        One vectorized scatter per poll: the rows that archive (numeric,
        parseable, live host -- document order, same as the scalar
        walk) bind to bank series once per layout via a cached
        :class:`ColumnPlan`; while the cluster's shape is stable, each
        poll costs one :meth:`ColumnPlan.update` instead of one store
        call per metric.  Update counts and CPU charge are identical to
        the scalar path.
        """
        import numpy as np

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
        values = cols.values[rows]
        self.store.update_columns(plan, t, values)
        updates = len(plan)
        self._held_columns.setdefault(source, {})[cols.name] = (plan, values)
        held_detail = self._held_detail.get(source)
        if held_detail:
            held_detail.pop(cols.name, None)  # counterpart of the pop above
        self.detail_updates += updates
        self.charge(updates * self.costs.rrd_update, "archive")
        self._flushed(source, t)
        return updates

    def archive_summary(
        self, source: str, cluster: str, summary: SummaryInfo, t: float
    ) -> int:
        """Two updates (sum, num) per reduced metric."""
        updates = 0
        batch: List[Tuple[str, float, int]] = []
        for metric_summary in summary.metrics.values():
            self.store.update_summary(
                source,
                cluster,
                metric_summary.name,
                t,
                metric_summary.total,
                metric_summary.num,
            )
            batch.append(
                (metric_summary.name, metric_summary.total, metric_summary.num)
            )
            updates += 2
        self._held_summary.setdefault(source, {})[cluster] = batch
        self.summary_updates += updates
        self.charge(updates * self.costs.rrd_update, "archive")
        self._flushed(source, t)
        return updates

    def replay(self, source: str, t: float) -> int:
        """Re-write the source's last-seen values at timestamp ``t``.

        Called on a NOT-MODIFIED poll: the source re-confirmed its data,
        so the archives advance with the held values instead of gapping.
        """
        updates = 0
        for batch in self._held_detail.get(source, {}).values():
            for key, value in batch:
                self.store.update(key, t, value)
                updates += 1
        for plan, values in self._held_columns.get(source, {}).values():
            self.store.update_columns(plan, t, values)
            updates += len(plan)
        for cluster, batch in self._held_summary.get(source, {}).items():
            for name, total, num in batch:
                self.store.update_summary(source, cluster, name, t, total, num)
                updates += 2
        self.replayed_updates += updates
        self.charge(updates * self.costs.rrd_update, "archive")
        self._flushed(source, t)
        return updates

    def forget(self, source: str) -> None:
        """Drop the held batches for a removed data source."""
        self._held_detail.pop(source, None)
        self._held_summary.pop(source, None)
        self._held_columns.pop(source, None)
        for cache_key in [k for k in self._column_plans if k[0] == source]:
            del self._column_plans[cache_key]
