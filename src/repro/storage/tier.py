"""The replicated, sharded storage tier behind one gmetad's archiver.

A :class:`StorageTier` stands in for the archiver's single
:class:`~repro.rrd.store.RrdStore`: it exposes the same surface
(``update`` / ``column_plan`` / ``update_columns`` / ``update_summary``
/ ``database`` / ``fetch_series`` / ``window_readout`` / ``keys`` ...)
but routes every series to a shard and every shard to an ordered
replica list of simulated :class:`~repro.storage.node.StorageNode`
fleets.

Design points:

- **Logical vs physical accounting.**  ``update_count`` / ``on_update``
  / CPU charges count *logical* updates exactly as the single store
  would -- the archiver's charged work is identical with the tier on or
  off (the equivalence suite pins this).  The R-way physical fan-out is
  tracked per node in ``busy_seconds``: parallel-flush throughput is
  logical updates over the *busiest* node's seconds (the critical
  path), which is what actually scales with fleet width.
- **Freshness is a per-shard version.**  Every write batch that reaches
  at least one live replica bumps the shard version; a replica's
  ``applied`` version advances only contiguously, so a node that missed
  writes (down, or newly restarted) reads as *stale* until the
  anti-entropy pass copies a fresh replica's series over.  A batch no
  live replica absorbed is counted in ``updates_lost``.
- **Failover on read.**  Fetches prefer the primary, fall over to the
  first fresh live replica (counted in ``failover_fetches``), degrade
  to a stale live replica (``stale_fetches``) and only raise
  :class:`StorageUnavailable` when every replica of the shard is dead.
- **Bulk window readout.**  ``window_readout`` (the analytics stage's
  one read per pass) applies the same rule once per shard and gathers
  the shard's columns from its read node's bank in one call; heat and
  the counters above move by the per-key totals, and a dead shard's
  series read NaN (counted in ``fetch_failures``) instead of raising.
- **Anti-entropy repair.**  A periodic sweep finds shards with fewer
  than R fresh live replicas, re-syncs stale-but-live members and
  recruits replacement nodes (least loaded first) for dead ones by
  cloning series state; time from node death to full R is recorded per
  incident in ``repair_times``.
- **Clustering-driven rebalance.**  A slower periodic pass re-runs the
  feature clustering (:func:`repro.storage.placement.assign_groups`)
  over observed update rates and query heat and migrates at most
  ``max_group_moves`` series groups per pass toward their ideal shard.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.rrd.database import RraSpec, default_rra_specs
from repro.rrd.store import MetricKey, SUMMARY_HOST
from repro.sim.engine import Engine, PeriodicTask
from repro.sim.rng import derive_seed
from repro.storage.config import StorageTierConfig
from repro.storage.node import StorageNode, make_node_names
from repro.storage.placement import (
    GroupFeatures,
    GroupKey,
    ShardMap,
    assign_groups,
)


class StorageUnavailable(RuntimeError):
    """Every replica of the shard holding the requested series is down."""

    def __init__(self, key: MetricKey, shard: int) -> None:
        super().__init__(f"no live replica for shard {shard} ({key})")
        self.key = key
        self.shard = shard


class TierColumnPlan:
    """A shard-aware column plan: one sub-scatter per (shard, node).

    Mirrors :class:`repro.rrd.store.ColumnPlan`'s contract (``keys``,
    ``__len__``, ``update``) so the archiver's plan cache works
    unchanged.  The shard grouping is rebuilt whenever the tier's
    placement epoch moves (a group migrated), and per-node sub-plans are
    bound lazily so replicas recruited by repair start receiving scatter
    writes on the next poll without invalidating the archiver's cache.
    """

    __slots__ = ("tier", "keys", "_epoch", "_chunks", "_node_plans")

    def __init__(self, tier: "StorageTier", keys: Sequence[MetricKey]) -> None:
        self.tier = tier
        self.keys = list(keys)
        self._epoch = -1
        self._chunks: List[Tuple[int, "object", List[MetricKey]]] = []
        self._node_plans: Dict[Tuple[int, str], object] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def _rebuild(self) -> None:
        tier = self.tier
        by_shard: Dict[int, List[int]] = {}
        for j, key in enumerate(self.keys):
            s = tier._shard_of(key)
            by_shard.setdefault(s, []).append(j)
        self._chunks = [
            (
                s,
                np.asarray(positions, dtype=np.int64),
                [self.keys[j] for j in positions],
            )
            for s, positions in sorted(by_shard.items())
        ]
        self._node_plans.clear()
        self._epoch = tier.placement_epoch

    def update(self, t: float, values: "object") -> None:
        tier = self.tier
        n = len(self.keys)
        tier.update_count += n
        if tier.on_update is not None:
            tier.on_update(n)
        if self._epoch != tier.placement_epoch:
            self._rebuild()
        for s, sel, chunk_keys in self._chunks:
            tier._note_updates(chunk_keys[0], len(chunk_keys))
            sub_values = values[sel]
            tier._scatter_shard(s, chunk_keys, t, sub_values, self._node_plans)


class StorageTier:
    """RrdStore-compatible front over a fleet of storage nodes."""

    #: duck-type marker (obs and tests check this without importing us)
    is_storage_tier = True

    def __init__(
        self,
        engine: Engine,
        config: StorageTierConfig,
        mode: str = "full",
        step: float = 15.0,
        rra_specs: Optional[Sequence[RraSpec]] = None,
        downtime_fill: str = "zero",
        on_update: Optional[Callable[[int], None]] = None,
        update_cost: Optional[float] = None,
    ) -> None:
        if mode not in ("full", "account"):
            raise ValueError(f"mode must be 'full' or 'account', got {mode!r}")
        self.engine = engine
        self.config = config
        # -- RrdStore-compatible surface attributes
        self.mode = mode
        self.step = step
        self.rra_specs = list(rra_specs) if rra_specs is not None else None
        self.downtime_fill = downtime_fill
        self.on_update = on_update
        self.update_count = 0
        self.create_count = 0
        # -- the fleet
        self.nodes: Dict[str, StorageNode] = {
            name: StorageNode(
                name,
                mode=mode,
                step=step,
                rra_specs=self.rra_specs,
                downtime_fill=downtime_fill,
            )
            for name in make_node_names(config.nodes)
        }
        self.shard_map = ShardMap(
            config.shards, list(self.nodes), config.replication
        )
        #: physical per-update cost charged to a node's busy_seconds
        self._update_cost = (
            update_cost
            if update_cost is not None and update_cost > 0
            else config.rrd_update_cost
        ) or 2.5e-5
        # -- placement state
        self._key_shard: Dict[MetricKey, int] = {}
        self._group_shard: Dict[GroupKey, int] = {}
        self._group_keys: Dict[GroupKey, List[MetricKey]] = {}
        self._shard_keys: List[Set[MetricKey]] = [
            set() for _ in range(config.shards)
        ]
        #: bumped whenever a key changes shard; column plans watch it
        self.placement_epoch = 0
        # -- freshness state
        self._versions: List[int] = [0] * config.shards
        self._applied: List[Dict[str, int]] = [
            {} for _ in range(config.shards)
        ]
        # -- feature accumulators for the clustering pass
        self._group_updates: Dict[GroupKey, int] = {}
        self._group_heat: Dict[GroupKey, float] = {}
        # -- window readout: (stamp, keys, shard slices), per-node columns
        self._readout: Tuple = (None, [], [])
        self._readout_columns: Dict[Tuple[int, str], Tuple] = {}
        finest = min(
            self.rra_specs or default_rra_specs(), key=lambda r: r.pdp_per_row
        )
        self._row_seconds = finest.pdp_per_row * step
        # -- counters (mirrored into obs gauges when attached)
        self.failover_fetches = 0
        self.stale_fetches = 0
        self.fetch_failures = 0
        self.updates_lost = 0
        self.repairs_completed = 0
        self.groups_migrated = 0
        self.rebalance_passes = 0
        self.repair_times: List[float] = []
        self._incidents: Dict[int, float] = {}
        self._registry = None  # obs MetricsRegistry, attached lazily
        self._tasks: List[PeriodicTask] = []
        self._started = False

    # -- lifecycle (driven by GmetadBase.start/stop) -----------------------

    def start(self) -> "StorageTier":
        if self._started:
            return self
        self._started = True
        if self.config.repair_interval > 0:
            self._tasks.append(
                self.engine.every(self.config.repair_interval, self.repair_sweep)
            )
        if self.config.rebalance_interval > 0:
            self._tasks.append(
                self.engine.every(
                    self.config.rebalance_interval, self.rebalance_sweep
                )
            )
        return self

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        self._started = False

    def attach_registry(self, registry) -> None:
        """Publish per-shard flush timings into an obs registry."""
        self._registry = registry

    # -- fleet control (fault injector entry points) -----------------------

    def has_node(self, name: str) -> bool:
        return name in self.nodes

    def kill_node(self, name: str) -> None:
        """Take one storage node down (fail-stop)."""
        node = self.nodes[name]
        if not node.up:
            return
        node.up = False
        node.kills += 1
        now = self.engine.now
        for s in self.shard_map.shards_on(name):
            if s not in self._incidents and self._shard_deficit(s) > 0:
                self._incidents[s] = now

    def restart_node(self, name: str) -> None:
        """Bring a node back; it stays *stale* until anti-entropy syncs it."""
        node = self.nodes[name]
        if node.up:
            return
        node.up = True
        node.restarts += 1

    def nodes_up(self) -> int:
        return sum(1 for n in self.nodes.values() if n.up)

    # -- placement ---------------------------------------------------------

    @staticmethod
    def _group_of(key: MetricKey) -> GroupKey:
        return (key.source, key.cluster, key.host)

    def _shard_of(self, key: MetricKey) -> int:
        s = self._key_shard.get(key)
        if s is not None:
            return s
        group = self._group_of(key)
        gs = self._group_shard.get(group)
        if gs is None:
            # initial placement: stable hash of the group name; the
            # periodic clustering pass refines it from observed features
            gs = derive_seed(
                self.config.placement_seed, f"group:{'/'.join(group)}"
            ) % self.config.shards
            self._group_shard[group] = gs
            self._group_keys[group] = []
        self._key_shard[key] = gs
        self._group_keys[group].append(key)
        self._shard_keys[gs].add(key)
        if self.mode == "full":
            self.create_count += 1
        return gs

    def _note_updates(self, key: MetricKey, count: int) -> None:
        group = self._group_of(key)
        self._group_updates[group] = self._group_updates.get(group, 0) + count

    def note_query_heat(
        self, source: str, cluster: str, host: str, amount: float = 1.0
    ) -> None:
        """Feed external query heat (e.g. from the query engine) in."""
        self._add_heat((source, cluster, host), amount)

    def _add_heat(self, group: GroupKey, amount: float) -> None:
        self._group_heat[group] = self._group_heat.get(group, 0.0) + amount

    # -- freshness ---------------------------------------------------------

    def _apply_version(self, shard: int, node_name: str, version: int) -> None:
        applied = self._applied[shard]
        if applied.get(node_name, 0) == version - 1:
            applied[node_name] = version

    def _fresh_live(self, shard: int) -> List[str]:
        ver = self._versions[shard]
        applied = self._applied[shard]
        return [
            n
            for n in self.shard_map.replicas[shard]
            if self.nodes[n].up and applied.get(n, 0) >= ver
        ]

    def _shard_deficit(self, shard: int) -> int:
        live_nodes = self.nodes_up()
        want = min(self.shard_map.target(shard), max(live_nodes, 1))
        return max(0, want - len(self._fresh_live(shard)))

    def under_replicated_shards(self) -> int:
        """Shards currently below their fresh-live replica target."""
        return sum(
            1 for s in range(self.config.shards) if self._shard_deficit(s) > 0
        )

    # -- writing (RrdStore surface) ----------------------------------------

    def update(self, key: MetricKey, t: float, value: Optional[float]) -> None:
        self.update_count += 1
        if self.on_update is not None:
            self.on_update(1)
        s = self._shard_of(key)
        self._note_updates(key, 1)
        ver = self._versions[s] + 1
        applied = False
        for name in self.shard_map.replicas[s]:
            node = self.nodes[name]
            if not node.up:
                continue
            node.store.update(key, t, value)
            node.busy_seconds += self._update_cost
            node.updates_applied += 1
            self._apply_version(s, name, ver)
            applied = True
        if applied:
            self._versions[s] = ver
        else:
            self.updates_lost += 1

    def update_summary(
        self, source: str, cluster: str, metric: str, t: float,
        total: float, num: int,
    ) -> None:
        base = MetricKey(source, cluster, SUMMARY_HOST, metric)
        self.update(base, t, total)
        self.update(
            MetricKey(source, cluster, SUMMARY_HOST, f"{metric}.num"),
            t,
            float(num),
        )

    def column_plan(self, keys: Sequence[MetricKey]) -> TierColumnPlan:
        return TierColumnPlan(self, keys)

    def update_columns(
        self, plan: TierColumnPlan, t: float, values: "object"
    ) -> None:
        plan.update(t, values)

    def _scatter_shard(
        self,
        shard: int,
        keys: List[MetricKey],
        t: float,
        values: "object",
        node_plans: Dict[Tuple[int, str], object],
    ) -> None:
        """Land one shard's slice of a column scatter on its replicas."""
        ver = self._versions[shard] + 1
        applied = False
        batch_seconds = len(keys) * self._update_cost
        for name in self.shard_map.replicas[shard]:
            node = self.nodes[name]
            if not node.up:
                continue
            plan = node_plans.get((shard, name))
            if plan is None:
                plan = node.store.column_plan(keys)
                node_plans[(shard, name)] = plan
            plan.update(t, values)
            node.busy_seconds += batch_seconds
            node.updates_applied += len(keys)
            node.flushes += 1
            self._apply_version(shard, name, ver)
            applied = True
        if applied:
            self._versions[shard] = ver
        else:
            self.updates_lost += 1
        if self._registry is not None:
            self._registry.histogram(
                f"storage_flush.s{shard:02d}", units="s"
            ).observe(batch_seconds)

    # -- reading (RrdStore surface, with failover) -------------------------

    def _read_node(self, shard: int, reads: int = 1) -> Optional[StorageNode]:
        """The node serving ``reads`` reads of ``shard``, counted.

        The first fresh live replica (a failover unless it is the
        primary), else the first live one (a stale read); None, counted
        as failed reads, when every replica is down.
        """
        replicas = self.shard_map.replicas[shard]
        live = [n for n in replicas if self.nodes[n].up]
        if not live:
            self.fetch_failures += reads
            return None
        fresh = self._fresh_live(shard)
        chosen = fresh[0] if fresh else live[0]
        if not fresh:
            self.stale_fetches += reads
        if replicas and chosen != replicas[0]:
            self.failover_fetches += reads
        return self.nodes[chosen]

    def database(self, key: MetricKey):
        if self.mode == "account":
            raise RuntimeError("accounting-mode store keeps no databases")
        s = self._key_shard.get(key)
        if s is None:
            return None
        self._add_heat(self._group_of(key), 1.0)
        node = self._read_node(s)
        if node is None:
            raise StorageUnavailable(key, s)
        return node.store.database(key)

    def fetch_series(
        self, key: MetricKey, start: float, end: float
    ):
        series = self.database(key)
        if series is None:
            raise KeyError(f"no archive for {key}")
        return series.fetch(start, end)

    def window_readout(
        self, k: int, skip_source: Optional[str] = None
    ) -> Tuple[List[MetricKey], "np.ndarray", float, "np.ndarray"]:
        """:meth:`RrdStore.window_readout` over the fleet: one gather per shard.

        Each shard's read node is picked once, by :meth:`_read_node`'s
        rule, and the shard's columns come from one bank gather on that
        node.  Query heat and the failover, stale and failure counters
        move by the totals a :meth:`fetch_series` per key would add.  A
        shard with no live replica, and a series its read node does not
        hold, read NaN with end time ``-row_seconds``.
        """
        if self.mode == "account":
            return [], np.full((k, 0), np.nan), self.step, np.zeros(0)
        keys, shards = self._readout_layout(skip_source)
        values = np.full((k, len(keys)), np.nan)
        end_times = np.full(len(keys), -self._row_seconds)
        for s, lo, hi, heat in shards:
            for group, count in heat.items():
                self._add_heat(group, count)
            node = self._read_node(s, hi - lo)
            if node is None:
                continue
            cols, held = self._node_columns(s, node, keys, lo, hi)
            block, _, ends = node.store.window_columns(k, cols)
            if held is None:
                values[:, lo:hi], end_times[lo:hi] = block, ends
            else:
                values[:, lo:hi][:, held] = block
                end_times[lo:hi][held] = ends
        return keys, values, self._row_seconds, end_times

    def _readout_layout(self, skip_source: Optional[str]):
        """The readout's keys, grouped by shard, and each shard's slice.

        Shard slices are ``(shard, lo, hi, keys per group)`` over the
        key list.  Rebuilt when a key moves shard or the tier
        gains series; per-node column arrays are dropped with it.
        """
        stamp = (self.placement_epoch, len(self._key_shard), skip_source)
        if self._readout[0] != stamp:
            by_shard: Dict[int, List[MetricKey]] = {}
            for key, s in self._key_shard.items():
                if key.source != skip_source:
                    by_shard.setdefault(s, []).append(key)
            keys: List[MetricKey] = []
            shards = []
            for s, shard_keys in sorted(by_shard.items()):
                heat = Counter(self._group_of(key) for key in shard_keys)
                shards.append((s, len(keys), len(keys) + len(shard_keys), heat))
                keys += shard_keys
            self._readout = (stamp, keys, shards)
            self._readout_columns.clear()
        return self._readout[1], self._readout[2]

    def _node_columns(
        self, shard: int, node: StorageNode, keys: List[MetricKey],
        lo: int, hi: int,
    ) -> Tuple["np.ndarray", Optional["np.ndarray"]]:
        """Bank columns of ``keys[lo:hi]`` on ``node``, and which it holds.

        The mask is None when the node holds every key.  Cached per
        (shard, node) until the node's store gains series, the read-side
        mirror of :class:`TierColumnPlan`'s per-node sub-plans.
        """
        size = len(node.store)
        cached = self._readout_columns.get((shard, node.name))
        if cached is None or cached[0] != size:
            cols = node.store.slots(keys[lo:hi])
            held = cols >= 0
            cached = (size, cols, None) if held.all() else (size, cols[held], held)
            self._readout_columns[(shard, node.name)] = cached
        return cached[1], cached[2]

    def keys(self) -> List[MetricKey]:
        if self.mode == "account":
            return []  # parity: an accounting store records no keys
        return sorted(self._key_shard)

    def keys_for_host(
        self, source: str, cluster: str, host: str
    ) -> List[MetricKey]:
        if self.mode == "account":
            return []
        return sorted(
            k
            for k in self._key_shard
            if k.source == source and k.cluster == cluster and k.host == host
        )

    def __len__(self) -> int:
        return 0 if self.mode == "account" else len(self._key_shard)

    # -- anti-entropy repair ----------------------------------------------

    def _sync_node(self, shard: int, src: StorageNode, dst: StorageNode) -> None:
        """Copy every series of ``shard`` from a fresh replica to ``dst``."""
        keys = self._shard_keys[shard]
        if self.mode == "full":
            for key in sorted(keys):
                dst.store.clone_series_from(key, src.store)
        dst.busy_seconds += len(keys) * self.config.repair_cost_per_series
        self._applied[shard][dst.name] = self._versions[shard]
        self.repairs_completed += 1

    def repair_sweep(self) -> int:
        """One anti-entropy pass; returns how many shard syncs ran."""
        now = self.engine.now
        live_count = self.nodes_up()
        synced = 0
        for s in range(self.config.shards):
            deficit = self._shard_deficit(s)
            if deficit == 0:
                started = self._incidents.pop(s, None)
                if started is not None:
                    self.repair_times.append(now - started)
                continue
            if s not in self._incidents:
                self._incidents[s] = now
            fresh = self._fresh_live(s)
            if not fresh:
                continue  # nothing to copy from yet; incident stays open
            src = self.nodes[fresh[0]]
            replicas = self.shard_map.replicas[s]
            # 1) re-sync stale but live assigned replicas in place
            for name in list(replicas):
                node = self.nodes[name]
                if node.up and name not in fresh:
                    self._sync_node(s, src, node)
                    synced += 1
            # 2) recruit replacements for dead replicas, least-loaded first
            want = min(self.shard_map.target(s), max(live_count, 1))
            load = self.shard_map.loads(
                sorted(n for n, node in self.nodes.items() if node.up)
            )
            while (
                sum(1 for n in replicas if self.nodes[n].up) < want
            ):
                candidates = [
                    n for n in load if n not in replicas
                ]
                if not candidates:
                    break
                pick = min(candidates, key=lambda n: (load[n], n))
                dead = next(
                    (n for n in replicas if not self.nodes[n].up), None
                )
                if dead is not None:
                    self.shard_map.replace_replica(s, dead, pick)
                    self._applied[s].pop(dead, None)
                else:
                    self.shard_map.add_replica(s, pick)
                load[pick] += 1
                self._sync_node(s, src, self.nodes[pick])
                synced += 1
            if self._shard_deficit(s) == 0:
                started = self._incidents.pop(s, None)
                if started is not None:
                    self.repair_times.append(now - started)
        return synced

    # -- clustering-driven rebalance ---------------------------------------

    def _collect_features(self) -> Dict[GroupKey, GroupFeatures]:
        return {
            group: GroupFeatures(
                update_rate=float(self._group_updates.get(group, 0)),
                query_heat=float(self._group_heat.get(group, 0.0)),
            )
            for group in self._group_shard
        }

    def rebalance_sweep(self) -> int:
        """Refine placement toward the clustering ideal; bounded moves."""
        self.rebalance_passes += 1
        if not self._group_shard:
            return 0
        features = self._collect_features()
        ideal = assign_groups(
            features,
            self.config.shards,
            self.config.placement_seed,
            iterations=self.config.kmeans_iterations,
        )
        misplaced = [
            g
            for g in sorted(ideal)
            if ideal[g] != self._group_shard[g]
        ]
        misplaced.sort(key=lambda g: (-features[g].weight(), g))
        moved = 0
        for g in misplaced[: self.config.max_group_moves]:
            if self._move_group(g, ideal[g]):
                moved += 1
        self._refresh_hot_targets(features)
        if moved:
            self.placement_epoch += 1
            self.groups_migrated += moved
        return moved

    def _move_group(self, group: GroupKey, new_shard: int) -> bool:
        old_shard = self._group_shard[group]
        if old_shard == new_shard:
            return False
        keys = self._group_keys.get(group, [])
        if self.mode == "full" and keys:
            fresh = self._fresh_live(old_shard)
            if not fresh:
                return False  # no consistent source to copy from; retry later
            src = self.nodes[fresh[0]]
            for name in self.shard_map.replicas[new_shard]:
                node = self.nodes[name]
                if not node.up:
                    continue
                for key in keys:
                    node.store.clone_series_from(key, src.store)
                node.busy_seconds += (
                    len(keys) * self.config.repair_cost_per_series
                )
        self._group_shard[group] = new_shard
        for key in keys:
            self._key_shard[key] = new_shard
            self._shard_keys[old_shard].discard(key)
            self._shard_keys[new_shard].add(key)
        return True

    def _refresh_hot_targets(
        self, features: Dict[GroupKey, GroupFeatures]
    ) -> None:
        """Promote the hottest shards (by query heat) to R_hot replicas."""
        cfg = self.config
        hot_r = cfg.effective_hot_replication
        if hot_r <= cfg.replication or cfg.hot_fraction <= 0:
            return
        heat = [0.0] * cfg.shards
        for group, shard in self._group_shard.items():
            heat[shard] += features.get(group, GroupFeatures()).query_heat
        hot_count = max(1, int(math.ceil(cfg.shards * cfg.hot_fraction)))
        ranked = sorted(range(cfg.shards), key=lambda s: (-heat[s], s))
        hot = set(ranked[:hot_count])
        for s in range(cfg.shards):
            self.shard_map.set_target(
                s, hot_r if s in hot and heat[s] > 0 else cfg.replication
            )
        # the anti-entropy sweep recruits the extra replicas

    # -- reporting ---------------------------------------------------------

    def critical_path_seconds(self) -> float:
        """Busy seconds of the busiest node: the parallel-flush bound."""
        return max((n.busy_seconds for n in self.nodes.values()), default=0.0)

    def total_node_seconds(self) -> float:
        return sum(n.busy_seconds for n in self.nodes.values())

    def stats(self) -> Dict[str, float]:
        """Flat counter snapshot (CLI, benchmarks, obs gauges)."""
        return {
            "nodes": float(len(self.nodes)),
            "nodes_up": float(self.nodes_up()),
            "shards": float(self.config.shards),
            "series": float(len(self._key_shard)),
            "logical_updates": float(self.update_count),
            "physical_updates": float(
                sum(n.updates_applied for n in self.nodes.values())
            ),
            "updates_lost": float(self.updates_lost),
            "failover_fetches": float(self.failover_fetches),
            "stale_fetches": float(self.stale_fetches),
            "fetch_failures": float(self.fetch_failures),
            "under_replicated_shards": float(self.under_replicated_shards()),
            "repairs_completed": float(self.repairs_completed),
            "groups_migrated": float(self.groups_migrated),
            "critical_path_seconds": self.critical_path_seconds(),
            "total_node_seconds": self.total_node_seconds(),
        }
