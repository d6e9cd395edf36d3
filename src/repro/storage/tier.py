"""The replicated, sharded storage tier behind one gmetad's archiver.

A :class:`StorageTier` stands in for the archiver's single
:class:`~repro.rrd.store.RrdStore`: it exposes the same surface
(``column_plan`` / ``update_columns`` / ``database`` / ``fetch_series``
/ ``window_readout`` / ``keys`` ...) but routes every series to a shard
and every shard to an ordered replica list of simulated
:class:`~repro.storage.node.StorageNode` fleets.

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
  anti-entropy pass copies a fresh replica's series over.  Each update
  of a batch no live replica absorbed is counted in ``updates_lost``.
- **Failover on read.**  Fetches prefer the primary, fall over to the
  first fresh live replica (counted in ``failover_fetches``), degrade
  to a stale live replica (``stale_fetches``) and only raise
  :class:`StorageUnavailable` when every replica of the shard is dead.
- **Bulk window readout.**  ``window_readout`` (the analytics stage's
  one read per pass) applies the same rule once per shard and gathers
  the shard's columns from its read node's bank in one call; the
  counters above move by the per-key totals, and a dead shard's series
  read NaN (counted in ``fetch_failures``) instead of raising.
- **Fixed shards, moving replicas.**  A series' shard is a stable hash
  of its ``(source, cluster, host)`` group and never changes.  Data
  moves between nodes only when the :class:`ShardMap` reassigns a
  replica slot, and every such copy is one bank-block copy per shard
  (:meth:`~repro.rrd.store.RrdStore.copy_series_from`).
- **Anti-entropy repair.**  A periodic sweep finds shards with fewer
  than R fresh live replicas, re-syncs stale-but-live members and
  recruits replacement nodes (least loaded first) for dead ones; time
  from node death to full R is recorded per incident in
  ``repair_times``.
- **Shard rebalance.**  A slower periodic pass, run only while no repair
  incident is open, lets :meth:`ShardMap.rebalance` even out replica
  slots over the live nodes (at most ``ceil(slots/N)`` shards move), so
  a node that restarts after repair replaced it wins its share back.
  Each newly assigned replica is synced at once from a replica that was
  fresh before the move.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rrd.database import RraSpec, default_rra_specs
from repro.rrd.store import MetricKey
from repro.sim.engine import Engine, PeriodicTask
from repro.storage.config import StorageTierConfig
from repro.storage.node import StorageNode, make_node_names
from repro.storage.placement import ShardMap, group_shard

#: root seed of the stable group -> shard hash
PLACEMENT_SEED = 20031201
#: simulated seconds of storage-node work to re-replicate one series
REPAIR_COST_PER_SERIES = 2.0e-5


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
    unchanged.  Shards never change, so the shard split is built once,
    at bind time; per-node sub-plans are bound lazily so replicas that
    repair or rebalance assign start receiving scatter writes on the
    next poll without invalidating the archiver's cache.
    """

    __slots__ = ("tier", "keys", "_chunks", "_node_plans")

    def __init__(self, tier: "StorageTier", keys: Sequence[MetricKey]) -> None:
        self.tier = tier
        self.keys = list(keys)
        by_shard: Dict[int, List[int]] = {}
        for j, key in enumerate(self.keys):
            by_shard.setdefault(tier._shard_of(key), []).append(j)
        self._chunks = [
            (
                s,
                np.asarray(positions, dtype=np.int64),
                [self.keys[j] for j in positions],
            )
            for s, positions in sorted(by_shard.items())
        ]
        self._node_plans: Dict[Tuple[int, str], object] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def update(self, t: float, values: "object") -> None:
        tier = self.tier
        n = len(self.keys)
        tier.update_count += n
        if tier.on_update is not None:
            tier.on_update(n)
        for s, sel, chunk_keys in self._chunks:
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
        # -- placement state: each key's fixed shard, each shard's keys
        self._key_shard: Dict[MetricKey, int] = {}
        self._shard_keys: List[List[MetricKey]] = [
            [] for _ in range(config.shards)
        ]
        # -- freshness state
        self._versions: List[int] = [0] * config.shards
        self._applied: List[Dict[str, int]] = [
            {} for _ in range(config.shards)
        ]
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
        self.replica_moves = 0
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

    def _shard_of(self, key: MetricKey) -> int:
        """The fixed shard of ``key``, registered on first touch."""
        s = self._key_shard.get(key)
        if s is None:
            s = group_shard(
                (key.source, key.cluster, key.host),
                self.config.shards,
                PLACEMENT_SEED,
            )
            self._key_shard[key] = s
            self._shard_keys[s].append(key)
            if self.mode == "full":
                self.create_count += 1
        return s

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
        want = min(self.shard_map.replication, max(live_nodes, 1))
        return max(0, want - len(self._fresh_live(shard)))

    def under_replicated_shards(self) -> int:
        """Shards currently below their fresh-live replica target."""
        return sum(
            1 for s in range(self.config.shards) if self._shard_deficit(s) > 0
        )

    # -- writing (RrdStore surface) ----------------------------------------

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
            self.updates_lost += len(keys)
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
        node.  The failover, stale and failure counters move by the
        totals a :meth:`fetch_series` per key would add.  A
        shard with no live replica, and a series its read node does not
        hold, read NaN with end time ``-row_seconds``.
        """
        if self.mode == "account":
            return [], np.full((k, 0), np.nan), self.step, np.zeros(0)
        keys, shards = self._readout_layout(skip_source)
        values = np.full((k, len(keys)), np.nan)
        end_times = np.full(len(keys), -self._row_seconds)
        for s, lo, hi in shards:
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

        Shard slices are ``(shard, lo, hi)`` over the key list.  Rebuilt
        when the tier gains series; per-node column arrays are dropped
        with it.
        """
        stamp = (len(self._key_shard), skip_source)
        if self._readout[0] != stamp:
            keys: List[MetricKey] = []
            shards = []
            for s, shard_keys in enumerate(self._shard_keys):
                chosen = [key for key in shard_keys if key.source != skip_source]
                if chosen:
                    shards.append((s, len(keys), len(keys) + len(chosen)))
                    keys += chosen
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
        """Copy every series of ``shard`` from a fresh replica to ``dst``.

        One block copy between the two nodes' banks; ``dst`` is fresh
        afterwards.
        """
        keys = self._shard_keys[shard]
        dst.store.copy_series_from(src.store, keys)
        dst.busy_seconds += len(keys) * REPAIR_COST_PER_SERIES
        self._applied[shard][dst.name] = self._versions[shard]

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
            want = min(self.shard_map.replication, max(live_count, 1))
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
        self.repairs_completed += synced
        return synced

    # -- shard rebalance --------------------------------------------------

    def rebalance_sweep(self) -> int:
        """Even out replica slots over the live nodes; returns moves made.

        Runs only while no repair incident is open and every shard is at
        its replica count, so each shard has a fresh replica to copy
        from.  :meth:`ShardMap.rebalance` moves at most
        ``ceil(slots/N)`` shards; each replica it newly assigns is
        synced at once from a replica that was fresh before the move,
        so a move never opens a freshness gap.
        """
        if self._incidents or self.under_replicated_shards():
            return 0
        shards = range(self.config.shards)
        before = [list(self.shard_map.replicas[s]) for s in shards]
        sources = [self._fresh_live(s)[0] for s in shards]
        live = sorted(n for n, node in self.nodes.items() if node.up)
        self.shard_map.rebalance(live)
        moves = 0
        for s in shards:
            for name in self.shard_map.replicas[s]:
                if name not in before[s]:
                    self._sync_node(s, self.nodes[sources[s]], self.nodes[name])
                    moves += 1
        self.replica_moves += moves
        return moves

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
            "replica_moves": float(self.replica_moves),
            "critical_path_seconds": self.critical_path_seconds(),
            "total_node_seconds": self.total_node_seconds(),
        }
