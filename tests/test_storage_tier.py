"""Storage tier behaviour: routing, failover, anti-entropy, fault events.

The tier's contract has three faces, each pinned here:

- **RrdStore surface** -- scalar and columnar writes land the same
  values a single :class:`~repro.rrd.store.RrdStore` would hold, and
  account mode mirrors the baseline's empty-key-list parity;
- **robustness** -- kills fail fetches over to surviving replicas,
  lost-write and failure counters move, and the anti-entropy sweep
  restores full replication (including re-syncing restarted-but-stale
  nodes) with value-identical archives, and the shard rebalance hands
  a restarted node its replica slots back with bounded moves;
- **fault plumbing** -- ``storage_kill`` / ``storage_restart`` schedule
  events validate, dispatch, and replay deterministically.
"""

import math

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.schedules import FaultEvent, FaultSchedule
from repro.net.fabric import Fabric
from repro.rrd.store import MetricKey, RrdStore
from repro.sim.engine import Engine
from repro.storage import (
    StorageTier,
    StorageTierConfig,
    StorageUnavailable,
)


def make_tier(engine, **overrides):
    defaults = dict(
        nodes=4,
        shards=8,
        replication=2,
        repair_interval=0.0,  # sweeps run manually in unit tests
        rebalance_interval=0.0,
        rrd_update_cost=1e-5,
    )
    defaults.update(overrides)
    return StorageTier(engine, StorageTierConfig(**defaults))


def key(host, metric="cpu_user", source="sdsc", cluster="c0"):
    return MetricKey(source, cluster, host, metric)


def write_ramp(store, keys, steps=8, step=15.0, t0=15.0):
    for i in range(steps):
        t = t0 + i * step
        for j, k in enumerate(keys):
            store.update(k, t, float(10 * j + i))


def assert_same_series(a, b):
    """Two ``fetch_series`` results hold the same samples."""
    av, at, ar = a
    bv, bt, br = b
    assert br == ar
    assert np.array_equal(bt, at)
    assert np.array_equal(bv, av, equal_nan=True)


class TestTierSurface:
    def test_scalar_updates_match_single_store(self, engine):
        tier = make_tier(engine)
        single = RrdStore(mode="full")
        keys = [key(f"h{i}") for i in range(12)]
        write_ramp(tier, keys)
        write_ramp(single, keys)
        assert tier.update_count == single.update_count
        assert len(tier) == len(single)
        assert tier.keys() == single.keys()
        for k in keys:
            assert_same_series(
                tier.fetch_series(k, 0.0, 200.0),
                single.fetch_series(k, 0.0, 200.0),
            )

    def test_column_plan_matches_single_store(self, engine):
        tier = make_tier(engine)
        single = RrdStore(mode="full")
        keys = [key(f"h{i}", m) for i in range(6) for m in ("a", "b")]
        tier_plan = tier.column_plan(keys)
        single_plan = single.column_plan(keys)
        for i in range(6):
            values = np.arange(len(keys), dtype=float) + i
            t = 15.0 * (i + 1)
            tier.update_columns(tier_plan, t, values)
            single.update_columns(single_plan, t, values)
        assert tier.update_count == single.update_count
        for k in keys:
            assert_same_series(
                tier.fetch_series(k, 0.0, 200.0),
                single.fetch_series(k, 0.0, 200.0),
            )

    def test_update_summary_writes_base_and_num(self, engine):
        tier = make_tier(engine)
        tier.update_summary("sdsc", "c0", "load_one", 15.0, 42.0, 7)
        assert tier.update_count == 2
        metrics = {k.metric for k in tier.keys()}
        assert metrics == {"load_one", "load_one.num"}

    def test_replicas_hold_identical_copies(self, engine):
        tier = make_tier(engine)
        k = key("h0")
        write_ramp(tier, [k])
        s = tier._shard_of(k)
        fetches = [
            tier.nodes[name].store.fetch_series(k, 0.0, 200.0)
            for name in tier.shard_map.replicas[s]
        ]
        assert len(fetches) == 2
        assert_same_series(fetches[0], fetches[1])

    def test_account_mode_parity(self, engine):
        tier = make_tier(engine)
        account = StorageTier(
            engine,
            StorageTierConfig(nodes=2, shards=4),
            mode="account",
        )
        write_ramp(account, [key("h0"), key("h1")])
        assert account.keys() == []
        assert len(account) == 0
        with pytest.raises(RuntimeError):
            account.database(key("h0"))
        assert account.update_count == 16

    def test_on_update_counts_logical_not_physical(self, engine):
        seen = []
        tier = make_tier(engine)
        tier.on_update = seen.append
        write_ramp(tier, [key("h0")], steps=3)
        # R=2 fan-out must not double the charged work
        assert sum(seen) == 3


class TestFailoverAndRepair:
    def test_fetch_fails_over_to_surviving_replica(self, engine):
        tier = make_tier(engine)
        k = key("h0")
        write_ramp(tier, [k])
        s = tier._shard_of(k)
        primary = tier.shard_map.replicas[s][0]
        before = tier.fetch_series(k, 0.0, 200.0)
        tier.kill_node(primary)
        assert_same_series(tier.fetch_series(k, 0.0, 200.0), before)
        assert tier.failover_fetches >= 1
        assert tier.fetch_failures == 0

    def test_unreplicated_fetch_fails_when_node_dies(self, engine):
        tier = make_tier(engine, replication=1)
        k = key("h0")
        write_ramp(tier, [k])
        s = tier._shard_of(k)
        tier.kill_node(tier.shard_map.replicas[s][0])
        with pytest.raises(StorageUnavailable):
            tier.fetch_series(k, 0.0, 200.0)
        assert tier.fetch_failures == 1

    def test_writes_with_no_live_replica_are_lost(self, engine):
        tier = make_tier(engine, nodes=2, replication=2)
        k = key("h0")
        tier.update(k, 15.0, 1.0)
        for name in list(tier.nodes):
            tier.kill_node(name)
        tier.update(k, 30.0, 2.0)
        assert tier.updates_lost == 1
        assert tier.update_count == 2  # logical count still moves

    def test_repair_restores_replication_with_identical_data(self, engine):
        tier = make_tier(engine)
        keys = [key(f"h{i}") for i in range(10)]
        write_ramp(tier, keys)
        victim = tier.shard_map.replicas[tier._shard_of(keys[0])][0]
        tier.kill_node(victim)
        assert tier.under_replicated_shards() > 0
        engine.run_for(5.0)
        tier.repair_sweep()
        assert tier.under_replicated_shards() == 0
        assert tier.repairs_completed > 0
        assert tier.repair_times and all(t >= 0 for t in tier.repair_times)
        # the recruited replicas hold byte-identical series
        for k in keys:
            s = tier._shard_of(k)
            fetches = [
                tier.nodes[n].store.fetch_series(k, 0.0, 200.0)
                for n in tier.shard_map.replicas[s]
                if tier.nodes[n].up
            ]
            assert len(fetches) == 2
            assert_same_series(fetches[0], fetches[1])

    def test_restarted_node_is_stale_until_synced(self, engine):
        tier = make_tier(engine)
        k = key("h0")
        tier.update(k, 15.0, 1.0)
        s = tier._shard_of(k)
        victim = tier.shard_map.replicas[s][0]
        tier.kill_node(victim)
        tier.update(k, 30.0, 2.0)  # missed by the victim
        tier.restart_node(victim)
        assert victim not in tier._fresh_live(s)
        tier.repair_sweep()
        assert victim in tier.shard_map.replicas[s] or tier.nodes[victim].up
        assert tier.under_replicated_shards() == 0
        # wherever the shard now lives, all fresh replicas agree
        fresh = tier._fresh_live(s)
        assert fresh
        fetches = [
            tier.nodes[n].store.fetch_series(k, 0.0, 100.0) for n in fresh
        ]
        for other in fetches[1:]:
            assert_same_series(fetches[0], other)

    def test_repair_survives_total_shard_loss_until_restart(self, engine):
        tier = make_tier(engine, nodes=2, replication=2)
        k = key("h0")
        tier.update(k, 15.0, 1.0)
        for name in list(tier.nodes):
            tier.kill_node(name)
        assert tier.repair_sweep() == 0  # nothing fresh to copy from
        assert tier.under_replicated_shards() > 0
        for name in list(tier.nodes):
            tier.restart_node(name)
        # restarted nodes still hold their pre-kill state and versions
        tier.repair_sweep()
        assert tier.under_replicated_shards() == 0

    def test_rebalance_moves_are_bounded(self, engine):
        tier = make_tier(engine)
        keys = [key(f"h{i}", cluster=f"c{i % 4}") for i in range(24)]
        write_ramp(tier, keys, steps=2)
        tier.kill_node("st01")
        tier.repair_sweep()  # re-homes every st01 slot
        tier.restart_node("st01")
        assert not tier.shard_map.shards_on("st01")
        slots = tier.config.shards * tier.config.replication
        moved = tier.rebalance_sweep()
        assert 0 < moved <= math.ceil(slots / len(tier.nodes))
        assert tier.replica_moves == moved
        loads = tier.shard_map.loads(sorted(tier.nodes))
        assert max(loads.values()) - min(loads.values()) <= 1
        assert tier.under_replicated_shards() == 0
        # fetches still resolve after the move, from fresh replicas only
        for k in keys:
            tier.fetch_series(k, 0.0, 100.0)
        assert tier.stale_fetches == 0

    def test_rebalance_waits_for_open_repair_incidents(self, engine):
        tier = make_tier(engine)
        write_ramp(tier, [key(f"h{i}") for i in range(8)], steps=1)
        tier.kill_node("st01")
        before = [list(nodes) for nodes in tier.shard_map.replicas]
        assert tier.rebalance_sweep() == 0
        assert tier.shard_map.replicas == before

    def test_column_plans_follow_migrations(self, engine):
        tier = make_tier(engine, shards=4)
        single = RrdStore(mode="full")
        keys = [key(f"h{i}", cluster=f"c{i % 3}") for i in range(12)]
        plan = tier.column_plan(keys)
        single_plan = single.column_plan(keys)

        def write(steps):
            for i in steps:
                values = np.arange(len(keys), dtype=float) * (i + 1)
                tier.update_columns(plan, 15.0 * (i + 1), values)
                single.update_columns(single_plan, 15.0 * (i + 1), values)

        write(range(4))
        tier.kill_node("st01")
        tier.repair_sweep()
        write(range(4, 6))  # missed by st01
        tier.restart_node("st01")
        assert tier.rebalance_sweep() > 0
        write(range(6, 9))
        # the moved replicas were synced and take the plan's writes:
        # every replica of every shard, st01's included, equals the twin
        assert tier.shard_map.shards_on("st01")
        for k in keys:
            want = single.fetch_series(k, 0.0, 200.0)
            for name in tier.shard_map.replicas[tier._shard_of(k)]:
                assert_same_series(
                    tier.nodes[name].store.fetch_series(k, 0.0, 200.0), want
                )

    def test_restarted_node_wins_its_replica_slots_back(self, engine):
        tier = make_tier(
            engine, shards=16, repair_interval=10.0, rebalance_interval=120.0
        ).start()
        single = RrdStore(mode="full")
        keys = [key(f"h{i}", m, cluster=f"c{i % 4}")
                for i in range(16) for m in ("a", "b")]
        plan = tier.column_plan(keys)
        single_plan = single.column_plan(keys)

        def flush():
            values = np.arange(len(keys), dtype=float) + engine.now
            tier.update_columns(plan, engine.now, values)
            single.update_columns(single_plan, engine.now, values)

        engine.every(15.0, flush, initial_delay=15.0)
        engine.run_for(60.0)
        tier.kill_node("st01")
        engine.run_for(90.0)
        tier.restart_node("st01")
        engine.run_for(300.0)
        loads = tier.shard_map.loads(sorted(tier.nodes))
        assert max(loads.values()) - min(loads.values()) <= 1, loads
        assert tier.replica_moves > 0
        for s in range(tier.config.shards):
            assert len(tier._fresh_live(s)) == tier.config.replication
        for k in keys:
            assert_same_series(
                tier.fetch_series(k, 0.0, engine.now),
                single.fetch_series(k, 0.0, engine.now),
            )


class TestWindowReadout:
    """One bulk readout moves the tier exactly as a fetch per key does."""

    K = 4

    @staticmethod
    def counters(tier):
        return (
            tier.failover_fetches, tier.stale_fetches, tier.fetch_failures,
        )

    def fetch_every_key(self, tier, t):
        """Tier A's reads: one ``fetch_series`` per analysed key."""
        rows = {}
        for k in tier.keys():
            if k.source == "__analytics__":
                continue
            try:
                _, vals, _ = tier.fetch_series(k, t - (self.K + 1) * 15.0, t)
            except (KeyError, StorageUnavailable):
                vals = np.zeros(0)
            column = np.full(self.K, np.nan)
            if len(vals):
                column[self.K - min(self.K, len(vals)):] = vals[-self.K:]
            rows[k] = column
        return rows

    def readout(self, tier):
        """Tier B's reads: one window readout."""
        keys, values, _, _ = tier.window_readout(
            self.K, skip_source="__analytics__"
        )
        return {k: values[:, j] for j, k in enumerate(keys)}

    def test_side_effects_and_values_match_per_key_fetches(self, engine):
        tiers = [make_tier(engine, nodes=3, shards=6) for _ in range(2)]
        hosts = [key(f"h{i}", m, cluster=f"c{i % 3}")
                 for i in range(12) for m in ("a", "b")]
        own = [key("gmeta", "analytics_passes", source="__analytics__")]
        late = [key(f"late{i}") for i in range(6)]
        plans = [tier.column_plan(hosts) for tier in tiers]
        for step in range(1, 9):
            t = 15.0 * step
            for tier, plan in zip(tiers, plans):
                tier.update_columns(plan, t, np.arange(len(hosts)) * 1.0 + step)
                write_ramp(tier, own, steps=1, t0=t)
        a, b = tiers
        for tier in tiers:
            tier.kill_node("st00")
        # every read node is fresh: a failover readout, values included
        fetched, read = self.fetch_every_key(a, t), self.readout(b)
        assert list(fetched) == sorted(read)
        for k, column in read.items():
            assert np.array_equal(column, fetched[k], equal_nan=True), k
            assert not np.isnan(column).any()
        assert a.failover_fetches > 0
        assert self.counters(a) == self.counters(b)
        # st00 misses a write and the late keys, then comes back stale;
        # the other nodes die, so shards without st00 are unavailable
        for tier in tiers:
            write_ramp(tier, hosts + late, steps=1, t0=t + 15.0)
            tier.restart_node("st00")
            tier.kill_node("st01")
            tier.kill_node("st02")
        self.fetch_every_key(a, t + 15.0)
        self.readout(b)
        assert a.stale_fetches > 0 and a.fetch_failures > 0
        assert self.counters(a) == self.counters(b)

    def test_readout_matches_plain_store(self, engine):
        tier = make_tier(engine)
        single = RrdStore(mode="full")
        keys = [key(f"h{i}", m) for i in range(6) for m in ("a", "b")]
        write_ramp(tier, keys)
        write_ramp(single, keys)
        t_keys, t_values, t_rows, t_ends = tier.window_readout(5)
        s_keys, s_values, s_rows, s_ends = single.window_readout(5)
        assert t_rows == s_rows
        order = [s_keys.index(k) for k in t_keys]
        assert sorted(t_keys) == sorted(s_keys)
        assert np.array_equal(t_values, s_values[:, order], equal_nan=True)
        assert np.array_equal(t_ends, s_ends[order])

    def test_account_mode_reads_nothing(self, engine):
        tier = StorageTier(engine, StorageTierConfig(), mode="account")
        write_ramp(tier, [key("h0")])
        keys, values, _, ends = tier.window_readout(4)
        assert keys == [] and values.shape == (4, 0) and ends.size == 0


class TestObsIntegration:
    def _federation(self, storage):
        from repro.bench.topology import build_paper_tree
        from repro.obs.config import ObservabilityConfig

        federation = build_paper_tree(
            "nlevel",
            hosts_per_cluster=4,
            archive_mode="full",
            observability=ObservabilityConfig(),
            storage_tier=storage,
        )
        federation.start()
        federation.engine.run_for(120.0)
        return federation

    def test_storage_gauges_present_only_with_tier(self):
        storage = StorageTierConfig(nodes=3, shards=8, replication=2)
        with_tier = self._federation(storage)
        try:
            obs = with_tier.gmetad("sdsc").obs
            obs.sync_daemon_gauges()
            names = set(obs.registry.snapshot())
            assert "storage_nodes_up" in names
            assert "storage_under_replicated_shards" in names
            assert "storage_failover_fetches" in names
        finally:
            with_tier.stop()
        baseline = self._federation(None)
        try:
            obs = baseline.gmetad("sdsc").obs
            obs.sync_daemon_gauges()
            names = set(obs.registry.snapshot())
            assert not any(n.startswith("storage_") for n in names)
        finally:
            baseline.stop()

    def test_per_shard_flush_timings_recorded(self, engine):
        from repro.obs.registry import MetricsRegistry

        tier = make_tier(engine)
        registry = MetricsRegistry()
        tier.attach_registry(registry)
        keys = [key(f"h{i}") for i in range(8)]
        plan = tier.column_plan(keys)
        tier.update_columns(plan, 15.0, np.ones(len(keys)))
        names = set(registry.snapshot())
        flush = {n for n in names if n.startswith("storage_flush.s")}
        assert flush  # one histogram per shard the scatter touched


class TestStorageFaultEvents:
    def test_storage_events_require_host(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, action="storage_kill")
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, action="storage_restart")

    def test_kill_without_registered_tier_raises(self, engine, fabric):
        injector = FaultInjector(engine, fabric)
        injector.kill_storage_node("st00", at=1.0)
        with pytest.raises(KeyError):
            engine.run_for(2.0)

    def test_schedule_kills_and_restarts_node(self, engine, fabric):
        tier = make_tier(engine)
        injector = FaultInjector(engine, fabric)
        injector.register_storage_tier(tier)
        schedule = FaultSchedule(
            [
                FaultEvent(
                    at=10.0, action="storage_kill", host="st01", duration=20.0
                ),
                FaultEvent(at=50.0, action="storage_kill", host="st02"),
                FaultEvent(at=60.0, action="storage_restart", host="st02"),
            ]
        )
        schedule.apply(injector)
        engine.run_for(15.0)
        assert not tier.nodes["st01"].up
        engine.run_for(20.0)
        assert tier.nodes["st01"].up
        engine.run_for(20.0)
        assert not tier.nodes["st02"].up
        engine.run_for(10.0)
        assert tier.nodes["st02"].up
        actions = [(action, host) for _, action, host in injector.log]
        assert actions == [
            ("storage-kill", "st01"),
            ("storage-restart", "st01"),
            ("storage-kill", "st02"),
            ("storage-restart", "st02"),
        ]
        assert schedule.horizon() == 60.0

    def test_storage_schedule_replay_is_deterministic(self):
        schedule = FaultSchedule(
            [
                FaultEvent(
                    at=5.0 * i,
                    action="storage_kill",
                    host=f"st{i % 4:02d}",
                    duration=7.0,
                )
                for i in range(12)
            ]
        )

        def run():
            engine = Engine()
            fabric = Fabric()
            tier = make_tier(engine, repair_interval=15.0)
            tier.start()
            keys = [key(f"h{i}") for i in range(6)]
            engine.every(15.0, lambda: write_ramp(tier, keys, steps=1))
            injector = FaultInjector(engine, fabric)
            injector.register_storage_tier(tier)
            schedule.apply(injector)
            engine.run_for(90.0)
            return injector.log, tier.stats()

        (first_log, first_stats), (second_log, second_stats) = run(), run()
        assert first_log == second_log
        assert len(first_log) > 10  # the schedule actually did things
        assert first_stats == second_stats
