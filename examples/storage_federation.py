#!/usr/bin/env python
"""A replicated, sharded storage tier behind the Fig. 2 federation.

The paper's gmetad archives every metric into local RRD files -- one
disk, one failure domain (§2.4).  This example attaches the
:mod:`repro.storage` subsystem to each gmetad in the paper tree and
walks the robustness story end to end:

1. every gmetad archives through a fleet of four simulated storage
   nodes: the series of one (source, cluster, host) hash to one fixed
   shard, and each shard lives on R=2 replicas -- the archiver's
   charged CPU is identical to the single-store baseline, only the
   flush parallelism changes;
2. a :class:`FaultSchedule` kills one storage node mid-run: fetches
   against its shards fail over to the surviving replicas while
   anti-entropy recruits replacements and re-replicates the series;
3. the node comes back *stale* and holding no replica slots; the
   shard rebalance hands it its share back (each moved replica synced
   by one bank-block copy), and the measured time-to-repair for every
   incident is printed against the configured deadline;
4. the ``__gmetad__`` self-cluster surfaces the tier's counters
   (under-replicated shards, failovers, repairs, replica moves) in
   band.

Run:  python examples/storage_federation.py
"""

from repro import build_paper_tree
from repro.faults.injector import FaultInjector
from repro.faults.schedules import FaultEvent, FaultSchedule
from repro.obs.config import ObservabilityConfig
from repro.storage import StorageTierConfig

WARMUP = 60.0
KILL_AT = 95.0
KILL_FOR = 120.0
VICTIM = "st00"


def main() -> None:
    storage = StorageTierConfig(
        nodes=4, shards=16, replication=2,
        repair_interval=15.0, repair_deadline=60.0,
    )
    federation = build_paper_tree(
        "nlevel", hosts_per_cluster=10, archive_mode="full",
        storage_tier=storage, observability=ObservabilityConfig(),
    )
    federation.start()
    engine = federation.engine
    engine.run_for(WARMUP)

    # -- 1. every archive flows through the fleet, R-way ---------------------
    sdsc = federation.gmetad("sdsc")
    tier = sdsc.rrd_store
    print("=== storage fleet behind gmeta-sdsc ===")
    for name, node in tier.nodes.items():
        print(f"{name}: {node.updates_applied} physical updates, "
              f"{len(node.store)} series, busy {node.busy_seconds:.3f}s")
    stats = tier.stats()
    print(f"logical updates {stats['logical_updates']:.0f}, physical "
          f"{stats['physical_updates']:.0f} (R=2 fan-out), flush critical "
          f"path {stats['critical_path_seconds']:.3f}s of "
          f"{stats['total_node_seconds']:.3f}s total node work")

    # -- 2+3. kill a node on a schedule; watch failover and repair -----------
    injector = FaultInjector(engine, federation.fabric)
    for gmetad in federation.gmetads.values():
        injector.register_storage_tier(gmetad.rrd_store)
    FaultSchedule([
        FaultEvent(at=KILL_AT - engine.now if engine.now < KILL_AT else 0.0,
                   action="storage_kill", host=VICTIM, duration=KILL_FOR),
    ]).apply(injector)

    # probe a series whose shard is *led* by the victim, so the fetch
    # below demonstrably fails over to the surviving replica
    probe_key = next(
        k for k in tier.keys()
        if tier.shard_map.replicas[tier._shard_of(k)][0] == VICTIM
    )
    engine.run_for(KILL_AT - engine.now + 5.0)
    print(f"\n=== {VICTIM} killed at t={KILL_AT:g}s ===")
    print(f"nodes up: {tier.nodes_up()}/{len(tier.nodes)}, "
          f"under-replicated shards: {tier.under_replicated_shards()}")
    values, _, _ = tier.fetch_series(probe_key, 0.0, engine.now)
    print(f"fetch of {probe_key.metric} for {probe_key.host} still serves "
          f"{len(values)} samples (failovers so far: "
          f"{tier.failover_fetches})")

    engine.run_for(KILL_FOR + 30.0)  # node returns stale, wins slots back
    print(f"\n=== after restart, anti-entropy and shard rebalance ===")
    print(f"nodes up: {tier.nodes_up()}/{len(tier.nodes)}, "
          f"under-replicated shards: {tier.under_replicated_shards()}, "
          f"repairs completed: {tier.repairs_completed}, "
          f"replica moves: {tier.replica_moves}")
    loads = tier.shard_map.loads(sorted(tier.nodes))
    print("replica slots per node: "
          + ", ".join(f"{name} {count}" for name, count in loads.items()))
    worst = max(tier.repair_times, default=0.0)
    print(f"time-to-repair per incident: "
          + ", ".join(f"{t:.0f}s" for t in tier.repair_times)
          + f" (worst {worst:.0f}s vs {storage.repair_deadline:g}s deadline)")
    print(f"updates lost across the outage: {tier.updates_lost:.0f} "
          f"(R=2: surviving replicas absorbed every batch)")

    # -- 4. the tier's counters ride the in-band self-cluster ----------------
    sdsc.obs.sync_daemon_gauges()
    snapshot = sdsc.obs.registry.snapshot()
    print("\n=== __gmetad__ self-cluster storage gauges ===")
    for name in sorted(snapshot):
        if name.startswith("storage_"):
            print(f"{name} = {snapshot[name]:g}")

    federation.stop()


if __name__ == "__main__":
    main()
