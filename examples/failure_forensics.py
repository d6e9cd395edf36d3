#!/usr/bin/env python
"""Failure handling and time-of-death forensics.

Demonstrates the three failure behaviours the paper designs for:

1. **gmetad fail-over** (Fig. 1): the polled gmond node stop-fails and
   the monitor transparently moves to a redundant endpoint -- any agent
   can serve the whole cluster.
2. **Host death in the archives**: a silent host gets "a 'zero' record
   during the downtime, aiding time-of-death forensic analysis".
3. **Wide-area partition**: the trust edge to a remote grid goes dark,
   the source is marked down but its last state is kept; when the
   partition heals, polling resumes -- no permanent fissure.

Run:  python examples/failure_forensics.py
"""

from repro import (
    Engine,
    Fabric,
    Gmetad,
    GmetadConfig,
    RngRegistry,
    SimulatedCluster,
    TcpNetwork,
)
from repro.analysis.availability import cluster_availability
from repro.analysis.forensics import estimate_death_time
from repro.faults.injector import FaultInjector
from repro.rrd.store import MetricKey


def main() -> None:
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(7)
    injector = FaultInjector(engine, fabric)

    cluster = SimulatedCluster.build(
        engine, fabric, tcp, rngs, name="meteor", num_hosts=6
    )
    cluster.start()

    config = GmetadConfig(name="mon", host="gmeta-mon", archive_mode="full")
    config.add_source("meteor", cluster.gmond_addresses(count=3))
    gmetad = Gmetad(engine, fabric, tcp, config)
    gmetad.start()
    engine.run_for(120.0)

    # -- 1. fail-over between gmond endpoints --------------------------------
    poller = gmetad.pollers["meteor"]
    victim = poller.current_address.host
    print(f"=== 1. stop-failure of the polled node ({victim}) ===")
    injector.crash_host(victim, at=0.0)
    cluster.agent(victim).stop()
    death_time = engine.now
    engine.run_for(60.0)
    print(f"  polling now uses {poller.current_address.host} "
          f"(failovers: {poller.failovers}); source still up: "
          f"{gmetad.datastore.source('meteor').up}")

    # -- 2. the dead host in summaries and archives ---------------------------
    engine.run_for(240.0)
    snapshot = gmetad.datastore.source("meteor")
    print("\n=== 2. forensics on the dead host ===")
    print(f"  summary now: up={snapshot.summary.hosts_up} "
          f"down={snapshot.summary.hosts_down}")
    database = gmetad.rrd_store.database(
        MetricKey("meteor", "meteor", victim, "load_one")
    )
    database.flush(engine.now)
    times, values, resolution = database.fetch(0.0, engine.now)
    print(f"  {victim} load_one archive ({resolution:.0f}s rows):")
    for t, v in list(zip(times, values))[-8:]:
        marker = "  <-- zero record (downtime)" if v == 0.0 else ""
        print(f"    t={t:6.0f}s  load={v:5.2f}{marker}")
    # the library's forensic analysis over the same archive
    death_estimate = estimate_death_time(database, 0.0, engine.now)
    if death_estimate is not None:
        print(f"  time-of-death estimate: records go to zero at "
              f"t={death_estimate:.0f}s (actual crash: t={death_time:.0f}s;"
              " the lag is the heartbeat window the monitor needs to"
              " declare the host dead)")
    report = cluster_availability(
        gmetad.rrd_store, "meteor", "meteor", 0.0, engine.now
    )
    print("\n" + report.render())

    # -- 3. a partition to the whole cluster, then healing --------------------
    print("\n=== 3. partition between the monitor and the cluster ===")
    others = [h for h in cluster.host_names if h != victim]
    injector.partition(["gmeta-mon"], others, at=0.0, duration=120.0)
    engine.run_for(90.0)
    snapshot = gmetad.datastore.source("meteor")
    print(f"  during partition: source up={snapshot.up} "
          f"(consecutive failures: {snapshot.consecutive_failures}); "
          f"stale state kept: {snapshot.columns.host_count} hosts")
    engine.run_for(90.0)  # heal + resume
    snapshot = gmetad.datastore.source("meteor")
    print(f"  after healing:    source up={snapshot.up} -- "
          "monitoring resumed, no permanent fissure")

    print("\nfault log:")
    for t, action, subject in injector.log:
        print(f"  [{t:7.1f}s] {action:10s} {subject}")

    gmetad.stop()
    cluster.stop()


if __name__ == "__main__":
    main()
