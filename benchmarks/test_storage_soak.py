"""Storage-tier soak: parallel-flush scaling and availability under kills.

Two questions, two arms, one committed artifact (``BENCH_storage.json``):

**Throughput** -- the same column-scatter archive workload lands on
fleets of 1 / 2 / 4 / 8 storage nodes (R=1, so physical work equals
logical work).  The tier's flush bound is the *busiest* node's simulated
seconds (``critical_path_seconds``); archive throughput is logical
updates over that bound and must scale >= 2x from 1 to 4 nodes for the
parallel flush to be worth its bookkeeping.

**Availability** -- a 4-node fleet ingests a steady columnar workload
while a :class:`~repro.faults.schedules.FaultSchedule` kills storage
nodes on a fixed timetable and a prober fetches series every few
seconds.  Two sub-arms differ only in replication: **R=1** (every kill
makes its shards unreachable until the node returns) vs **R=2** (fetches
fail over to the surviving replica and anti-entropy recruits a
replacement).  Headline numbers: fetch availability, failover count,
lost-write count, and worst time-to-repair against the configured
deadline.  Acceptance, from the issue: R=2 availability >= 0.99 while
the unreplicated arm visibly loses fetches, and every shard is back to
full replication before the soak ends.

The full matrix is ``slow``; the ``smoke`` variant (one kill, shorter
soak) is CI-sized and uploads its report from the storage-soak job.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.schedules import FaultEvent, FaultSchedule
from repro.net.fabric import Fabric
from repro.rrd.store import MetricKey
from repro.sim.engine import Engine
from repro.storage import StorageTier, StorageTierConfig, StorageUnavailable

NODE_SWEEP = [1, 2, 4, 8]
SHARDS = 32
FLUSH_ROUNDS = 40
STEP = 15.0
UPDATE_COST = 2.5e-5  # simulated seconds per physical RRD update

SOAK_SECONDS = 600.0
SOAK_NODES = 4
PROBE_INTERVAL = 5.0
REPAIR_INTERVAL = 10.0
REPAIR_DEADLINE = 60.0

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_storage.json"


def workload_keys(clusters=4, hosts=16, metrics=8) -> List[MetricKey]:
    return [
        MetricKey(f"src{c}", f"cl{c}", f"h{h:02d}", f"m{m}")
        for c in range(clusters)
        for h in range(hosts)
        for m in range(metrics)
    ]


# -- arm (a): parallel-flush throughput vs fleet width ----------------------


@dataclass
class ThroughputPoint:
    nodes: int
    logical_updates: int
    critical_path_seconds: float
    total_node_seconds: float
    wall_seconds: float

    @property
    def throughput(self) -> float:
        """Logical archive updates per simulated second of flush bound."""
        return self.logical_updates / self.critical_path_seconds

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "logical_updates": self.logical_updates,
            "critical_path_seconds": round(self.critical_path_seconds, 4),
            "total_node_seconds": round(self.total_node_seconds, 4),
            "updates_per_busy_second": round(self.throughput, 1),
            "wall_seconds": round(self.wall_seconds, 3),
        }


def run_throughput_point(nodes: int) -> ThroughputPoint:
    started = time.perf_counter()
    engine = Engine()
    tier = StorageTier(
        engine,
        StorageTierConfig(
            nodes=nodes,
            shards=SHARDS,
            replication=1,
            repair_interval=0.0,
            rebalance_interval=0.0,
            rrd_update_cost=UPDATE_COST,
        ),
        mode="account",  # accounting is what this arm measures
    )
    keys = workload_keys()
    plan = tier.column_plan(keys)
    values = np.arange(len(keys), dtype=float)
    for i in range(FLUSH_ROUNDS):
        tier.update_columns(plan, STEP * (i + 1), values + i)
    assert tier.updates_lost == 0
    return ThroughputPoint(
        nodes=nodes,
        logical_updates=tier.update_count,
        critical_path_seconds=tier.critical_path_seconds(),
        total_node_seconds=tier.total_node_seconds(),
        wall_seconds=time.perf_counter() - started,
    )


# -- arm (b): availability + time-to-repair under a kill schedule -----------


def kill_schedule() -> FaultSchedule:
    """Three non-overlapping single-node kills across the soak.

    Kill times are deliberately *off* the 10 s repair-sweep grid so
    every incident has a real (several-second) exposure window before
    anti-entropy closes it -- time-to-repair stays a measured quantity
    instead of a degenerate 0.
    """
    return FaultSchedule(
        [
            FaultEvent(
                at=63.0, action="storage_kill", host="st00", duration=90.0
            ),
            FaultEvent(
                at=243.0, action="storage_kill", host="st02", duration=90.0
            ),
            FaultEvent(
                at=423.0, action="storage_kill", host="st01", duration=90.0
            ),
        ]
    )


@dataclass
class SoakResult:
    replication: int
    probes: int = 0
    probe_failures: int = 0
    wall_seconds: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)
    repair_times: List[float] = field(default_factory=list)
    #: replica slots per node at the end of the soak
    loads: Dict[str, int] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        return (
            (self.probes - self.probe_failures) / self.probes
            if self.probes
            else 0.0
        )

    @property
    def worst_repair(self) -> float:
        return max(self.repair_times, default=0.0)

    @property
    def load_spread(self) -> int:
        """Most minus fewest replica slots on any node."""
        return max(self.loads.values()) - min(self.loads.values())

    def to_dict(self) -> dict:
        return {
            "replication": self.replication,
            "probes": self.probes,
            "probe_failures": self.probe_failures,
            "fetch_availability": round(self.availability, 4),
            "worst_repair_seconds": round(self.worst_repair, 1),
            "repair_times_seconds": [round(t, 1) for t in self.repair_times],
            "replica_slots_per_node": self.loads,
            "wall_seconds": round(self.wall_seconds, 3),
            "stats": {k: round(v, 4) for k, v in self.stats.items()},
        }


def run_soak_arm(
    replication: int,
    schedule: FaultSchedule,
    soak_seconds: float = SOAK_SECONDS,
    nodes: int = SOAK_NODES,
) -> SoakResult:
    started = time.perf_counter()
    engine = Engine()
    fabric = Fabric()
    tier = StorageTier(
        engine,
        StorageTierConfig(
            nodes=nodes,
            shards=16,
            replication=replication,
            repair_interval=REPAIR_INTERVAL,
            repair_deadline=REPAIR_DEADLINE,
            rebalance_interval=120.0,
            rrd_update_cost=UPDATE_COST,
        ),
        mode="full",
    ).start()
    keys = workload_keys(clusters=4, hosts=8, metrics=8)
    plan = tier.column_plan(keys)
    values = np.arange(len(keys), dtype=float)

    def flush() -> None:
        tier.update_columns(plan, engine.now, values + engine.now)

    result = SoakResult(replication=replication)
    probe_state = {"i": 0}

    def probe() -> None:
        # one fetch per series *group* each tick (groups share a shard,
        # so this sweeps the whole shard space every probe interval)
        for g in range(0, len(keys), 8):
            key = keys[g + probe_state["i"] % 8]
            result.probes += 1
            try:
                tier.fetch_series(key, 0.0, engine.now)
            except (StorageUnavailable, KeyError):
                result.probe_failures += 1
        probe_state["i"] += 1

    engine.every(STEP, flush, initial_delay=STEP)
    engine.every(PROBE_INTERVAL, probe, initial_delay=2.0 * STEP)
    injector = FaultInjector(engine, fabric)
    injector.register_storage_tier(tier)
    schedule.apply(injector)
    engine.run_for(soak_seconds)
    result.stats = tier.stats()
    result.repair_times = list(tier.repair_times)
    result.loads = tier.shard_map.loads(sorted(tier.nodes))
    result.wall_seconds = time.perf_counter() - started
    return result


# -- rendering + acceptance -------------------------------------------------


def render(
    sweep: List[ThroughputPoint], soaks: Dict[int, SoakResult]
) -> str:
    lines = [
        "Storage-tier soak: parallel flush scaling + kill-schedule "
        "availability",
        f"{'nodes':>6}{'updates':>9}{'crit.path':>11}{'upd/s':>10}"
        f"{'speedup':>9}",
    ]
    base = sweep[0].throughput
    for point in sweep:
        lines.append(
            f"{point.nodes:>6}{point.logical_updates:>9}"
            f"{point.critical_path_seconds:>11.3f}"
            f"{point.throughput:>10.0f}"
            f"{point.throughput / base:>9.2f}"
        )
    lines.append("")
    lines.append(
        f"{'R':>3}{'probes':>8}{'failed':>8}{'avail':>8}{'failover':>9}"
        f"{'lost':>6}{'worst-repair':>13}"
    )
    for r, soak in sorted(soaks.items()):
        lines.append(
            f"{r:>3}{soak.probes:>8}{soak.probe_failures:>8}"
            f"{soak.availability:>8.4f}"
            f"{soak.stats['failover_fetches']:>9.0f}"
            f"{soak.stats['updates_lost']:>6.0f}"
            f"{soak.worst_repair:>12.1f}s"
        )
    return "\n".join(lines)


def acceptance(
    sweep: List[ThroughputPoint], soaks: Dict[int, SoakResult]
) -> dict:
    by_nodes = {p.nodes: p for p in sweep}
    return {
        "flush_scaling_1_to_4": round(
            by_nodes[4].throughput / by_nodes[1].throughput, 2
        ),
        "flush_scaling_1_to_8": round(
            by_nodes[8].throughput / by_nodes[1].throughput, 2
        ),
        "r1_availability": round(soaks[1].availability, 4),
        "r2_availability": round(soaks[2].availability, 4),
        "r1_probe_failures": soaks[1].probe_failures,
        "r2_probe_failures": soaks[2].probe_failures,
        "r2_worst_repair_seconds": round(soaks[2].worst_repair, 1),
        "r2_critical_path_seconds": round(
            soaks[2].stats["critical_path_seconds"], 4
        ),
        "repair_deadline_seconds": REPAIR_DEADLINE,
        "r2_under_replicated_at_end": soaks[2].stats[
            "under_replicated_shards"
        ],
    }


@pytest.fixture(scope="module")
def sweep() -> List[ThroughputPoint]:
    return [run_throughput_point(n) for n in NODE_SWEEP]


@pytest.fixture(scope="module")
def soaks() -> Dict[int, SoakResult]:
    return {r: run_soak_arm(r, kill_schedule()) for r in (1, 2)}


@pytest.mark.slow
def test_write_storage_bench(sweep, soaks, bench_env, save_report):
    save_report("storage_soak", render(sweep, soaks))
    payload = {
        "benchmark": "storage_soak",
        "shards": SHARDS,
        "flush_rounds": FLUSH_ROUNDS,
        "series": len(workload_keys()),
        "node_sweep": NODE_SWEEP,
        "soak_seconds": SOAK_SECONDS,
        "soak_nodes": SOAK_NODES,
        "probe_interval_seconds": PROBE_INTERVAL,
        "repair_interval_seconds": REPAIR_INTERVAL,
        "kill_schedule": [
            {"at": e.at, "host": e.host, "duration": e.duration}
            for e in kill_schedule().events
        ],
        "throughput": [p.to_dict() for p in sweep],
        "soak": {f"r{r}": s.to_dict() for r, s in sorted(soaks.items())},
        "acceptance": acceptance(sweep, soaks),
        "environment": bench_env,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.slow
def test_flush_throughput_scales_with_nodes(sweep):
    """Acceptance: >= 2x flush throughput going 1 -> 4 nodes."""
    numbers = {p.nodes: p.throughput for p in sweep}
    assert numbers[4] / numbers[1] >= 2.0, numbers
    # logical work is identical in every arm -- only the spread changes
    assert len({p.logical_updates for p in sweep}) == 1


@pytest.mark.slow
def test_replicated_arm_rides_through_kills(soaks):
    """Acceptance: R=2 keeps fetch availability >= 0.99 under the kill
    schedule while the unreplicated arm visibly loses fetches."""
    assert soaks[2].availability >= 0.99, soaks[2].to_dict()
    assert soaks[2].stats["failover_fetches"] > 0
    assert soaks[1].probe_failures > 0, soaks[1].to_dict()
    assert soaks[1].availability < soaks[2].availability


@pytest.mark.slow
def test_every_shard_repaired_before_soak_end(soaks):
    """Acceptance: anti-entropy restored R everywhere, inside deadline,
    and the shard rebalance gave every restarted node its share back."""
    soak = soaks[2]
    assert soak.stats["under_replicated_shards"] == 0, soak.to_dict()
    assert soak.repair_times, "no incident was ever recorded"
    assert soak.worst_repair <= REPAIR_DEADLINE, soak.repair_times
    assert soak.load_spread <= 1, soak.loads


@pytest.mark.smoke
def test_smoke_single_kill_soak(save_report):
    """CI-sized spot check: 2-node throughput point + one-kill soak."""
    one, two = run_throughput_point(1), run_throughput_point(2)
    assert two.throughput > 1.5 * one.throughput
    schedule = FaultSchedule(
        [
            FaultEvent(
                at=45.0, action="storage_kill", host="st00", duration=45.0
            )
        ]
    )
    soak = run_soak_arm(2, schedule, soak_seconds=180.0)
    assert soak.probes > 50
    assert soak.availability == 1.0
    assert soak.stats["under_replicated_shards"] == 0
    assert soak.worst_repair <= REPAIR_DEADLINE
    assert soak.load_spread <= 1, soak.loads
    save_report(
        "storage_soak_smoke",
        "Storage smoke: 1->2 node speedup "
        f"{two.throughput / one.throughput:.2f}x; one-kill soak "
        f"probes={soak.probes} avail={soak.availability:.4f} "
        f"failover={soak.stats['failover_fetches']:.0f} "
        f"worst_repair={soak.worst_repair:.1f}s",
    )
