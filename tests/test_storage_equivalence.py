"""Byte-identical equivalence: storage tier on vs the single-store baseline.

Twin Fig. 2 federations are built from the same seed -- one archiving
through the daemon's single :class:`~repro.rrd.store.RrdStore`, one
through a replicated, sharded :class:`~repro.storage.tier.StorageTier`
(3 nodes, R=2, live anti-entropy and shard rebalance sweeps) -- and
driven through identical event sequences.  At every checkpoint every gmetad in
both trees must serve **byte-identical** XML, charge identical CPU, and
(in full archive mode) hold value-identical RRD histories.  That is the
tier's acceptance bar: replication and sharding change *where* series
live and *what survives a node kill*, never what a healthy federation
observably does.

The tier's batch scatter rides the columnar plan machinery, so the
archive-identity test runs across both columnar settings.
"""

import numpy as np
import pytest

from repro.bench.topology import build_paper_tree
from repro.net.tcp import Response
from repro.storage import StorageTierConfig

HOSTS = 5
REQUESTS = ["/", "/?filter=summary"]

#: a deliberately busy tier: replication, live repair and rebalance
#: sweeps all running while byte-identity is being asserted
TIER = StorageTierConfig(
    nodes=3,
    shards=8,
    replication=2,
    repair_interval=15.0,
    rebalance_interval=60.0,
)


def build_twins(columnar=False, **kwargs):
    """(baseline, tiered) federations built from the same seed."""
    base = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS, columnar=columnar,
        storage_tier=None, **kwargs
    ).start()
    tiered = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS, columnar=columnar,
        storage_tier=TIER, **kwargs
    ).start()
    return base, tiered


def run_both(base, tiered, duration):
    base.engine.run_for(duration)
    tiered.engine.run_for(duration)
    assert base.engine.now == tiered.engine.now


def assert_identical_everywhere(base, tiered, requests=REQUESTS):
    for name in base.gmetads:
        for request in requests:
            expected, _ = base.gmetad(name).serve_query(request)
            actual, _ = tiered.gmetad(name).serve_query(request)
            assert actual == expected, (
                f"{name} diverged on {request!r} at t={base.engine.now}"
            )


def assert_same_cpu_and_stats(base, tiered):
    """Replication fan-out must not leak into the daemon's charged CPU."""
    for name in base.gmetads:
        a, b = base.gmetad(name), tiered.gmetad(name)
        assert b.cpu.total_busy_seconds == a.cpu.total_busy_seconds, name
        assert b.polls_ingested == a.polls_ingested, name
        assert b.parse_errors == a.parse_errors, name


def assert_tier_engaged(tiered):
    """Guard against vacuous equality: archives really went through the
    fleet, R-way."""
    engaged = 0
    for g in tiered.gmetads.values():
        store = g.rrd_store
        assert getattr(store, "is_storage_tier", False)
        if store.update_count == 0:
            continue
        engaged += 1
        physical = sum(n.updates_applied for n in store.nodes.values())
        if store.mode == "full" and not any(
            n.kills for n in store.nodes.values()
        ):
            assert physical == 2 * store.update_count  # R=2, all nodes up
        assert store.updates_lost == 0
        assert store.critical_path_seconds() > 0
    assert engaged


def test_steady_churn_serves_identical_bytes():
    """Default workload: every pseudo re-randomizes each poll cycle."""
    base, tiered = build_twins()
    for _ in range(5):
        run_both(base, tiered, 30.0)
        assert_identical_everywhere(base, tiered)
    assert_identical_everywhere(
        base, tiered, ["/sdsc", "/ucsd", "/sdsc-c0", "/sdsc-c0/sdsc-c0-0-0"]
    )
    assert_same_cpu_and_stats(base, tiered)
    assert_tier_engaged(tiered)


def test_mutations_and_host_death():
    """Partial mutations, a host dying past the heartbeat window, and
    its recovery all serialize identically through the tier."""
    base, tiered = build_twins(freeze_values=True)
    run_both(base, tiered, 45.0)
    for fed in (base, tiered):
        assert fed.pseudos["sdsc-c0"].mutate(hosts=[0, 2]) == 2
        fed.pseudos["attic-c2"].set_host_down(1)
    run_both(base, tiered, 120.0)  # past the heartbeat window: host down
    assert_identical_everywhere(base, tiered)
    for fed in (base, tiered):
        fed.pseudos["attic-c2"].set_host_down(1, down=False)
    run_both(base, tiered, 60.0)
    assert_identical_everywhere(base, tiered)
    assert_same_cpu_and_stats(base, tiered)


def test_parse_errors_handled_identically():
    """A source serving garbage XML degrades both twins the same way."""
    base, tiered = build_twins(freeze_values=True)
    run_both(base, tiered, 45.0)
    for fed in (base, tiered):
        address = fed.pseudos["physics-c0"].address
        fed.tcp.close(address)
        fed.tcp.listen(
            address, lambda client, request: Response("<GANGLIA_XML <<<")
        )
    run_both(base, tiered, 45.0)
    assert base.gmetad("physics").parse_errors > 0
    assert tiered.gmetad("physics").parse_errors > 0
    assert_identical_everywhere(base, tiered)
    assert_same_cpu_and_stats(base, tiered)


@pytest.mark.parametrize("columnar", [False, True])
def test_full_archives_value_identical(columnar):
    """Full archive mode: every series fetched through the tier (with
    its replica-choosing read path) equals the single store's copy --
    across both the scalar update path and the columnar batch scatter,
    and across live shard moves: a storage node dies, repair re-homes
    its replicas, and after its restart the rebalance sweep moves
    replica slots back onto it."""
    base, tiered = build_twins(columnar=columnar, archive_mode="full")
    run_both(base, tiered, 150.0)
    tiers = [g.rrd_store for g in tiered.gmetads.values()]
    for tier in tiers:
        tier.kill_node("st01")
    run_both(base, tiered, 45.0)
    for tier in tiers:
        tier.restart_node("st01")
    for fed in (base, tiered):
        fed.pseudos["sdsc-c0"].mutate(hosts=[1])
        fed.pseudos["attic-c2"].set_host_down(0)
    run_both(base, tiered, 120.0)
    for tier in tiers:
        if len(tier):
            assert tier.replica_moves > 0
            assert tier.shard_map.shards_on("st01")
    now = base.engine.now
    compared = 0
    for name in base.gmetads:
        a_store = base.gmetad(name).rrd_store
        b_store = tiered.gmetad(name).rrd_store
        assert b_store.keys() == a_store.keys(), name
        assert b_store.update_count == a_store.update_count, name
        for key in a_store.keys():
            av, at_, ar = a_store.fetch_series(key, 0.0, now)
            bv, bt, br = b_store.fetch_series(key, 0.0, now)
            assert br == ar, key
            assert np.array_equal(bt, at_), key
            assert np.array_equal(bv, av, equal_nan=True), key
            a_db = a_store.database(key)
            b_db = b_store.database(key)
            assert b_db.updates == a_db.updates, key
            assert b_db.last_update_time == a_db.last_update_time, key
            compared += 1
    assert compared > 100  # the sweep actually covered the federation
    assert_identical_everywhere(base, tiered)
    assert_same_cpu_and_stats(base, tiered)
    assert_tier_engaged(tiered)
