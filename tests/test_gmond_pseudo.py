"""Unit tests for the pseudo-gmond workload emulator."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.gmond.pseudo import PseudoGmond
from repro.metrics.catalog import builtin_catalog
from repro.net.address import Address
from repro.wire.parser import parse_document


@pytest.fixture
def pseudo(engine, fabric, tcp, rngs):
    return PseudoGmond(
        engine, fabric, tcp, "nashi", num_hosts=12,
        rng=rngs.stream("pg"), refresh_interval=15.0,
    )


class TestConstruction:
    def test_invalid_host_count_rejected(self, engine, fabric, tcp, rngs):
        with pytest.raises(ValueError):
            PseudoGmond(engine, fabric, tcp, "x", 0, rngs.stream("pg"))

    def test_server_host_registered(self, pseudo, fabric):
        assert fabric.has_host("pgmond-nashi")
        assert pseudo.address == Address.gmond("pgmond-nashi")


class TestXmlOutput:
    def test_conforms_to_dtd(self, pseudo):
        doc = parse_document(pseudo.current_xml(), validate=True)
        cluster = doc.clusters["nashi"]
        assert len(cluster.hosts) == 12

    def test_every_host_has_full_metric_set(self, pseudo):
        doc = parse_document(pseudo.current_xml())
        expected = len(builtin_catalog())
        for host in doc.clusters["nashi"].hosts.values():
            assert len(host.metrics) == expected

    def test_values_random_but_within_ranges(self, pseudo):
        doc = parse_document(pseudo.current_xml())
        loads = {
            host.metrics["load_one"].val
            for host in doc.clusters["nashi"].hosts.values()
        }
        assert len(loads) > 1  # randomly chosen, not identical
        for value in loads:
            assert 0.0 <= float(value) <= 16.0

    def test_cached_within_refresh_interval(self, pseudo, engine):
        first = pseudo.current_xml()
        engine.run_for(5.0)
        assert pseudo.current_xml() is first  # same object: served from cache

    def test_refreshes_after_interval(self, pseudo, engine):
        first = pseudo.current_xml()
        engine.run_for(20.0)
        second = pseudo.current_xml()
        assert second is not first
        assert second != first  # volatile values re-drawn

    def test_constants_stable_across_refreshes(self, pseudo, engine):
        doc1 = parse_document(pseudo.current_xml())
        engine.run_for(20.0)
        doc2 = parse_document(pseudo.current_xml())
        host = "nashi-0-3"
        assert (
            doc1.clusters["nashi"].hosts[host].metrics["cpu_num"].val
            == doc2.clusters["nashi"].hosts[host].metrics["cpu_num"].val
        )


class TestServing:
    def test_served_over_tcp(self, pseudo, engine, fabric, tcp):
        fabric.add_host("poller")
        response = {}
        tcp.request(
            "poller", pseudo.address, "/", lambda p, rtt: response.update(xml=p)
        )
        engine.run_for(1.0)
        assert "nashi" in parse_document(response["xml"]).clusters
        assert pseudo.requests == 1

    def test_service_latency_size_independent(self, engine, fabric, tcp, rngs):
        """'similar query latencies for all sizes' (§3.2)."""
        small = PseudoGmond(engine, fabric, tcp, "s", 5, rngs.stream("a"))
        big = PseudoGmond(engine, fabric, tcp, "b", 100, rngs.stream("b"))
        assert small.service_seconds == big.service_seconds


class TestHostFailures:
    def test_down_host_tn_grows(self, pseudo, engine):
        engine.run_for(10.0)
        pseudo.set_host_down(3)
        engine.run_for(100.0)
        doc = parse_document(pseudo.current_xml())
        dead = doc.clusters["nashi"].hosts["nashi-0-3"]
        assert dead.tn >= 100.0
        alive = doc.clusters["nashi"].hosts["nashi-0-4"]
        assert alive.tn < 15.0

    def test_revived_host_reports_again(self, pseudo, engine):
        pseudo.set_host_down(3)
        engine.run_for(100.0)
        pseudo.set_host_down(3, down=False)
        engine.run_for(20.0)
        doc = parse_document(pseudo.current_xml())
        assert doc.clusters["nashi"].hosts["nashi-0-3"].tn < 15.0

    def test_bad_index_rejected(self, pseudo):
        with pytest.raises(IndexError):
            pseudo.set_host_down(99)

    def test_down_hosts_tracked(self, pseudo):
        pseudo.set_host_down(1)
        pseudo.set_host_down(2)
        assert pseudo.down_hosts == {1, 2}


SERVE_SCRIPT = """
from repro.gmond.agent import GmondAgent
from repro.gmond.cluster import SimulatedCluster
from repro.gmond.pseudo import PseudoGmond
from repro.metrics.generators import RandomMetricSource
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

engine = Engine()
fabric = Fabric()
tcp = TcpNetwork(engine, fabric)
rngs = RngRegistry(7)
pseudo = PseudoGmond(engine, fabric, tcp, "nashi", 3, rngs.stream("pg"))
cluster = SimulatedCluster.build(
    engine, fabric, tcp, rngs, name="meteor", num_hosts=2
)
fabric.add_host("meteor-0-9", cluster="meteor")
late = GmondAgent(
    engine, cluster.channel, tcp, cluster.agents[0].config,
    RandomMetricSource("meteor-0-9", rngs.stream("late")),
)
print(pseudo.current_xml())
print([agent.ip for agent in cluster.agents], late.ip)
"""


class TestDeterminism:
    def test_same_seed_same_bytes_under_any_hash_seed(self):
        """Host IPs must not come from the per-process salted hash()."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", SERVE_SCRIPT],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert "<HOST" in outputs[0]
        assert outputs[0] == outputs[1]
