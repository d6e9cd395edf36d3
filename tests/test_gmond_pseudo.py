"""Unit tests for the pseudo-gmond workload emulator."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.columnar.layout import ColumnarDocument, InternPool, columns_from_cluster
from repro.gmond.pseudo import PseudoGmond
from repro.metrics.catalog import VOLATILE_METRICS, builtin_catalog
from repro.net.address import Address
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire.binfmt import encode_cluster_document
from repro.wire.model import GangliaDocument
from repro.wire.parser import parse_document
from repro.wire.writer import write_document


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


def _standalone(hosts, seed, refresh_interval=15.0):
    engine, fabric = Engine(), Fabric()
    pseudo = PseudoGmond(
        engine, fabric, TcpNetwork(engine, fabric), "meteor",
        num_hosts=hosts, rng=RngRegistry(seed).stream("pg"),
        refresh_interval=refresh_interval,
    )
    return engine, pseudo


#: (step, content generation, sha256 of current_xml(), sha256 of
#: current_frame()) along :func:`_golden_scenario`; the digests were
#: taken from the emulator that kept a host element tree and serialized
#: it with ``XmlWriter``, so they pin the served bytes, RNG order
#: included, across any change to how the emulator holds its cluster
GOLDEN = [
    ("start", 1,
     "327f1bf8937e0445d258c4cf5ea4181dfd107195bf45eaff5dc972540231ef2a",
     "2248fe8dce437402543fa0e3ad1f312a04091255fa225f391444ec93ec74e6dd"),
    ("mutate", 2,
     "52a99d841ba59657ea4e44e3ad067ee53f889883e96e7961fc9a123840756cb9",
     "a70e052a94d361cb0827002bf2bbf2b7a547e8b4c7c4d3c8893048a882209086"),
    ("down", 3,
     "766b71937353aa12ee7d28f06874d942eab824d87279681cae49fd135f0830bc",
     "57a9dcad742c65843c704fbbde07fc036db2556c67a35047b8d1a74440a7e0fd"),
    ("refresh", 4,
     "6f8f879c881ccfbf15d1a76a9ba4c1a1f08a423cb37c6092205470ee4a4db850",
     "ff2ded6dc5231f82a652dbcd8a96ec699f367dab7a19365e5faa8558bea15af3"),
    ("pinned", 5,
     "e25b5d9e3ff75676db8914b0f2a5b0eff14b7068606f8f5253e37d296d558b7b",
     "470857d217bff57c2996b8beb974f4d9f1e07126061b92e0d45ed2c07de1f055"),
    ("revived", 6,
     "8bf96e51b2516b0e91bf4b13fc9d7bbe5190aa9663e2e30068c834b79466ce05",
     "92366f39f01639846f0d0e32155661648eac4eb22e275d33c3554734013162fa"),
    ("empty", 6,
     "8bf96e51b2516b0e91bf4b13fc9d7bbe5190aa9663e2e30068c834b79466ce05",
     "92366f39f01639846f0d0e32155661648eac4eb22e275d33c3554734013162fa"),
]


def _golden_scenario():
    """37 hosts through churn, a host death, a refresh, pinned values,
    a revival and an empty mutation; yields one digest row per step."""
    engine, pseudo = _standalone(37, seed=2003)

    def step(label):
        xml, frame = pseudo.current_xml(), pseudo.current_frame()
        return (
            label,
            int(pseudo.generation.rsplit(":", 1)[1]),
            hashlib.sha256(xml.encode()).hexdigest(),
            hashlib.sha256(frame).hexdigest(),
        )

    yield step("start")
    engine.run_for(4.0)
    pseudo.mutate(fraction=0.3)
    yield step("mutate")
    engine.run_for(2.0)
    pseudo.set_host_down(3)
    yield step("down")
    engine.run_for(16.0)  # past refresh_interval
    yield step("refresh")
    pseudo.set_metric_values(
        {0: {"load_one": 2.5}, 5: {"cpu_user": 40.0, "proc_run": 7}}
    )
    yield step("pinned")
    engine.run_for(3.0)
    pseudo.set_host_down(3, False)
    yield step("revived")
    engine.run_for(1.0)
    assert pseudo.mutate(hosts=[]) == 0
    yield step("empty")


class TestGoldenBytes:
    def test_served_bytes_match_golden_digests(self):
        assert list(_golden_scenario()) == GOLDEN

    def test_empty_mutation_keeps_generation_and_replies(self, pseudo):
        xml, frame = pseudo.current_xml(), pseudo.current_frame()
        generation = pseudo.generation
        assert pseudo.mutate(hosts=[]) == 0
        assert pseudo.mutate(fraction=0.0) == 0
        assert pseudo.generation == generation
        assert pseudo.current_xml() is xml
        assert pseudo.current_frame() is frame

    def test_rejected_updates_change_nothing(self):
        """A call that raises leaves the columns and the RNG untouched."""
        _, failed = _standalone(9, seed=5)
        _, twin = _standalone(9, seed=5)
        xml = failed.current_xml()
        generation = failed.generation
        with pytest.raises(IndexError):
            failed.mutate(hosts=[0, 99])
        with pytest.raises(KeyError):
            failed.set_metric_values({0: {"load_one": 1.0}, 1: {"cpu_num": 4}})
        assert failed.generation == generation
        assert failed.current_xml() is xml
        for pseudo in (failed, twin):
            pseudo.mutate(hosts=[2])
        assert failed.current_xml() == twin.current_xml()


_OPS = st.one_of(
    st.tuples(st.just("advance"), st.floats(0.0, 20.0)),
    st.tuples(st.just("mutate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("hosts"), st.lists(st.integers(0, 63), max_size=4)),
    st.tuples(st.just("down"), st.integers(0, 63), st.booleans()),
    st.tuples(
        st.just("pin"), st.integers(0, 63), st.sampled_from(VOLATILE_METRICS),
        st.floats(-1e6, 1e9),
    ),
    st.tuples(st.just("xml")),
    st.tuples(st.just("frame")),
)


def _apply(engine, pseudo, op):
    kind, n = op[0], pseudo.num_hosts
    if kind == "advance":
        engine.run_for(op[1])
    elif kind == "mutate":
        pseudo.mutate(fraction=op[1])
    elif kind == "hosts":
        pseudo.mutate(hosts=[i % n for i in op[1]])
    elif kind == "down":
        pseudo.set_host_down(op[1] % n, op[2])
    elif kind == "pin":
        pseudo.set_metric_values({op[1] % n: {op[2]: op[3]}})
    elif kind == "xml":
        pseudo.current_xml()
    else:
        pseudo.current_frame()


@given(
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from([15.0, 5.0, float("inf")]),
    st.lists(_OPS, max_size=12),
)
def test_replies_match_the_tree_writer_and_converter(hosts, seed, refresh, ops):
    """The writer and the tree-to-columns converter are the oracle: after
    any churn, the XML equals ``write_document`` over the columns'
    materialized tree and the frame equals the frame of that tree's
    columns, in a pool holding the emulator's vocabulary order (its
    first host's rows, NAME, TYPE, UNITS, SLOPE, SOURCE each: the order
    its frames' string tables list)."""
    engine, pseudo = _standalone(hosts, seed, refresh)
    for op in ops:
        _apply(engine, pseudo, op)
        xml, frame = pseudo.current_xml(), pseudo.current_frame()
        cols = pseudo._cols
        tree = cols.materialize_into(cols.shell_cluster())
        document = GangliaDocument(version="2.5.4", source="gmond")
        document.add_cluster(tree)
        assert xml == write_document(document)
        pool = InternPool()
        for metric in next(iter(tree.hosts.values())).metrics.values():
            pool.intern(metric.name)
            pool.id_for_mtype(metric.mtype)
            pool.intern(metric.units)
            pool.id_for_slope(metric.slope)
            pool.intern(metric.source)
        expected = ColumnarDocument(
            version="2.5.4", source="gmond",
            clusters=[columns_from_cluster(tree, pool)],
        )
        assert frame == encode_cluster_document(expected)
