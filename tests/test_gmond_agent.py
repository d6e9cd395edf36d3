"""Unit and small-integration tests for gmond agents and clusters."""

import pytest

from repro.gmond.agent import GmondAgent, MetricMessage
from repro.gmond.cluster import SimulatedCluster
from repro.gmond.config import GmondConfig
from repro.metrics.generators import RandomMetricSource
from repro.metrics.types import MetricSample, MetricType
from repro.net.address import Address
from repro.net.udp import MulticastChannel
from repro.wire.binfmt import (
    CLUSTER_DOC,
    MAGIC,
    BinaryFrame,
    decode_document,
    materialize_document,
    with_accept,
)
from repro.wire.parser import parse_document


def build_cluster(engine, fabric, tcp, rngs, n=4, loss=0.0, config=None):
    return SimulatedCluster.build(
        engine, fabric, tcp, rngs, name="meteor", num_hosts=n,
        loss_rate=loss, config=config,
    )


class TestMetricMessage:
    def test_size_grows_with_content(self):
        small = MetricMessage(
            "h", "ip", MetricSample("m", 1.0, MetricType.FLOAT)
        )
        big = MetricMessage(
            "h", "ip",
            MetricSample("a_much_longer_metric_name", 1.0, MetricType.FLOAT,
                         units="widgets/sec"),
        )
        assert big.size_bytes > small.size_bytes > 0


class TestAgentLifecycle:
    def test_double_start_rejected(self, engine, fabric, tcp, rngs):
        cluster = build_cluster(engine, fabric, tcp, rngs, n=1)
        cluster.start()
        with pytest.raises(RuntimeError):
            cluster.agents[0].start()

    def test_stop_silences_agent(self, engine, fabric, tcp, rngs):
        cluster = build_cluster(engine, fabric, tcp, rngs, n=2)
        cluster.start()
        engine.run_for(60.0)
        agent = cluster.agents[0]
        sent_before = agent.reports_sent
        agent.stop()
        engine.run_for(120.0)
        assert agent.reports_sent == sent_before

    def test_stop_closes_tcp_server(self, engine, fabric, tcp, rngs):
        cluster = build_cluster(engine, fabric, tcp, rngs, n=1)
        cluster.start()
        agent = cluster.agents[0]
        assert tcp.is_listening(Address.gmond(agent.host))
        agent.stop()
        assert not tcp.is_listening(Address.gmond(agent.host))


class TestSendDiscipline:
    def test_initial_announce_reaches_peers(self, engine, fabric, tcp, rngs):
        cluster = build_cluster(engine, fabric, tcp, rngs, n=3)
        cluster.start()
        engine.run_for(10.0)
        # every agent should know every host within seconds of startup
        for agent in cluster.agents:
            assert agent.state.host_count() == 3

    def test_all_metrics_learned_after_announce(self, engine, fabric, tcp, rngs):
        cluster = build_cluster(engine, fabric, tcp, rngs, n=3)
        cluster.start()
        engine.run_for(10.0)
        agent = cluster.agents[2]
        n_defs = len(agent.config.metric_defs)
        for host in cluster.host_names:
            assert len(agent.state.host(host).metrics) == n_defs

    def test_unchanged_values_suppressed_until_tmax(self, engine, fabric, tcp, rngs):
        """Threshold discipline: a constant metric is re-sent only on tmax."""
        cluster = build_cluster(engine, fabric, tcp, rngs, n=1)
        cluster.start()
        agent = cluster.agents[0]
        engine.run_for(5.0)  # initial announce done
        baseline = agent.reports_sent
        engine.run_for(300.0)
        sent = agent.reports_sent - baseline
        # upper bound: every volatile metric every collection + heartbeats;
        # the suppression must keep it well under one report per metric
        # per collection interval (33 metrics, some at 15-20s periods).
        assert sent < 300.0 / 15.0 * len(agent.config.metric_defs) * 0.8

    def test_heartbeat_sent_every_interval(self, engine, fabric, tcp, rngs):
        config = GmondConfig(cluster_name="meteor", heartbeat_interval=20.0)
        cluster = build_cluster(engine, fabric, tcp, rngs, n=2, config=config)
        cluster.start()
        engine.run_for(200.0)
        state = cluster.agents[1].state
        heartbeat = state.host("meteor-0-0").metrics["heartbeat"]
        assert heartbeat.tn(engine.now) < 45.0  # refreshed recently


class TestServing:
    def test_any_agent_serves_full_cluster(self, engine, fabric, tcp, rngs):
        """Redundant global state: every node can answer for everyone."""
        cluster = build_cluster(engine, fabric, tcp, rngs, n=4)
        cluster.start()
        engine.run_for(30.0)
        for agent in cluster.agents:
            response = {}
            tcp.request(
                agent.host,
                Address.gmond(agent.host),
                "dump",
                lambda p, rtt: response.update(xml=p),
            )
            engine.run_for(1.0)
            doc = parse_document(response["xml"])
            served = list(doc.clusters.values())[0]
            assert len(served.hosts) == 4

    def test_served_xml_is_dtd_valid(self, engine, fabric, tcp, rngs):
        cluster = build_cluster(engine, fabric, tcp, rngs, n=2)
        cluster.start()
        engine.run_for(30.0)
        response = {}
        tcp.request(
            "meteor-0-0",
            Address.gmond("meteor-0-1"),
            "",
            lambda p, rtt: response.update(xml=p),
        )
        engine.run_for(1.0)
        parse_document(response["xml"], validate=True)  # must not raise

    def test_accept_bin1_answers_a_frame_of_the_same_report(
        self, engine, fabric, tcp, rngs
    ):
        cluster = build_cluster(engine, fabric, tcp, rngs, n=3)
        cluster.start()
        engine.run_for(30.0)
        agent = cluster.agents[0]
        replies = {}
        for key, request in (("xml", "/"), ("bin", with_accept("/"))):
            tcp.request(
                "meteor-0-1",
                Address.gmond(agent.host),
                request,
                lambda p, rtt, key=key: replies.update({key: p}),
            )
        engine.run_for(1.0)
        assert isinstance(replies["xml"], str)
        frame = replies["bin"]
        assert isinstance(frame, BinaryFrame)
        assert frame.data.startswith(MAGIC)
        assert agent.binary_served == 1
        kind, columns = decode_document(frame.data)
        assert kind == CLUSTER_DOC
        decoded = materialize_document(columns)
        served = parse_document(replies["xml"])

        def report(doc):
            (cluster_element,) = doc.clusters.values()
            return cluster_element.name, cluster_element.localtime, {
                host.name: {m.name: m.val for m in host.metrics.values()}
                for host in cluster_element.hosts.values()
            }

        # same instant, same cluster, same hosts, metrics and values
        name, localtime, hosts = report(served)
        assert name == "meteor"
        assert len(hosts) == 3 and all(hosts.values())
        assert report(decoded) == (name, localtime, hosts)


class TestDynamicMembership:
    def test_new_node_incorporated_without_registration(
        self, engine, fabric, tcp, rngs
    ):
        """'Gmon can adapt to a dynamically changing cluster ...
        incorporate newly arrived and departed nodes automatically.'"""
        cluster = build_cluster(engine, fabric, tcp, rngs, n=3)
        cluster.start()
        engine.run_for(60.0)
        # a brand-new node appears on the channel
        fabric.add_host("meteor-0-99", cluster="meteor")
        source = RandomMetricSource("meteor-0-99", rngs.stream("late"))
        late = GmondAgent(
            engine, cluster.channel, tcp, cluster.agents[0].config, source,
            rng=rngs.stream("late-agent"),
        )
        late.start()
        engine.run_for(30.0)
        for agent in cluster.agents:
            assert agent.state.host("meteor-0-99") is not None

    def test_departed_node_counted_down(self, engine, fabric, tcp, rngs):
        config = GmondConfig(cluster_name="meteor", heartbeat_window=80.0)
        cluster = build_cluster(engine, fabric, tcp, rngs, n=3, config=config)
        cluster.start()
        engine.run_for(60.0)
        cluster.agents[0].stop()
        engine.run_for(120.0)  # > heartbeat window
        up, down = cluster.agents[1].state.up_down_counts(engine.now)
        assert (up, down) == (2, 1)

    def test_lossy_channel_still_converges(self, engine, fabric, tcp, rngs):
        """Soft state tolerates UDP loss: tmax retransmits fill the gaps."""
        cluster = build_cluster(engine, fabric, tcp, rngs, n=4, loss=0.3)
        cluster.start()
        engine.run_for(400.0)
        for agent in cluster.agents:
            assert agent.state.host_count() == 4
            up, _ = agent.state.up_down_counts(engine.now)
            assert up == 4
