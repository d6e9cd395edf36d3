"""Tests for the gmetric publisher and HTML rendering."""

import pytest

from repro.frontend.html import (
    render_cluster_view,
    render_host_view,
    render_meta_view,
    render_view,
)
from repro.frontend.views import build_view
from repro.gmond.cluster import SimulatedCluster
from repro.gmond.gmetric import GmetricPublisher
from repro.metrics.types import MetricType
from repro.wire.parser import parse_document


@pytest.fixture
def cluster(engine, fabric, tcp, rngs):
    cluster = SimulatedCluster.build(
        engine, fabric, tcp, rngs, name="meteor", num_hosts=3
    )
    cluster.start()
    engine.run_for(10.0)
    return cluster


class TestGmetric:
    def test_published_metric_reaches_all_agents(self, engine, cluster):
        publisher = GmetricPublisher(
            engine, cluster.channel, host="meteor-0-0"
        )
        publisher.publish("job_queue_depth", 17, MetricType.UINT32, "jobs")
        engine.run_for(2.0)
        for agent in cluster.agents:
            record = agent.state.host("meteor-0-0")
            sample = record.metrics["job_queue_depth"]
            assert sample.value == 17
            assert sample.source == "gmetric"

    def test_user_metric_expires_without_refresh(self, engine, cluster):
        """Soft state: stop publishing -> the metric evaporates."""
        publisher = GmetricPublisher(engine, cluster.channel, "meteor-0-1")
        publisher.publish("ephemeral", 1.0, dmax=60.0)
        engine.run_for(2.0)
        agent = cluster.agents[2]
        assert "ephemeral" in agent.state.host("meteor-0-1").metrics
        engine.run_for(400.0)  # > dmax + cleanup interval
        assert "ephemeral" not in agent.state.host("meteor-0-1").metrics

    def test_periodic_publication_stays_fresh(self, engine, cluster):
        publisher = GmetricPublisher(engine, cluster.channel, "meteor-0-0")
        publisher.publish_every(
            30.0, "app_temp", lambda now: 20.0 + now / 100.0, units="C"
        )
        engine.run_for(400.0)
        agent = cluster.agents[1]
        sample = agent.state.host("meteor-0-0").metrics["app_temp"]
        assert sample.tn(engine.now) < 60.0
        assert float(sample.value) > 20.0
        publisher.stop()
        engine.run_for(400.0)
        assert "app_temp" not in agent.state.host("meteor-0-0").metrics

    def test_metric_visible_in_served_xml(self, engine, cluster, tcp, fabric):
        publisher = GmetricPublisher(engine, cluster.channel, "meteor-0-0")
        publisher.publish("custom_kv", "blue", MetricType.STRING)
        engine.run_for(2.0)
        from repro.net.address import Address

        got = {}
        tcp.request(
            "meteor-0-1", Address.gmond("meteor-0-2"), "",
            lambda p, rtt: got.update(xml=p),
        )
        engine.run_for(1.0)
        doc = parse_document(got["xml"])
        host = list(doc.clusters.values())[0].hosts["meteor-0-0"]
        assert host.metrics["custom_kv"].val == "blue"

    def test_bad_values_rejected(self, engine, cluster):
        publisher = GmetricPublisher(engine, cluster.channel, "meteor-0-0")
        with pytest.raises(ValueError):
            publisher.publish("", 1.0)
        with pytest.raises(ValueError):
            publisher.publish("x", "not-a-number", MetricType.FLOAT)

    def test_string_value_holding_nul_rejected(self, engine, cluster):
        """XML 1.0 excludes U+0000: no reply could carry such a value."""
        publisher = GmetricPublisher(engine, cluster.channel, "meteor-0-0")
        with pytest.raises(ValueError, match="U\\+0000"):
            publisher.publish("custom_kv", "bl\0ue", MetricType.STRING)
        assert publisher.published == 0


class TestHtmlRendering:
    @pytest.fixture
    def views(self, warm_nlevel_federation):
        federation = warm_nlevel_federation
        sdsc = federation.gmetad("sdsc")
        meta_doc = parse_document(sdsc.serve_query("/?filter=summary")[0])
        full_doc = parse_document(sdsc.serve_query("/sdsc-c0")[0])
        return {
            "meta": build_view(meta_doc, "meta"),
            "cluster": build_view(full_doc, "cluster", cluster="sdsc-c0"),
            "host": build_view(
                full_doc, "host", cluster="sdsc-c0", host="sdsc-c0-0-1"
            ),
        }

    def test_meta_page(self, views):
        page = render_meta_view(views["meta"], grid_name="SDSC")
        assert page.startswith("<!DOCTYPE html>")
        assert "meta view" in page
        assert "sdsc-c0" in page
        # the remote grid row links to its authority
        assert 'href="http://gmeta-attic:8651/"' in page

    def test_cluster_page(self, views):
        page = render_cluster_view(views["cluster"])
        assert "cluster sdsc-c0" in page
        assert page.count("<tr") == 1 + 8  # header + 8 hosts

    def test_host_page(self, views):
        page = render_host_view(views["host"])
        assert "host sdsc-c0-0-1" in page
        assert "load_one" in page and "os_name" in page

    def test_dispatch(self, views):
        assert "<table>" in render_view(views["cluster"])
        with pytest.raises(TypeError):
            render_view(42)

    def test_escaping(self):
        from repro.frontend.views import HostView

        view = HostView(cluster="c", name="<script>", metrics={"m": '"v"'})
        page = render_host_view(view)
        assert "<script>" not in page
        assert "&lt;script&gt;" in page
