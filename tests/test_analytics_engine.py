"""The analytics stage: gating, readings, in-band serving, equivalence.

Covers the PR's acceptance bar for the tentpole:

- the gate defaults off and, when off, every ordinary source serves
  byte-identical XML to a daemon that never heard of analytics;
- when on, flush-driven passes produce readings for archived series
  through one window readout, whether the daemon archives to a plain
  store or a storage tier (the tier is invisible to the readings);
- the ``__analytics__`` cluster is served end to end: path queries, the
  web frontend, the pub-sub broker, and a parent gmetad polling the
  child all see it through unmodified machinery;
- ``analytics on|off`` parses from gmetad.conf;
- predictive rule kinds degrade to no-ops on daemons without the stage.
"""

import math

import pytest

from repro.analytics import ANALYTICS_SOURCE, AnalyticsConfig, SeriesReading
from repro.bench.topology import build_paper_tree
from repro.config.gmetadconf import ConfigError, parse_gmetad_conf
from repro.core.alarms import AlarmEngine, AlarmRule, predictive_rules
from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.frontend.viewer import WebFrontend
from repro.gmond.pseudo import PseudoGmond
from repro.net.address import Address
from repro.pubsub.client import PushClient


def make_daemon(engine, fabric, tcp, rngs, *, columnar=True,
                analytics=None, archive_mode="full", name="solo",
                storage_tier=None):
    pseudo = PseudoGmond(
        engine, fabric, tcp, f"{name}-c0", num_hosts=4,
        rng=rngs.stream(f"pg:{name}"), refresh_interval=15.0,
    )
    config = GmetadConfig(
        name=name, host=f"gmeta-{name}", archive_mode=archive_mode,
        columnar=columnar, analytics=analytics, storage_tier=storage_tier,
    )
    config.add_source(f"{name}-c0", [pseudo.address])
    return Gmetad(engine, fabric, tcp, config).start(), pseudo


# ---------------------------------------------------------------------------
# configuration and gating
# ---------------------------------------------------------------------------


class TestAnalyticsConfig:
    def test_defaults_validate(self):
        AnalyticsConfig()

    @pytest.mark.parametrize("bad", [
        dict(window_rows=1),
        dict(ewma_alpha=0.0),
        dict(ewma_alpha=1.5),
        dict(min_points=1),
        dict(anomaly_z=0.0),
        dict(cadence=-1.0),
        dict(publish_interval=-5.0),
        dict(z_floor_abs=-1e-9),
    ])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            AnalyticsConfig(**bad)

    def test_gate_defaults_off(self, engine, fabric, tcp, rngs):
        daemon, _ = make_daemon(engine, fabric, tcp, rngs)
        assert daemon.analytics is None

    def test_disabled_config_stays_off(self, engine, fabric, tcp, rngs):
        daemon, _ = make_daemon(
            engine, fabric, tcp, rngs,
            analytics=AnalyticsConfig(enabled=False),
        )
        assert daemon.analytics is None


class TestGmetadConfDirective:
    CONF = 'data_source "meteor" 15 m1:8649\n'

    def test_default_off(self):
        parsed = parse_gmetad_conf(self.CONF)
        assert parsed.analytics is False
        assert parsed.to_gmetad_config("h").analytics is None

    def test_on_maps_to_config(self):
        parsed = parse_gmetad_conf(self.CONF + "analytics on\n")
        assert parsed.analytics is True
        config = parsed.to_gmetad_config("h")
        assert isinstance(config.analytics, AnalyticsConfig)
        assert config.analytics.enabled

    def test_off_explicit(self):
        parsed = parse_gmetad_conf(self.CONF + "analytics off\n")
        assert parsed.to_gmetad_config("h").analytics is None

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_gmetad_conf("analytics maybe\n")


# ---------------------------------------------------------------------------
# byte-identity with the gate off / invisibility on ordinary sources
# ---------------------------------------------------------------------------


class TestEquivalence:
    def test_ordinary_sources_byte_identical_with_analytics_on(self):
        """The stage must not perturb what it watches: every ordinary
        cluster query serves byte-identical XML with analytics on.  (The
        daemon's own view intentionally gains ``__analytics__``, exactly
        like ``__gmetad__`` under observability.)"""
        plain = build_paper_tree("nlevel", hosts_per_cluster=4, seed=14)
        analyzed = build_paper_tree(
            "nlevel", hosts_per_cluster=4, seed=14,
            analytics=AnalyticsConfig(),
        )
        plain.start()
        analyzed.start()
        try:
            plain.engine.run_for(95.0)
            analyzed.engine.run_for(95.0)
            checked = 0
            for name in plain.gmetads:
                for source in plain.gmetad(name).config.data_sources:
                    if source.name not in plain.pseudos:
                        continue  # grid subtree gains __analytics__ by design
                    request = f"/{source.name}"
                    expected, _ = plain.gmetad(name).serve_query(request)
                    actual, _ = analyzed.gmetad(name).serve_query(request)
                    assert actual == expected, (name, request)
                    checked += 1
            assert checked == 12
        finally:
            plain.stop()
            analyzed.stop()

    def test_full_archive_twin_identical_per_source(self):
        """Columnar full-archive daemon: analytics on vs off, the real
        source's bytes never move (twin stacks, same seed)."""
        from repro.net.fabric import Fabric
        from repro.net.tcp import TcpNetwork
        from repro.sim.engine import Engine
        from repro.sim.rng import RngRegistry

        def stack(analytics):
            engine = Engine()
            fabric = Fabric()
            rngs = RngRegistry(99)
            tcp = TcpNetwork(engine, fabric, rng=rngs.stream("tcp.gray"))
            daemon, _ = make_daemon(
                engine, fabric, tcp, rngs, analytics=analytics
            )
            engine.run_for(120.0)
            return engine, daemon

        _, off_daemon = stack(None)
        _, on_daemon = stack(AnalyticsConfig())
        expected, _ = off_daemon.serve_query("/solo-c0")
        actual, _ = on_daemon.serve_query("/solo-c0")
        assert actual == expected
        assert ANALYTICS_SOURCE not in actual
        assert on_daemon.analytics.passes > 0


# ---------------------------------------------------------------------------
# readings: one window readout, plain store or storage tier
# ---------------------------------------------------------------------------


class TestReadings:
    @pytest.fixture
    def analyzed(self, engine, fabric, tcp, rngs):
        daemon, pseudo = make_daemon(
            engine, fabric, tcp, rngs,
            analytics=AnalyticsConfig(window_rows=6),
        )
        engine.run_for(150.0)
        return daemon, pseudo

    def test_passes_cover_archived_series(self, analyzed):
        daemon, _ = analyzed
        stage = daemon.analytics
        assert stage.passes > 0
        assert stage.series_analyzed > 0

    def test_reading_for_live_series(self, analyzed):
        daemon, pseudo = analyzed
        host = f"{pseudo.name}-0-0"
        reading = daemon.analytics.reading("solo-c0", host, "load_one")
        assert isinstance(reading, SeriesReading)
        assert not math.isnan(reading.latest)
        assert reading.row_seconds > 0
        assert reading.end_time > 0

    def test_reading_unknown_series_is_none(self, analyzed):
        daemon, _ = analyzed
        assert daemon.analytics.reading("solo-c0", "nope", "load_one") is None

    def test_scalar_fallback_matches_surface(self, engine, fabric, tcp, rngs):
        """Non-columnar daemon: every detail series is written by scalar
        updates, and the one bank readout still yields readings."""
        daemon, pseudo = make_daemon(
            engine, fabric, tcp, rngs, columnar=False,
            analytics=AnalyticsConfig(window_rows=6),
        )
        engine.run_for(150.0)
        stage = daemon.analytics
        assert stage.passes > 0
        reading = stage.reading("solo-c0", f"{pseudo.name}-0-0", "load_one")
        assert reading is not None and not math.isnan(reading.latest)

    def test_plain_columnar_store_analyses_every_series(self):
        """Detail, summary and self-cluster series alike, as on the
        storage tier -- only the stage's own series are left out."""
        fed = build_paper_tree(
            "nlevel", hosts_per_cluster=4, columnar=True, archive_mode="full",
            analytics=AnalyticsConfig(),
        ).start()
        fed.engine.run_for(95.0)
        daemon = fed.gmetad("physics")
        store = daemon.rrd_store
        assert any(k.source == ANALYTICS_SOURCE for k in store.keys())
        assert any(k.host == "__summary__" for k in store.keys())
        daemon.analytics.recompute(fed.engine.now)
        expected = [k for k in store.keys() if k.source != ANALYTICS_SOURCE]
        assert sorted(daemon.analytics._keys) == expected
        assert daemon.analytics.series_analyzed == len(expected)

    def test_readings_do_not_depend_on_the_storage_tier(self):
        """Twin daemons, one archiving through a replicated tier: every
        reading matches, a silenced host's series and reads served by a
        non-primary replica included."""
        from repro.net.fabric import Fabric
        from repro.net.tcp import TcpNetwork
        from repro.sim.engine import Engine
        from repro.sim.rng import RngRegistry
        from repro.storage import StorageTierConfig

        def twin(storage_tier):
            engine = Engine()
            fabric = Fabric()
            rngs = RngRegistry(99)
            tcp = TcpNetwork(engine, fabric, rng=rngs.stream("tcp.gray"))
            daemon, pseudo = make_daemon(
                engine, fabric, tcp, rngs, storage_tier=storage_tier,
                analytics=AnalyticsConfig(window_rows=4),
            )
            engine.run_for(150.0)
            pseudo.set_host_down(1)
            tier = daemon.rrd_store if storage_tier is not None else None
            if tier is not None:
                primary = tier.shard_map.replicas[0][0]
                engine.run_for(60.0)
                tier.kill_node(primary)
                engine.run_for(90.0)
                tier.restart_node(primary)
                engine.run_for(90.0)
            else:
                engine.run_for(240.0)
            return daemon.analytics, tier

        plain, _ = twin(None)
        tiered, tier = twin(StorageTierConfig(nodes=2, replication=2))
        assert tier.failover_fetches > 0 and tier.fetch_failures == 0
        assert sorted(tiered._keys) == sorted(plain._keys)
        silenced = [k for k in plain._keys if k.host.endswith("-0-1")]
        assert silenced
        for key in plain._keys:
            a = plain.reading(key.source, key.host, key.metric)
            b = tiered.reading(key.source, key.host, key.metric)
            for field in ("latest", "slope", "zscore", "end_time"):
                x, y = getattr(a, field), getattr(b, field)
                assert x == y or (math.isnan(x) and math.isnan(y)), (key, field)

    def test_dead_shard_leaves_its_columns_nan(self):
        """A shard with no live replica does not stop the pass: its
        series read NaN and count as failed fetches, the rest still
        come."""
        from repro.storage import StorageTierConfig

        fed = build_paper_tree(
            "nlevel", hosts_per_cluster=4, archive_mode="full",
            storage_tier=StorageTierConfig(nodes=2, replication=1),
            analytics=AnalyticsConfig(),
        ).start()
        fed.engine.run_for(60.0)
        daemon = fed.gmetad("physics")
        tier = daemon.rrd_store
        victim = next(iter(tier.nodes))
        tier.kill_node(victim)
        passes = daemon.analytics.passes
        fed.engine.run_for(30.0)
        stage = daemon.analytics
        assert stage.passes > passes
        dead = {
            s for s, replicas in enumerate(tier.shard_map.replicas)
            if replicas == [victim]
        }
        assert dead and tier.fetch_failures > 0
        live_readings = dead_series = 0
        for key in stage._keys:
            reading = stage.reading(key.source, key.host, key.metric)
            if reading is None:
                continue  # a summary key under another cluster name
            if tier._key_shard[key] in dead:
                dead_series += 1
                assert math.isnan(reading.latest)
                assert reading.end_time < 0
            elif not math.isnan(reading.latest):
                live_readings += 1
        assert dead_series and live_readings

    def test_account_mode_keeps_quiet(self, engine, fabric, tcp, rngs):
        daemon, _ = make_daemon(
            engine, fabric, tcp, rngs, archive_mode="account",
            analytics=AnalyticsConfig(),
        )
        engine.run_for(60.0)
        assert daemon.analytics.passes == 0
        assert daemon.analytics.series_analyzed == 0

    def test_analytics_cpu_charged(self, analyzed):
        daemon, _ = analyzed
        assert daemon.cpu.window.by_category.get("analytics", 0.0) > 0.0


# ---------------------------------------------------------------------------
# the __analytics__ cluster end to end
# ---------------------------------------------------------------------------


class TestInBandAnalyticsCluster:
    @pytest.fixture
    def analyzed(self, engine, fabric, tcp, rngs):
        daemon, pseudo = make_daemon(
            engine, fabric, tcp, rngs, analytics=AnalyticsConfig(),
        )
        engine.run_for(120.0)
        return daemon, pseudo

    def test_path_queries_resolve(self, analyzed):
        daemon, _ = analyzed
        xml, _ = daemon.serve_query(f"/{ANALYTICS_SOURCE}")
        assert f'CLUSTER NAME="{ANALYTICS_SOURCE}"' in xml
        assert "analytics_passes" in xml
        xml, _ = daemon.serve_query(
            f"/{ANALYTICS_SOURCE}/gmeta-solo/analytics_series"
        )
        assert 'METRIC NAME="analytics_series"' in xml

    def test_web_frontend_renders_it(self, analyzed, engine, fabric, tcp):
        daemon, _ = analyzed
        viewer = WebFrontend(
            engine, fabric, tcp, target=daemon.address,
            design="nlevel", host="wf-analytics",
        )
        page, timing = viewer.render_view(
            "host", cluster=ANALYTICS_SOURCE, host="gmeta-solo"
        )
        assert timing.bytes_received > 0
        assert "analytics_passes" in page.metrics
        assert "analytics_series" in page.metrics

    def test_pubsub_subscribers_receive_it(
        self, analyzed, engine, fabric, tcp
    ):
        daemon, _ = analyzed
        broker = daemon.attach_pubsub()
        client = PushClient(
            engine, fabric, tcp, broker.address,
            path=f"/{ANALYTICS_SOURCE}", host="viewer", sub_id="viewer",
        ).start()
        engine.run_for(90.0)
        assert client.state  # the subscription delivered something
        assert any("analytics_passes" in key for key in client.state)
        client.stop()

    def test_parent_polls_it_upstream(self, engine, fabric, tcp, rngs):
        child, _ = make_daemon(
            engine, fabric, tcp, rngs, name="leaf",
            analytics=AnalyticsConfig(),
        )
        parent_config = GmetadConfig(
            name="parent", host="gmeta-parent", archive_mode="account"
        )
        parent_config.add_source(
            "leaf", [Address.gmetad("gmeta-leaf")], kind="grid"
        )
        parent = Gmetad(engine, fabric, tcp, parent_config).start()
        engine.run_for(150.0)
        xml, _ = parent.serve_query("/")
        assert f'"{ANALYTICS_SOURCE}"' in xml


# ---------------------------------------------------------------------------
# predictive rule kinds against the live stage
# ---------------------------------------------------------------------------


class TestPredictiveRules:
    def test_rules_noop_without_analytics(self, engine, fabric, tcp, rngs):
        daemon, _ = make_daemon(engine, fabric, tcp, rngs)  # gate off
        alarms = AlarmEngine(daemon)
        for rule in predictive_rules():
            alarms.add_rule(rule)
        engine.run_for(90.0)
        assert alarms.evaluate() == []
        assert alarms.alarms == {}

    def test_predict_cross_validation(self):
        with pytest.raises(ValueError):
            AlarmRule(name="r", selector="~/.*", op=">", threshold=5.0,
                      kind="predict_cross")  # no horizon
        with pytest.raises(ValueError):
            AlarmRule(name="r", selector="~/.*", op="==", threshold=5.0,
                      kind="predict_cross", within_seconds=60.0)
        with pytest.raises(ValueError):
            AlarmRule(name="r", selector="~/.*", op=">", threshold=5.0,
                      kind="bogus")

    def test_predicted_cross_math(self, engine, fabric, tcp, rngs):
        daemon, _ = make_daemon(engine, fabric, tcp, rngs)
        alarms = AlarmEngine(daemon)
        rule = AlarmRule(name="r", selector="~/.*", op=">", threshold=6.0,
                         kind="predict_cross", within_seconds=120.0)

        def reading(latest, slope):
            return SeriesReading(latest=latest, slope=slope, zscore=0.0,
                                 row_seconds=15.0, end_time=0.0)

        assert alarms._predicted_cross(rule, reading(2.0, 0.05)) == \
            pytest.approx(80.0)
        assert alarms._predicted_cross(rule, reading(7.0, 0.0)) == 0.0
        assert alarms._predicted_cross(rule, reading(2.0, -0.05)) == math.inf
        assert alarms._predicted_cross(rule, reading(math.nan, 0.05)) is None
        falling = AlarmRule(name="f", selector="~/.*", op="<", threshold=1.0,
                            kind="predict_cross", within_seconds=120.0)
        assert alarms._predicted_cross(falling, reading(3.0, -0.025)) == \
            pytest.approx(80.0)
        assert alarms._predicted_cross(falling, reading(3.0, 0.025)) == math.inf
