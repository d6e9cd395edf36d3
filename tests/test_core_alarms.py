"""Unit tests for the alarm engine and regex query language (§4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.alarms import AlarmEngine, AlarmRule, AlarmState, standard_rules
from repro.core.gmetad import Gmetad
from repro.core.query_regex import (
    RegexQuery,
    RegexQueryEngine,
    RegexQueryError,
    is_regex_query,
)
from repro.core.summarize import summarize_cluster
from repro.core.tree import GmetadConfig
from repro.gmond.pseudo import PseudoGmond
from repro.metrics.catalog import MetricDef
from repro.metrics.types import MetricType
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.wire.model import ClusterElement, HostElement, MetricElement
from tests.helpers import cluster_snapshot


def _cluster_snapshot(name, hosts, now, load=0.5):
    """A hand-built one-metric cluster snapshot for direct installs."""
    cluster = ClusterElement(name=name, localtime=now)
    for host_name in hosts:
        host = HostElement(name=host_name, reported=now, tn=1.0, tmax=20.0)
        host.add_metric(
            MetricElement(
                name="load_one", val=f"{load:.2f}",
                mtype=MetricType.FLOAT, tn=1.0, tmax=70.0,
            )
        )
        cluster.add_host(host)
    summary, _ = summarize_cluster(cluster, 80.0)
    cluster.summary = summary
    return cluster_snapshot(cluster, name=name, summary=summary)


def _solo_daemon(engine, fabric, tcp):
    """An unstarted gmetad with no sources (snapshots installed by hand)."""
    config = GmetadConfig(name="solo", host="gmeta-solo", archive_mode="account")
    return Gmetad(engine, fabric, tcp, config)


@pytest.fixture
def monitored(engine, fabric, tcp, rngs):
    """A gmetad watching one pseudo cluster with controllable values."""
    defs = [
        MetricDef("load_one", MetricType.FLOAT, collect_every=15,
                  tmax=70, value_range=(0.0, 1.0)),
        MetricDef("temp", MetricType.FLOAT, collect_every=15,
                  tmax=70, value_range=(90.0, 95.0)),  # always "hot"
    ]
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", num_hosts=4,
        rng=rngs.stream("pg"), metric_defs=defs,
    )
    config = GmetadConfig(name="sdsc", host="gmeta-sdsc", archive_mode="account")
    config.add_source("meteor", [pseudo.address])
    daemon = Gmetad(engine, fabric, tcp, config)
    daemon.start()
    engine.run_for(40.0)
    return daemon, pseudo


class TestRegexQuery:
    def test_parse_depths(self):
        assert RegexQuery.parse("~/a").depth == 1
        assert RegexQuery.parse("~/a/b").depth == 2
        assert RegexQuery.parse("~/a/b/c").depth == 3

    @pytest.mark.parametrize("bad", ["", "~", "~/a/b/c/d", "~/[unclosed"])
    def test_bad_queries_rejected(self, bad):
        with pytest.raises(RegexQueryError):
            RegexQuery.parse(bad)

    def test_segments_anchored(self, monitored):
        daemon, _ = monitored
        engine = RegexQueryEngine(daemon.datastore)
        # "meteo" must NOT match "meteor" (anchored), ".*" must
        assert engine.search("~/meteo") == []
        assert len(engine.search("~/meteo.*")) == 1

    def test_metric_level_search(self, monitored):
        daemon, _ = monitored
        engine = RegexQueryEngine(daemon.datastore)
        hits = engine.search(r"~/meteor/meteor-0-[01]/load_one|temp")
        names = {h.path[2] for h in hits}
        assert names == {"load_one", "temp"}
        assert len(hits) == 4  # 2 hosts x 2 metrics

    def test_host_level_search(self, monitored):
        daemon, _ = monitored
        engine = RegexQueryEngine(daemon.datastore)
        hits = engine.search(r"~/.*/meteor-0-\d+")
        assert len(hits) == 4
        assert all(len(h.path) == 2 for h in hits)

    def test_is_regex_query(self):
        assert is_regex_query("~/a/b")
        assert not is_regex_query("/a/b")


class TestAlarmRules:
    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            AlarmRule(name="r", selector="~/a", op="~=", threshold=1.0)

    def test_negative_hold_rejected(self):
        with pytest.raises(ValueError):
            AlarmRule(name="r", selector="~/a", op=">", threshold=1, hold_seconds=-1)

    def test_condition_operators(self):
        rule = AlarmRule(name="r", selector="~/a", op=">=", threshold=5.0)
        assert rule.condition(5.0)
        assert not rule.condition(4.9)


class TestAlarmEngine:
    def test_fires_on_threshold(self, monitored, engine):
        daemon, _ = monitored
        alarms = AlarmEngine(daemon, interval=15.0)
        alarms.add_rule(
            AlarmRule(name="hot", selector=r"~/meteor/.*/temp",
                      op=">", threshold=80.0, severity="critical")
        )
        alarms.start()
        engine.run_for(40.0)
        assert len(alarms.firing()) == 4  # every host is hot
        fires = [n for n in alarms.notifications if n.kind == "fire"]
        assert len(fires) == 4
        assert all(n.severity == "critical" for n in fires)

    def test_does_not_fire_below_threshold(self, monitored, engine):
        daemon, _ = monitored
        alarms = AlarmEngine(daemon, interval=15.0)
        alarms.add_rule(
            AlarmRule(name="impossible", selector=r"~/meteor/.*/load_one",
                      op=">", threshold=100.0)
        )
        alarms.start()
        engine.run_for(100.0)
        assert alarms.firing() == []
        assert alarms.notifications == []

    def test_hold_time_delays_firing(self, monitored, engine):
        daemon, _ = monitored
        alarms = AlarmEngine(daemon, interval=10.0)
        alarms.add_rule(
            AlarmRule(name="hot", selector=r"~/meteor/meteor-0-0/temp",
                      op=">", threshold=80.0, hold_seconds=25.0)
        )
        alarms.start()
        engine.run_for(12.0)  # one evaluation: PENDING, not firing
        assert len(alarms.pending()) == 1
        assert alarms.firing() == []
        engine.run_for(30.0)  # hold satisfied
        assert len(alarms.firing()) == 1

    def test_resolve_notification_on_recovery(self, monitored, engine):
        daemon, pseudo = monitored
        alarms = AlarmEngine(daemon, interval=15.0)
        alarms.add_rule(
            AlarmRule(name="silent", selector=r"~/meteor/.*",
                      op=">", threshold=60.0)  # host TN > 60s
        )
        alarms.start()
        pseudo.set_host_down(2)
        engine.run_for(120.0)
        assert len(alarms.firing()) == 1
        pseudo.set_host_down(2, down=False)
        engine.run_for(60.0)
        assert alarms.firing() == []
        kinds = [n.kind for n in alarms.notifications]
        assert kinds.count("fire") == 1
        assert kinds.count("resolve") == 1

    def test_notify_callback_invoked(self, monitored, engine):
        daemon, _ = monitored
        seen = []
        alarms = AlarmEngine(daemon, interval=15.0, notify=seen.append)
        alarms.add_rule(
            AlarmRule(name="hot", selector=r"~/meteor/.*/temp",
                      op=">", threshold=80.0)
        )
        alarms.start()
        engine.run_for(20.0)
        assert len(seen) == 4
        assert "hot" in seen[0].render()

    def test_duplicate_rule_name_rejected(self, monitored):
        daemon, _ = monitored
        alarms = AlarmEngine(daemon)
        alarms.add_rule(AlarmRule(name="r", selector="~/a", op=">", threshold=1))
        with pytest.raises(ValueError):
            alarms.add_rule(AlarmRule(name="r", selector="~/b", op=">", threshold=1))

    def test_stop_halts_evaluation(self, monitored, engine):
        daemon, _ = monitored
        alarms = AlarmEngine(daemon, interval=15.0)
        alarms.add_rule(
            AlarmRule(name="hot", selector=r"~/meteor/.*/temp",
                      op=">", threshold=80.0)
        )
        alarms.start()
        engine.run_for(20.0)
        count = len(alarms.notifications)
        alarms.stop()
        engine.run_for(100.0)
        assert len(alarms.notifications) == count

    def test_standard_rules_well_formed(self):
        rules = standard_rules()
        assert {r.name for r in rules} == {"high-load", "host-silent"}


class TestAlarmStateBounded:
    """Regression: the alarms dict must not grow without bound (churn)."""

    def test_alarms_pruned_when_subjects_vanish(self, engine, fabric, tcp):
        daemon = _solo_daemon(engine, fabric, tcp)
        alarms = AlarmEngine(daemon, interval=5.0)
        alarms.add_rule(
            AlarmRule(name="busy", selector=r"~/churn/.*/load_one",
                      op=">", threshold=0.1)
        )
        for i in range(60):
            now = engine.now
            daemon.datastore.install(
                _cluster_snapshot("churn", [f"h{i}"], now, load=0.5), now
            )
            alarms.evaluate()
            engine.run_for(5.0)
        # one live subject at a time: state must track the live set, not
        # every host that ever existed
        assert len(alarms.alarms) <= 2

    def test_firing_alarm_survives_condition_flicker(self, engine, fabric, tcp):
        """Pruning must not eat alarms for subjects that still match."""
        daemon = _solo_daemon(engine, fabric, tcp)
        alarms = AlarmEngine(daemon, interval=5.0)
        alarms.add_rule(
            AlarmRule(name="busy", selector=r"~/churn/.*/load_one",
                      op=">", threshold=5.0)
        )
        now = engine.now
        daemon.datastore.install(_cluster_snapshot("churn", ["h0"], now, 9.0), now)
        alarms.evaluate()
        assert len(alarms.firing()) == 1
        engine.run_for(5.0)
        now = engine.now
        daemon.datastore.install(_cluster_snapshot("churn", ["h0"], now, 1.0), now)
        alarms.evaluate()
        assert alarms.firing() == []
        # subject still matches (condition merely false): entry retained
        assert len(alarms.alarms) == 1


class TestResolveReasons:
    """Regression: 'condition cleared' vs 'subject vanished' resolves."""

    def test_cleared_resolve_reports_fresh_value(self, engine, fabric, tcp):
        daemon = _solo_daemon(engine, fabric, tcp)
        alarms = AlarmEngine(daemon, interval=5.0)
        alarms.add_rule(
            AlarmRule(name="busy", selector=r"~/churn/.*/load_one",
                      op=">", threshold=5.0)
        )
        now = engine.now
        daemon.datastore.install(_cluster_snapshot("churn", ["h0"], now, 9.0), now)
        alarms.evaluate()
        engine.run_for(5.0)
        now = engine.now
        daemon.datastore.install(_cluster_snapshot("churn", ["h0"], now, 1.0), now)
        alarms.evaluate()
        resolves = [n for n in alarms.notifications if n.kind == "resolve"]
        assert len(resolves) == 1
        assert resolves[0].reason == "cleared"
        assert resolves[0].value == pytest.approx(1.0)

    def test_vanished_resolve_is_labeled(self, engine, fabric, tcp):
        daemon = _solo_daemon(engine, fabric, tcp)
        alarms = AlarmEngine(daemon, interval=5.0)
        alarms.add_rule(
            AlarmRule(name="busy", selector=r"~/churn/.*/load_one",
                      op=">", threshold=5.0)
        )
        now = engine.now
        daemon.datastore.install(_cluster_snapshot("churn", ["h0"], now, 9.0), now)
        alarms.evaluate()
        assert len(alarms.firing()) == 1
        engine.run_for(5.0)
        now = engine.now
        # h0 is gone entirely; its last seen value would be stale
        daemon.datastore.install(_cluster_snapshot("churn", ["h1"], now, 1.0), now)
        alarms.evaluate()
        resolves = [n for n in alarms.notifications if n.kind == "resolve"]
        assert len(resolves) == 1
        assert resolves[0].reason == "vanished"
        assert "/churn/h0/load_one" in resolves[0].subject
        # the vanished subject's state is pruned, not kept forever
        assert all(key[1] != resolves[0].subject for key in alarms.alarms)

    def test_render_mentions_reason(self, engine, fabric, tcp):
        daemon = _solo_daemon(engine, fabric, tcp)
        alarms = AlarmEngine(daemon, interval=5.0)
        alarms.add_rule(
            AlarmRule(name="busy", selector=r"~/churn/.*/load_one",
                      op=">", threshold=5.0)
        )
        now = engine.now
        daemon.datastore.install(_cluster_snapshot("churn", ["h0"], now, 9.0), now)
        alarms.evaluate()
        engine.run_for(5.0)
        now = engine.now
        daemon.datastore.install(_cluster_snapshot("churn", ["h1"], now, 1.0), now)
        alarms.evaluate()
        resolve = [n for n in alarms.notifications if n.kind == "resolve"][0]
        assert "vanished" in resolve.render()


class TestHostSilenceUnderConditionalPolls:
    """Regression: host-silence must be engine-now-relative, not the
    parse-time TN frozen inside NOT-MODIFIED replays (PR 2)."""

    @pytest.fixture
    def frozen_cluster(self, engine, fabric, tcp, rngs):
        """A pseudo cluster whose content never changes: every poll after
        the first is answered NOT-MODIFIED (incremental pipeline)."""
        defs = [
            MetricDef("load_one", MetricType.FLOAT, collect_every=15,
                      tmax=70, value_range=(0.0, 1.0)),
        ]
        pseudo = PseudoGmond(
            engine, fabric, tcp, "meteor", num_hosts=4,
            rng=rngs.stream("pg"), metric_defs=defs,
            refresh_interval=float("inf"),
        )
        config = GmetadConfig(
            name="sdsc", host="gmeta-sdsc", archive_mode="account",
            incremental=True,
        )
        config.add_source("meteor", [pseudo.address])
        daemon = Gmetad(engine, fabric, tcp, config)
        daemon.start()
        engine.run_for(100.0)
        assert daemon.polls_not_modified > 0  # the conditional path ran
        return daemon, pseudo

    def test_no_misfire_while_source_confirms(self, frozen_cluster, engine):
        """NOT-MODIFIED re-asserts liveness: a healthy frozen cluster
        must not look silent even though its parse-time TNs are stale."""
        daemon, _ = frozen_cluster
        alarms = AlarmEngine(daemon, interval=15.0)
        alarms.add_rule(
            AlarmRule(name="silent", selector=r"~/meteor/.*",
                      op=">", threshold=60.0, severity="critical")
        )
        alarms.start()
        engine.run_for(300.0)
        assert alarms.firing() == []
        assert alarms.notifications == []

    def test_fires_when_source_goes_dark(self, frozen_cluster, engine, tcp):
        """When the source stops answering, silence keeps accruing from
        the last confirmation -- the frozen TN alone never trips."""
        daemon, pseudo = frozen_cluster
        alarms = AlarmEngine(daemon, interval=15.0)
        alarms.add_rule(
            AlarmRule(name="silent", selector=r"~/meteor/.*",
                      op=">", threshold=60.0, severity="critical")
        )
        alarms.start()
        engine.run_for(45.0)
        assert alarms.firing() == []
        tcp.close(pseudo.address)  # the whole cluster goes dark
        engine.run_for(200.0)
        # every host in the dark cluster is now silent well past 60 s
        assert len(alarms.firing()) == 4
        for alarm in alarms.firing():
            assert alarm.last_value > 60.0


class TestAlarmStateMachineProperties:
    """Hypothesis: invariants of the OK -> PENDING -> FIRING machine."""

    STEP = 5.0
    HOLD = 12.0  # needs 3 consecutive true evaluations at STEP=5

    def _drive(self, pattern):
        """Evaluate one rule over a scripted true/false value sequence.

        Returns (alarms, history) where history holds one
        (time, condition_was_true, state_after_eval) row per step.
        """
        engine = Engine()
        fabric = Fabric()
        tcp = TcpNetwork(engine, fabric)
        daemon = _solo_daemon(engine, fabric, tcp)
        alarms = AlarmEngine(daemon, interval=self.STEP)
        alarms.add_rule(
            AlarmRule(name="busy", selector=r"~/churn/.*/load_one",
                      op=">", threshold=5.0, hold_seconds=self.HOLD)
        )
        subject = "/churn/h0/load_one"
        history = []
        for hot in pattern:
            now = engine.now
            daemon.datastore.install(
                _cluster_snapshot("churn", ["h0"], now, 9.0 if hot else 1.0),
                now,
            )
            alarms.evaluate()
            alarm = alarms.alarms.get(("busy", subject))
            state = alarm.state if alarm is not None else AlarmState.OK
            history.append((now, hot, state))
            engine.run_for(self.STEP)
        return alarms, history

    @given(st.lists(st.booleans(), min_size=1, max_size=24))
    def test_never_firing_before_hold(self, pattern):
        _, history = self._drive(pattern)
        for i, (now, hot, state) in enumerate(history):
            if state is not AlarmState.FIRING:
                continue
            # walk back over the contiguous run of true evaluations
            j = i
            while j > 0 and history[j - 1][1]:
                j -= 1
            assert hot, "FIRING requires the condition to hold"
            assert now - history[j][0] >= self.HOLD

    @given(st.lists(st.booleans(), min_size=1, max_size=24))
    def test_fire_resolve_alternate_per_subject(self, pattern):
        alarms, _ = self._drive(pattern)
        kinds = [
            n.kind
            for n in alarms.notifications
            if n.subject == "/churn/h0/load_one"
        ]
        for i, kind in enumerate(kinds):
            expected = "fire" if i % 2 == 0 else "resolve"
            assert kind == expected

    @given(st.lists(st.booleans(), min_size=1, max_size=24))
    def test_flapping_never_fires(self, pattern):
        """A condition that is never true 3 evals in a row cannot fire."""
        flappy = []
        run = 0
        for hot in pattern:
            run = run + 1 if hot else 0
            if run >= 3:
                hot = False
                run = 0
            flappy.append(hot)
        alarms, _ = self._drive(flappy)
        assert all(n.kind != "fire" for n in alarms.notifications)
