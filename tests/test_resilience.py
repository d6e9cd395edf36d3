"""The gray-failure resilience layer: adaptive timeouts, breakers,
health-biased fail-over, salvage ingest, quarantine, load shedding --
and byte-identical baseline equivalence when the layer is disabled."""

from types import SimpleNamespace

import pytest

from repro.bench.topology import build_paper_tree
from repro.core.gmetad import Gmetad
from repro.core.poller import DataSourcePoller
from repro.core.query import ServeQueue
from repro.core.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdaptiveTimeout,
    CircuitBreaker,
    Overloaded,
    ResilienceConfig,
)
from repro.core.tree import DataSourceConfig, GmetadConfig
from repro.gmond.pseudo import PseudoGmond
from repro.net.address import Address
from repro.net.fabric import Fabric, GrayConditions
from repro.net.tcp import Response, TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire.conditional import TaggedXml


RESILIENCE = ResilienceConfig()


# -- unit: adaptive timeout --------------------------------------------------


class TestAdaptiveTimeout:
    def test_cold_estimator_uses_the_ceiling(self):
        at = AdaptiveTimeout(floor=0.5, ceiling=10.0)
        assert at.timeout == 10.0

    def test_converges_below_the_ceiling_on_stable_rtts(self):
        at = AdaptiveTimeout(floor=0.1, ceiling=10.0)
        for _ in range(20):
            at.observe(0.2)
        assert 0.1 <= at.timeout < 1.0

    def test_floor_clamps_tiny_rtts(self):
        at = AdaptiveTimeout(floor=0.5, ceiling=10.0)
        for _ in range(20):
            at.observe(0.001)
        assert at.timeout == 0.5

    def test_variance_widens_the_timeout(self):
        stable = AdaptiveTimeout(floor=0.01, ceiling=10.0)
        jittery = AdaptiveTimeout(floor=0.01, ceiling=10.0)
        for i in range(30):
            stable.observe(0.2)
            jittery.observe(0.05 if i % 2 else 0.35)  # same mean, more var
        assert jittery.timeout > stable.timeout

    def test_timeout_backoff_doubles_and_success_resets(self):
        at = AdaptiveTimeout(floor=0.1, ceiling=60.0)
        at.observe(0.2)
        base = at.timeout
        at.observe_timeout()
        assert at.timeout == pytest.approx(base * 2)
        at.observe_timeout()
        assert at.timeout == pytest.approx(base * 4)
        at.observe(0.2)
        assert at.timeout < base * 2

    def test_never_exceeds_the_ceiling(self):
        at = AdaptiveTimeout(floor=0.1, ceiling=5.0)
        at.observe(3.0)
        for _ in range(10):
            at.observe_timeout()
        assert at.timeout == 5.0


# -- unit: circuit breaker ---------------------------------------------------


def make_breaker(**kwargs) -> CircuitBreaker:
    defaults = dict(
        poll_interval=15.0,
        threshold=3,
        initial_intervals=1.0,
        ceiling_intervals=4.0,
        jitter=0.0,
    )
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        b = make_breaker()
        b.on_failure(0.0)
        b.on_failure(15.0)
        assert b.state == CLOSED
        assert b.allow(30.0)

    def test_opens_at_threshold_and_blocks(self):
        b = make_breaker()
        for t in (0.0, 15.0, 30.0):
            b.on_failure(t)
        assert b.state == OPEN
        assert not b.allow(30.0 + 1.0)
        assert b.allow(30.0 + 15.0)  # first backoff = 1 interval
        assert b.state == HALF_OPEN

    def test_half_open_success_closes(self):
        b = make_breaker()
        for t in (0.0, 15.0, 30.0):
            b.on_failure(t)
        assert b.allow(45.0)
        b.on_success()
        assert b.state == CLOSED
        assert b.consecutive_failures == 0

    def test_half_open_failure_reopens_with_doubled_backoff(self):
        b = make_breaker()
        for t in (0.0, 15.0, 30.0):
            b.on_failure(t)
        assert b.allow(45.0)
        b.on_failure(45.0)
        assert b.state == OPEN
        assert b.retry_at == pytest.approx(45.0 + 2 * 15.0)

    def test_backoff_capped_at_the_recontact_ceiling(self):
        b = make_breaker()
        t = 0.0
        for _ in range(10):
            b.on_failure(t)
            if b.state == OPEN:
                t = b.retry_at
                assert b.allow(t)  # half-open probe
        assert b.retry_at - t <= b.max_backoff
        assert b.max_backoff == 4.0 * 15.0

    def test_jitter_never_pierces_the_ceiling(self):
        import random

        b = make_breaker(jitter=0.5, rng=random.Random(3))
        t = 0.0
        for _ in range(20):
            b.on_failure(t)
            if b.state == OPEN:
                assert b.retry_at - t <= b.max_backoff
                t = b.retry_at
                b.allow(t)

    def test_bad_payload_undoes_the_transport_success(self):
        """A delivered-but-corrupt response must count as a consecutive
        failure even though on_success fired first."""
        b = make_breaker()
        for t in (0.0, 15.0, 30.0):
            b.on_success()
            b.on_bad_payload(t)
        assert b.state == OPEN

    def test_clean_success_still_resets_the_streak(self):
        b = make_breaker()
        b.on_failure(0.0)
        b.on_failure(15.0)
        b.on_success()
        b.on_failure(30.0)
        assert b.state == CLOSED
        assert b.consecutive_failures == 1


# -- gray link conditions on the transport ----------------------------------


class TestGrayTransport:
    @pytest.fixture
    def world(self, engine, fabric):
        fabric.add_host("client")
        fabric.add_host("server")
        tcp = TcpNetwork(engine, fabric)
        box = ["<GANGLIA_XML></GANGLIA_XML>"]
        tcp.listen(Address.gmond("server"), lambda c, r: Response(box[0]))
        return SimpleNamespace(engine=engine, fabric=fabric, tcp=tcp, box=box)

    def exchange(self, world, payload="<GANGLIA_XML></GANGLIA_XML>"):
        got = []
        world.box[0] = payload
        world.tcp.request(
            "client",
            Address.gmond("server"),
            "/",
            on_response=lambda p, rtt: got.append((p, rtt)),
            timeout=5.0,
        )
        world.engine.run_for(10.0)
        return got

    def test_clean_link_draws_nothing_from_the_rng(self, world):
        state_before = world.tcp._rng.getstate()
        got = self.exchange(world)
        assert got[0][0] == "<GANGLIA_XML></GANGLIA_XML>"
        assert world.tcp._rng.getstate() == state_before

    def test_corruption_injects_a_detectable_close_tag(self, world):
        world.fabric.set_gray("client", "server", corrupt_probability=1.0)
        payload = "<GANGLIA_XML>" + "<HOST NAME='x'></HOST>" * 20
        payload += "</GANGLIA_XML>"
        got = self.exchange(world, payload)
        assert "</CORRUPTED>" in got[0][0]
        assert len(got[0][0]) == len(payload)  # same wire size
        assert world.tcp.corrupted_responses == 1

    def test_truncation_cuts_the_payload_short(self, world):
        world.fabric.set_gray("client", "server", truncate_probability=1.0)
        payload = "x" * 1000
        got = self.exchange(world, payload)
        assert 0 < len(got[0][0]) < len(payload)
        assert world.tcp.truncated_responses == 1

    def test_spike_delays_the_response(self, world):
        clean = self.exchange(world)[0][1]
        world.fabric.set_gray(
            "client", "server", spike_probability=1.0, spike_seconds=2.0
        )
        spiked = self.exchange(world)[0][1]
        assert spiked == pytest.approx(clean + 2.0)
        assert world.tcp.spiked_responses == 1

    def test_bandwidth_degradation_slows_the_transfer(self, world):
        payload = "y" * 500_000
        clean = self.exchange(world, payload)[0][1]
        world.fabric.set_gray("client", "server", bandwidth_factor=0.01)
        degraded = self.exchange(world, payload)[0][1]
        assert degraded > clean * 10

    def test_corrupted_tagged_payload_loses_its_generation(self, world):
        """A mangled TaggedXml must arrive as a plain string: the client
        may never present a stale token for corrupt content."""
        world.fabric.set_gray("client", "server", corrupt_probability=1.0)
        tagged = TaggedXml("<GANGLIA_XML>" + "z" * 100 + "</GANGLIA_XML>", "e1:7")
        got = self.exchange(world, tagged)
        assert isinstance(got[0][0], str)
        assert "e1:7" not in got[0][0]

    def test_gray_conditions_validate(self):
        with pytest.raises(ValueError):
            GrayConditions(corrupt_probability=1.5)
        with pytest.raises(ValueError):
            GrayConditions(bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            GrayConditions(spike_seconds=-1.0)


# -- unit: serve queue -------------------------------------------------------


class TestServeQueue:
    def test_sheds_oldest_when_full(self):
        q = ServeQueue(limit=2)
        q.push(done_at=10.0, attached="a")
        q.push(done_at=11.0, attached="b")
        shed = q.make_room(now=0.0)
        assert shed == ["a"]
        assert q.shed_count == 1

    def test_completed_entries_purge_for_free(self):
        q = ServeQueue(limit=2)
        q.push(done_at=1.0, attached="a")
        q.push(done_at=2.0, attached="b")
        assert q.make_room(now=5.0) == []  # both done; nothing shed
        assert q.depth == 0

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            ServeQueue(limit=0)


# -- poller with the resilience layer ---------------------------------------


@pytest.fixture
def poller_world(engine, fabric, tcp):
    fabric.add_host("gmeta")
    for i in range(3):
        fabric.add_host(f"node{i}")
    return tcp


def make_poller(engine, tcp, resilience=None, nodes=3, **kwargs):
    received, downs = [], []
    config = DataSourceConfig(
        "meteor",
        [Address.gmond(f"node{i}") for i in range(nodes)],
        poll_interval=kwargs.pop("poll_interval", 15.0),
        timeout=kwargs.pop("timeout", 4.0),
    )
    poller = DataSourcePoller(
        engine,
        tcp,
        "gmeta",
        config,
        on_data=lambda name, xml, rtt: received.append(xml),
        on_source_down=lambda name, err: downs.append(name),
        resilience=resilience,
        **kwargs,
    )
    return poller, received, downs


class TestResilientPoller:
    def test_adaptive_timeout_tightens_with_samples(
        self, engine, poller_world
    ):
        poller_world.listen(
            Address.gmond("node0"), lambda c, r: Response("<x/>")
        )
        poller, _, _ = make_poller(engine, poller_world, RESILIENCE)
        assert poller.current_timeout == 4.0  # cold: the fixed timeout
        poller.start()
        engine.run_for(100.0)
        assert poller.current_timeout < 4.0

    def test_breaker_skips_polls_on_a_dead_source(
        self, engine, fabric, poller_world
    ):
        for i in range(3):
            fabric.set_host_up(f"node{i}", False)
        baseline, _, _ = make_poller(engine, poller_world, None, nodes=1)
        resilient, _, _ = make_poller(engine, poller_world, RESILIENCE, nodes=1)
        baseline.start()
        resilient.start()
        engine.run_for(600.0)
        assert resilient.polls_skipped > 0
        assert resilient.polls < baseline.polls

    def test_recontact_stays_steady_despite_the_breaker(
        self, engine, fabric, poller_world
    ):
        """The backoff ceiling IS the paper's re-contact guarantee: even
        a permanently dead source is probed every few intervals."""
        fabric.set_host_up("node0", False)
        poller, _, _ = make_poller(engine, poller_world, RESILIENCE, nodes=1)
        poller.start()
        engine.run_for(100.0)
        before = poller.polls
        engine.run_for(300.0)  # 20 intervals; ceiling is 4 intervals
        attempts = poller.polls - before
        assert attempts >= 300.0 / poller.breaker.max_backoff - 2

    def test_recovered_source_reingests_within_one_breaker_window(
        self, engine, fabric, poller_world
    ):
        poller_world.listen(
            Address.gmond("node0"), lambda c, r: Response("<x/>")
        )
        fabric.set_host_up("node0", False)
        poller, received, _ = make_poller(
            engine, poller_world, RESILIENCE, nodes=1
        )
        poller.start()
        engine.run_for(200.0)
        assert received == []
        assert poller.breaker.state == OPEN
        fabric.set_host_up("node0", True)
        engine.run_for(poller.breaker.max_backoff + 15.0 + 1.0)
        assert len(received) >= 1
        assert poller.breaker.state == CLOSED

    def test_failover_prefers_the_healthier_endpoint(
        self, engine, poller_world
    ):
        poller, _, _ = make_poller(engine, poller_world, RESILIENCE)
        node1, node2 = Address.gmond("node1"), Address.gmond("node2")
        poller._health[node1] = 0.2
        poller._health[node2] = 0.9
        poller._advance_endpoint()
        assert poller.current_address == node2

    def test_failover_ties_keep_rotation_order(self, engine, poller_world):
        poller, _, _ = make_poller(engine, poller_world, RESILIENCE)
        poller._advance_endpoint()  # no health signal anywhere: baseline
        assert poller.current_address == Address.gmond("node1")

    def test_overloaded_reply_is_not_a_failure(
        self, engine, fabric, poller_world
    ):
        poller_world.listen(
            Address.gmond("node0"), lambda c, r: Response(Overloaded())
        )
        poller, received, downs = make_poller(
            engine, poller_world, RESILIENCE, nodes=1
        )
        poller.start()
        engine.run_for(60.0)
        assert poller.overloaded_replies >= 3
        assert received == []
        assert downs == []
        assert poller.breaker.state == CLOSED

    def test_disabled_config_is_inert(self, engine, poller_world):
        poller, _, _ = make_poller(engine, poller_world, None)
        assert poller.resilience is None
        assert poller.breaker is None
        assert poller.adaptive is None


# -- end-to-end: salvage, quarantine, shedding ------------------------------


def build_leaf(resilience=None, incremental=False, hosts=6, seed=7):
    """One gmetad polling one pseudo-gmond over a corruptible link."""
    engine = Engine()
    fabric = Fabric()
    rngs = RngRegistry(seed)
    tcp = TcpNetwork(engine, fabric, rng=rngs.stream("tcp.gray"))
    pseudo = PseudoGmond(
        engine, fabric, tcp, "meteor", hosts, rngs.stream("pg"),
        refresh_interval=15.0,
    )
    config = GmetadConfig(
        name="leaf",
        host="gmeta-leaf",
        archive_mode="account",
        incremental=incremental,
        resilience=resilience,
    )
    config.add_source("meteor", [pseudo.address])
    gmetad = Gmetad(engine, fabric, tcp, config)
    gmetad.start()
    return SimpleNamespace(
        engine=engine, fabric=fabric, tcp=tcp, pseudo=pseudo, gmetad=gmetad
    )


class TestSalvageIngest:
    def test_corruption_never_evicts_a_cluster_source(self):
        world = build_leaf(resilience=ResilienceConfig())
        world.engine.run_for(35.0)  # two clean polls
        world.fabric.set_gray(
            "gmeta-leaf", "pgmond-meteor", corrupt_probability=1.0
        )
        for _ in range(10):
            world.engine.run_for(15.0)
            snap = world.gmetad.datastore.source("meteor")
            assert snap is not None and snap.up, "source was evicted"
        assert world.gmetad.polls_salvaged > 0
        snap = world.gmetad.datastore.source("meteor")
        assert snap.quarantined
        assert snap.corrupt_polls > 0
        assert snap.columns.host_count > 0

    def test_baseline_marks_the_same_corruption_down(self):
        world = build_leaf(resilience=None)
        world.engine.run_for(35.0)
        world.fabric.set_gray(
            "gmeta-leaf", "pgmond-meteor", corrupt_probability=1.0
        )
        world.engine.run_for(150.0)
        snap = world.gmetad.datastore.source("meteor")
        assert not snap.up  # the gray failure looks black to the baseline
        assert world.gmetad.polls_salvaged == 0

    def test_salvage_carries_lost_hosts_forward(self):
        world = build_leaf(resilience=ResilienceConfig(), hosts=8)
        world.engine.run_for(35.0)
        before = set(
            world.gmetad.datastore.source("meteor").columns.host_names
        )
        world.fabric.set_gray(
            "gmeta-leaf", "pgmond-meteor", corrupt_probability=1.0
        )
        world.engine.run_for(150.0)
        snap = world.gmetad.datastore.source("meteor")
        assert set(snap.columns.host_names) == before  # nobody vanished
        assert 0 < snap.salvaged_hosts <= len(before)
        assert snap.quarantined

    def test_clean_poll_exits_quarantine(self):
        world = build_leaf(resilience=ResilienceConfig())
        world.engine.run_for(35.0)
        world.fabric.set_gray(
            "gmeta-leaf", "pgmond-meteor", corrupt_probability=1.0
        )
        world.engine.run_for(60.0)
        assert world.gmetad.datastore.source("meteor").quarantined
        world.fabric.clear_gray("gmeta-leaf", "pgmond-meteor")
        # salvaged polls never open the breaker, so recovery needs only
        # the next regular poll -- well within one breaker window
        world.engine.run_for(16.0)
        snap = world.gmetad.datastore.source("meteor")
        assert not snap.quarantined
        assert snap.up

    def test_salvage_with_conditional_polling(self):
        """Corrupted tagged responses degrade to eager polls (generation
        stripped) and still salvage; no false NOT-MODIFIED."""
        world = build_leaf(resilience=ResilienceConfig(), incremental=True)
        world.engine.run_for(35.0)
        world.fabric.set_gray(
            "gmeta-leaf", "pgmond-meteor", corrupt_probability=1.0
        )
        world.engine.run_for(100.0)
        snap = world.gmetad.datastore.source("meteor")
        assert snap.up
        assert world.gmetad.polls_salvaged > 0

    def test_truncation_salvages_the_prefix(self):
        world = build_leaf(resilience=ResilienceConfig(), hosts=10)
        world.engine.run_for(35.0)
        world.fabric.set_gray(
            "gmeta-leaf", "pgmond-meteor", truncate_probability=1.0
        )
        world.engine.run_for(100.0)
        assert world.gmetad.polls_salvaged > 0
        snap = world.gmetad.datastore.source("meteor")
        assert snap.up
        assert snap.columns.host_count == 10  # salvaged + carried forward


class TestGridQuarantine:
    def build_pair(self, resilience):
        """A parent gmetad polling a child gmetad (grid source)."""
        engine = Engine()
        fabric = Fabric()
        rngs = RngRegistry(11)
        tcp = TcpNetwork(engine, fabric, rng=rngs.stream("tcp.gray"))
        pseudo = PseudoGmond(
            engine, fabric, tcp, "attic-c0", 4, rngs.stream("pg"),
            refresh_interval=15.0,
        )
        child_config = GmetadConfig(
            name="attic", host="gmeta-attic", archive_mode="account",
            incremental=False, resilience=resilience,
        )
        child_config.add_source("attic-c0", [pseudo.address])
        child = Gmetad(engine, fabric, tcp, child_config)
        parent_config = GmetadConfig(
            name="sdsc", host="gmeta-sdsc", archive_mode="account",
            incremental=False, resilience=resilience,
        )
        parent_config.add_source(
            "attic", [Address.gmetad("gmeta-attic")], kind="grid"
        )
        parent = Gmetad(engine, fabric, tcp, parent_config)
        child.start()
        parent.start()
        return SimpleNamespace(
            engine=engine, fabric=fabric, parent=parent, child=child
        )

    def test_grid_source_quarantines_on_last_good(self):
        """Summary-form responses have no salvageable HOST unit; the
        parent degrades to the child's last-good summary instead."""
        world = self.build_pair(ResilienceConfig())
        world.engine.run_for(50.0)
        snap = world.parent.datastore.source("attic")
        assert snap is not None and snap.up
        good_summary = snap.summary
        world.fabric.set_gray(
            "gmeta-sdsc", "gmeta-attic", corrupt_probability=1.0
        )
        world.engine.run_for(100.0)
        snap = world.parent.datastore.source("attic")
        assert snap.up  # still serving
        assert snap.quarantined
        assert snap.summary is good_summary  # last-good, untouched
        assert world.parent.polls_quarantined > 0

    def test_unsalvageable_corruption_feeds_the_breaker(self):
        world = self.build_pair(ResilienceConfig())
        world.engine.run_for(50.0)
        world.fabric.set_gray(
            "gmeta-sdsc", "gmeta-attic", corrupt_probability=1.0
        )
        world.engine.run_for(300.0)
        poller = world.parent.pollers["attic"]
        assert poller.breaker.opens > 0
        assert poller.polls_skipped > 0

    def test_recovery_via_half_open_probe_within_one_window(self):
        world = self.build_pair(ResilienceConfig())
        world.engine.run_for(50.0)
        world.fabric.set_gray(
            "gmeta-sdsc", "gmeta-attic", corrupt_probability=1.0
        )
        world.engine.run_for(200.0)
        poller = world.parent.pollers["attic"]
        assert poller.breaker.state == OPEN
        world.fabric.clear_gray("gmeta-sdsc", "gmeta-attic")
        window = poller.breaker.max_backoff + poller.config.poll_interval
        world.engine.run_for(window + 1.0)
        snap = world.parent.datastore.source("attic")
        assert not snap.quarantined
        assert snap.up
        assert poller.breaker.state == CLOSED


class TestLoadShedding:
    def test_query_storm_gets_explicit_overloaded_replies(self):
        world = build_leaf(
            resilience=ResilienceConfig(serve_queue_limit=2)
        )
        world.fabric.add_host("viewer")
        world.engine.run_for(35.0)
        got = []
        for _ in range(6):
            world.tcp.request(
                "viewer",
                world.gmetad.address,
                "/",
                on_response=lambda p, rtt: got.append(p),
                timeout=8.0,
            )
        world.engine.run_for(10.0)
        assert len(got) == 6
        shed = [p for p in got if isinstance(p, Overloaded)]
        served = [p for p in got if isinstance(p, str)]
        assert len(shed) == 4  # oldest four shed by the storm
        assert len(served) == 2
        assert world.gmetad.queries_shed == 4

    def test_no_shedding_without_a_storm(self):
        world = build_leaf(
            resilience=ResilienceConfig(serve_queue_limit=2)
        )
        world.fabric.add_host("viewer")
        world.engine.run_for(35.0)
        got = []
        for i in range(6):
            world.engine.call_later(
                float(i),
                lambda: world.tcp.request(
                    "viewer",
                    world.gmetad.address,
                    "/",
                    on_response=lambda p, rtt: got.append(p),
                    timeout=8.0,
                ),
            )
        world.engine.run_for(20.0)
        assert all(isinstance(p, str) for p in got)
        assert world.gmetad.queries_shed == 0


# -- baseline equivalence ----------------------------------------------------


class TestBaselineEquivalence:
    """With the layer disabled, behaviour is byte-identical to a build
    without a resilience config at all (the paper-faithful baseline)."""

    @staticmethod
    def run_federation(resilience):
        federation = build_paper_tree(
            "nlevel",
            hosts_per_cluster=4,
            archive_mode="account",
            resilience=resilience,
        ).start()
        federation.engine.run_for(120.0)
        return federation

    def test_disabled_layer_is_byte_identical(self):
        off = self.run_federation(None)
        none = self.run_federation(None)
        for name in none.gmetads:
            xml_none, _ = none.gmetads[name].serve_query("/")
            xml_off, _ = off.gmetads[name].serve_query("/")
            assert xml_none == xml_off, f"{name} output diverged"
        assert none.tcp.requests_sent == off.tcp.requests_sent
        assert none.tcp.responses_delivered == off.tcp.responses_delivered
        for name in none.gmetads:
            for source, poller in none.gmetads[name].pollers.items():
                twin = off.gmetads[name].pollers[source]
                assert (poller.polls, poller.successes, poller.failovers) == (
                    twin.polls, twin.successes, twin.failovers
                )

    def test_enabled_layer_is_quiet_on_a_healthy_federation(self):
        """With no faults, resilience changes nothing observable about
        the data either -- polls all succeed, nothing salvaged or shed."""
        on = self.run_federation(ResilienceConfig(serve_queue_limit=64))
        assert all(g.polls_salvaged == 0 for g in on.gmetads.values())
        assert all(g.queries_shed == 0 for g in on.gmetads.values())
        for gmetad in on.gmetads.values():
            for poller in gmetad.pollers.values():
                assert poller.polls_skipped == 0
                assert poller.breaker.state == CLOSED
