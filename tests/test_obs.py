"""Tests for repro.obs: the self-observability layer.

Covers the instruments, the bounded trace buffer and its JSONL wire
form, the in-band ``__gmetad__`` cluster riding the unmodified query
engine and web frontend, the drift auditor (including catching injected
drift), breaker-transition recording, the tracestats summarizer, the
``repro-sim trace`` CLI, and the byte-identity guarantee: enabling
observability never changes what the daemon serves for ordinary
sources.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.analysis.tracestats import (
    phase_coverage,
    summarize_jsonl,
    summarize_spans,
)
from repro.bench.topology import PAPER_GMETA_ORDER, build_paper_tree
from repro.cli import main
from repro.core.resilience import CircuitBreaker
from repro.frontend.viewer import WebFrontend
from repro.obs import (
    SELF_SOURCE,
    MetricsRegistry,
    Observability,
    ObservabilityConfig,
    Span,
    TraceBuffer,
    parse_jsonl,
)
from repro.sim.engine import Engine


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        c = registry.counter("polls_total")
        c.inc()
        c.inc(3.0)
        assert c.value == 4.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        g = registry.gauge("queue_depth")
        g.set(7)
        g.set(2)
        assert g.value == 2.0

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        h = registry.histogram("rtt", units="s")
        for v in (0.1, 0.3, 0.2):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(0.2)
        assert h.max == pytest.approx(0.3)
        assert h.recent_quantile(0.0) == pytest.approx(0.1)
        assert h.recent_quantile(1.0) == pytest.approx(0.3)

    def test_histogram_window_is_bounded(self):
        registry = MetricsRegistry(histogram_window=4)
        h = registry.histogram("rtt")
        for v in range(100):
            h.observe(float(v))
        # exact lifetime stats, but quantiles over the recent window only
        assert h.count == 100
        assert h.max == 99.0
        assert h.recent_quantile(0.0) == 96.0  # oldest surviving sample

    def test_instrument_lookup_is_create_once(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_samples_expand_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", units="s").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 2.0
        assert snapshot["h_count"] == 1.0
        assert snapshot["h_mean"] == 0.5
        assert snapshot["h_max"] == 0.5

    def test_as_metric_elements_sorted_and_formatted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.gauge("alpha").set(1.25)
        elements = registry.as_metric_elements(tmax=60.0)
        assert [m.name for m in elements] == ["alpha", "zeta"]
        assert elements[0].val == "1.25"
        assert elements[1].val == "1"
        assert all(m.tmax == 60.0 for m in elements)


# ---------------------------------------------------------------------------
# trace buffer + JSONL wire form
# ---------------------------------------------------------------------------


def _span(i: int, name: str = "poll") -> Span:
    return Span(name=name, daemon="d", start=float(i), duration=0.5)


class TestTraceBuffer:
    def test_bounded_fifo_counts_drops(self):
        buf = TraceBuffer(capacity=3)
        for i in range(5):
            buf.append(_span(i))
        assert len(buf) == 3
        assert buf.recorded == 5
        assert buf.dropped == 2
        # oldest evicted first
        assert [s.start for s in buf.spans()] == [2.0, 3.0, 4.0]

    def test_filter_by_phase(self):
        buf = TraceBuffer(capacity=10)
        buf.append(_span(0, "poll"))
        buf.append(_span(1, "serve"))
        buf.append(_span(2, "poll"))
        assert len(buf.spans("poll")) == 2
        assert len(buf.spans("serve")) == 1

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_jsonl_round_trip(self):
        buf = TraceBuffer(capacity=10)
        buf.append(
            Span("serve", "root", 12.5, 0.003, attrs={"request": "/", "bytes": 9})
        )
        buf.append(Span("poll", "root", 15.0, 0.2))
        text = buf.to_jsonl()
        lines = text.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # every line is standalone JSON
        back = parse_jsonl(text)
        assert back == buf.spans()
        assert back[0].attrs["request"] == "/"
        assert back[1].end == pytest.approx(15.2)


# ---------------------------------------------------------------------------
# hook-level recording (no federation needed)
# ---------------------------------------------------------------------------


def make_standalone_obs(**config_kwargs) -> Observability:
    """An Observability bound to a minimal stand-in daemon."""
    stub = SimpleNamespace(
        config=SimpleNamespace(name="stub"), engine=Engine(), obs=None
    )
    return Observability(stub, ObservabilityConfig(**config_kwargs))


class TestRecordingHooks:
    def test_record_poll_counts_and_traces(self):
        obs = make_standalone_obs()
        obs.gmetad.engine.run_for(10.0)
        obs.record_poll("sdsc-c0", 0.25, "data")
        obs.record_poll("sdsc-c0", 5.0, "timeout")
        snap = obs.registry.snapshot()
        assert snap["polls_total"] == 2.0
        assert snap["polls_data"] == 1.0
        assert snap["polls_timeout"] == 1.0
        assert snap["poll_outcome.sdsc-c0.timeout"] == 1.0
        # timeouts don't pollute the RTT distribution
        assert snap["poll_rtt.sdsc-c0_count"] == 1.0
        spans = obs.trace.spans("poll")
        assert len(spans) == 2
        assert spans[0].start == pytest.approx(10.0 - 0.25)

    def test_record_breaker_transition(self):
        obs = make_standalone_obs()
        obs.record_breaker_transition("attic-c1", "closed", "open", 30.0)
        obs.record_breaker_transition("attic-c1", "open", "half-open", 60.0)
        snap = obs.registry.snapshot()
        assert snap["breaker_transitions"] == 2.0
        assert snap["breaker_opens"] == 1.0
        assert snap["breaker_opens.attic-c1"] == 1.0
        assert snap["breaker_state.attic-c1"] == 1.0  # half-open

    def test_record_ingest_failure_skips_downstream_stages(self):
        obs = make_standalone_obs()
        obs.record_ingest("c0", 100, 0.0, 0.01, 0.0, 0.0, outcome="parse_error")
        assert obs.trace.spans("parse")
        assert not obs.trace.spans("summarize")
        assert not obs.trace.spans("archive")
        assert obs.registry.snapshot()["ingests_parse_error"] == 1.0

    def test_record_serve_and_shed(self):
        obs = make_standalone_obs()
        obs.record_serve("/a", 0.002, 500, cached_bytes=200)
        obs.record_shed(3)
        snap = obs.registry.snapshot()
        assert snap["serves_total"] == 1.0
        assert snap["serve_bytes_out"] == 500.0
        assert snap["serve_bytes_cached"] == 200.0
        assert snap["serves_shed"] == 3.0
        assert obs.trace.spans("serve")[0].attrs["cached"] == 200


class TestBreakerTransitionCallback:
    def test_full_cycle_fires_every_edge(self):
        transitions = []
        breaker = CircuitBreaker(poll_interval=10.0, threshold=2)
        breaker.on_transition = lambda old, new: transitions.append((old, new))
        breaker.on_failure(0.0)
        breaker.on_failure(10.0)  # threshold reached
        assert transitions == [("closed", "open")]
        assert breaker.allow(10.0 + breaker.max_backoff)  # probe
        assert transitions[-1] == ("open", "half-open")
        breaker.on_success()
        assert transitions[-1] == ("half-open", "closed")

    def test_same_state_is_not_a_transition(self):
        transitions = []
        breaker = CircuitBreaker(poll_interval=10.0, threshold=3)
        breaker.on_transition = lambda old, new: transitions.append((old, new))
        breaker.on_success()
        breaker.on_success()  # already closed: no edge
        assert transitions == []


# ---------------------------------------------------------------------------
# the instrumented federation: in-band self-metrics end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def obs_federation():
    federation = build_paper_tree(
        "nlevel",
        hosts_per_cluster=5,
        seed=14,
        observability=ObservabilityConfig(
            self_cluster_interval=15.0, drift_check_interval=30.0
        ),
    ).start()
    federation.engine.run_for(120.0)
    yield federation
    federation.stop()


class TestInBandSelfCluster:
    def test_self_cluster_answers_path_queries(self, obs_federation):
        xml, _ = obs_federation.gmetad("sdsc").serve_query(f"/{SELF_SOURCE}")
        assert f'CLUSTER NAME="{SELF_SOURCE}"' in xml
        assert 'HOST NAME="gmeta-sdsc"' in xml
        assert "polls_total" in xml

    def test_single_metric_path_resolves(self, obs_federation):
        xml, _ = obs_federation.gmetad("sdsc").serve_query(
            f"/{SELF_SOURCE}/gmeta-sdsc/polls_total"
        )
        assert 'METRIC NAME="polls_total"' in xml

    def test_parent_carries_child_self_metrics_upstream(self, obs_federation):
        # in-band means the parent's poll of the child picks up the
        # child's __gmetad__ cluster like any other source
        xml, _ = obs_federation.gmetad("root").serve_query("/")
        assert f'"{SELF_SOURCE}"' in xml

    def test_every_daemon_covers_the_pipeline_phases(self, obs_federation):
        for name in PAPER_GMETA_ORDER:
            obs = obs_federation.gmetad(name).obs
            assert obs is not None
            summary = summarize_spans(obs.trace.spans())
            required = ("parse", "summarize", "archive")
            if obs_federation.gmetad(name).pollers:
                required = ("poll",) + required
            missing = phase_coverage(summary, required)
            assert not missing, f"{name} missing phases {missing}"

    def test_poll_accounting_is_consistent(self, obs_federation):
        snap = obs_federation.gmetad("sdsc").obs.registry.snapshot()
        outcomes = sum(
            snap.get(f"polls_{o}", 0.0)
            for o in ("data", "not_modified", "timeout", "overloaded")
        )
        assert snap["polls_total"] > 0
        assert snap["polls_total"] == outcomes

    def test_drift_auditor_swept_clean(self, obs_federation):
        for name in PAPER_GMETA_ORDER:
            auditor = obs_federation.gmetad(name).obs.auditor
            assert auditor.sweeps > 0
            assert auditor.total_divergences == 0

    def test_web_frontend_renders_self_view(self, obs_federation):
        viewer = WebFrontend(
            obs_federation.engine,
            obs_federation.fabric,
            obs_federation.tcp,
            target=obs_federation.gmetad("sdsc").address,
            design="nlevel",
            host="wf-obs-test",
        )
        page, timing = viewer.render_self_view()
        assert page.name == SELF_SOURCE
        assert page.up_count == 1
        assert timing.bytes_received > 0
        host_page, _ = viewer.render_self_view(host="gmeta-sdsc")
        assert host_page.up
        assert "polls_total" in host_page.metrics


class TestDriftAuditorCatchesInjectedDrift:
    @pytest.mark.parametrize(
        "gates",
        [{}, {"columnar": True, "columnar_serve": True}],
        ids=["dom", "columnar"],
    )
    def test_mutated_summary_is_flagged(self, gates, monkeypatch):
        federation = build_paper_tree(
            "nlevel",
            hosts_per_cluster=4,
            seed=14,
            incremental=True,
            observability=ObservabilityConfig(
                self_cluster_interval=0.0, drift_check_interval=0.0
            ),
            **gates,
        ).start()
        try:
            federation.engine.run_for(60.0)
            gmetad = federation.gmetad("sdsc")
            snapshot = gmetad.datastore.sources["sdsc-c0"]
            assert (snapshot.columns is not None) == bool(gates)
            # the audit re-folds held columns: it never builds a host tree
            from repro.columnar import ColumnarCluster

            builds = []
            materialize_into = ColumnarCluster.materialize_into

            def counting(cols, cluster):
                builds.append(cols.name)
                return materialize_into(cols, cluster)

            monkeypatch.setattr(ColumnarCluster, "materialize_into", counting)
            materializations = gmetad.datastore.materializations
            report = gmetad.obs.auditor.sweep()
            assert report.checked > 0 and report.clean
            # corrupt one installed incremental summary in place
            metric = next(iter(snapshot.summary.metrics.values()))
            metric.total += 1.0
            report = gmetad.obs.auditor.sweep()
            assert report.diverged == ["sdsc-c0"]
            assert report.max_abs_delta >= 1.0
            snap = gmetad.obs.registry.snapshot()
            assert snap["drift_divergences"] == 1.0
            assert gmetad.obs.trace.spans("drift_audit")
            assert builds == []
            assert gmetad.datastore.materializations == materializations
        finally:
            federation.stop()

    def test_one_level_design_has_nothing_to_audit(self):
        # the 1-level design installs an empty SummaryInfo() by design:
        # no reduction ran, so there is nothing to re-fold against
        federation = build_paper_tree(
            "1level",
            hosts_per_cluster=5,
            seed=3,
            observability=ObservabilityConfig(),
        ).start()
        try:
            federation.engine.run_for(120.0)
            for gmetad in federation.gmetads.values():
                auditor = gmetad.obs.auditor
                assert auditor.sweeps > 0
                assert auditor.last_report.checked == 0
                assert auditor.last_report.clean
                assert auditor.total_divergences == 0
        finally:
            federation.stop()


class TestObservabilityIsInvisibleWhenServing:
    def test_ordinary_source_bytes_identical_with_obs_on(self):
        """The observer must not perturb what it observes: every
        ordinary-cluster query serves byte-identical XML with the layer
        on.  (Grid sources are excluded by design: a child's subtree
        *intentionally* gains its in-band ``__gmetad__`` cluster.)"""
        plain = build_paper_tree("nlevel", hosts_per_cluster=4, seed=14)
        observed = build_paper_tree(
            "nlevel",
            hosts_per_cluster=4,
            seed=14,
            observability=ObservabilityConfig(),
        )
        plain.start()
        observed.start()
        try:
            plain.engine.run_for(95.0)
            observed.engine.run_for(95.0)
            checked = 0
            for name in PAPER_GMETA_ORDER:
                for source in plain.gmetad(name).config.data_sources:
                    if source.name not in plain.pseudos:
                        continue  # grid source: gains __gmetad__ by design
                    request = f"/{source.name}"
                    expected, _ = plain.gmetad(name).serve_query(request)
                    actual, _ = observed.gmetad(name).serve_query(request)
                    assert actual == expected, (name, request)
                    checked += 1
            assert checked == 12  # all pseudo-gmond clusters compared
        finally:
            plain.stop()
            observed.stop()

    def test_observability_defaults_off(self):
        federation = build_paper_tree("nlevel", hosts_per_cluster=2, seed=14)
        assert all(g.obs is None for g in federation.gmetads.values())


# ---------------------------------------------------------------------------
# tracestats + CLI
# ---------------------------------------------------------------------------


class TestTracestats:
    def test_summarize_folds_per_phase_and_daemon(self):
        spans = [
            Span("poll", "root", 0.0, 0.2),
            Span("poll", "root", 15.0, 0.4),
            Span("serve", "ucsd", 20.0, 0.01),
        ]
        summary = summarize_spans(spans)
        assert summary.spans == 3
        assert summary.phase_names == ["poll", "serve"]
        assert summary.daemon_names == ["root", "ucsd"]
        poll = summary.phases["poll"]
        assert poll.count == 2
        assert poll.mean_duration == pytest.approx(0.3)
        assert poll.max_duration == pytest.approx(0.4)
        assert poll.last_end == pytest.approx(15.4)
        assert summary.daemons["ucsd"]["serve"].count == 1

    def test_report_renders_rows(self):
        summary = summarize_spans([Span("poll", "root", 0.0, 0.2)])
        report = summary.report()
        assert "1 spans, 1 daemons, 1 phases" in report
        assert "poll" in report and "daemon root:" in report

    def test_phase_coverage_lists_missing(self):
        summary = summarize_jsonl(Span("poll", "d", 0.0, 0.1).to_json() + "\n")
        assert phase_coverage(summary) == [
            "parse", "summarize", "archive", "serve",
        ]
        assert phase_coverage(summary, required=("poll",)) == []


class TestTraceCli:
    def test_trace_command_emits_parseable_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--hosts", "4", "--window", "60", "--warmup", "30",
            "--out", str(out),
        ])
        assert code == 0
        spans = parse_jsonl(out.read_text())
        assert spans
        summary = summarize_spans(spans)
        assert not phase_coverage(summary)
        err = capsys.readouterr().err
        assert "trace summary" in err
