"""The observability layer bound to one gmetad daemon.

One :class:`Observability` instance per instrumented daemon owns the
metrics registry, the bounded trace buffer, the drift auditor and the
periodic tasks that refresh the in-band ``__gmetad__`` cluster.  Every
hook in the daemons is guarded by ``if self.obs is not None`` and the
attribute is ``None`` unless ``GmetadConfig.observability`` is set, so
the default build carries zero instrumentation cost and stays
byte-identical to the uninstrumented daemon.

Charging policy: *observing* is free (registry updates, span records,
drift re-folds charge nothing), but *publishing* self-metrics in band is
real work -- the summarize/archive/install of the ``__gmetad__`` cluster
and every query served over it charge the daemon's CPU account exactly
like any other source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.obs.config import SELF_SOURCE, ObservabilityConfig
from repro.obs.drift import DriftAuditor
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, TraceBuffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gmetad_base import GmetadBase
    from repro.sim.engine import PeriodicTask

#: numeric encoding of circuit-breaker states for gauge export
BREAKER_STATE_CODES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


def _serve_form(request: str) -> str:
    """Classify a serve request for per-form stage timings.

    "summary" and "full" are whole-tree dumps (with/without
    ``filter=summary``); anything with a non-root path is "path".
    """
    path, _, params = request.partition("?")
    if path.strip("/"):
        return "path"
    return "summary" if "filter=summary" in params else "full"


class Observability:
    """Registry + tracing + in-band self-metrics for one gmetad."""

    def __init__(
        self, gmetad: "GmetadBase", config: Optional[ObservabilityConfig] = None
    ) -> None:
        self.gmetad = gmetad
        self.config = config if config is not None else ObservabilityConfig()
        self.registry = MetricsRegistry(
            histogram_window=self.config.histogram_window
        )
        self.trace = TraceBuffer(self.config.trace_capacity)
        self.auditor = DriftAuditor(gmetad)
        self._tasks: List["PeriodicTask"] = []
        self.started = False
        #: per-codec {xml,binary} byte-counter variants exist only on
        #: binary-enabled daemons: a baseline daemon's self-cluster
        #: output must stay byte-identical to pre-codec builds
        self._codec_split = bool(getattr(gmetad.config, "binary_wire", False))
        #: arena instruments (fragment hit/miss/invalidation gauges,
        #: per-form serve timings) exist only on columnar-serve daemons
        #: -- a baseline daemon's self-cluster must stay byte-identical
        self._serve_split = bool(
            getattr(gmetad.config, "columnar_serve", False)
        )
        #: storage-tier instruments exist only when the tier is on, for
        #: the same reason; the tier also streams per-shard flush
        #: timings into this registry once attached
        store = getattr(getattr(gmetad, "archiver", None), "store", None)
        self._storage_tier = (
            store if getattr(store, "is_storage_tier", False) else None
        )
        if self._storage_tier is not None:
            self._storage_tier.attach_registry(self.registry)

    # -- lifecycle (driven by GmetadBase.start/stop) ------------------------

    def start(self) -> "Observability":
        if self.started:
            return self
        self.started = True
        engine = self.gmetad.engine
        if self.config.self_cluster_interval > 0:
            self._tasks.append(
                engine.every(
                    self.config.self_cluster_interval,
                    self.refresh_self_cluster,
                    initial_delay=self.config.self_cluster_interval,
                )
            )
        if self.config.drift_check_interval > 0:
            self._tasks.append(
                engine.every(
                    self.config.drift_check_interval, self.auditor.sweep
                )
            )
        return self

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        self.started = False

    # -- span recording ------------------------------------------------------

    def record_span(
        self, name: str, start: float, duration: float, **attrs
    ) -> None:
        self.trace.append(
            Span(
                name=name,
                daemon=self.gmetad.config.name,
                start=start,
                duration=duration,
                attrs=attrs,
            )
        )

    def spans_jsonl(self) -> str:
        """The buffered trace as JSON lines."""
        return self.trace.to_jsonl()

    # -- polling-side hooks --------------------------------------------------

    def record_poll(self, source: str, seconds: float, outcome: str) -> None:
        """One poll finished: outcome in data/not_modified/timeout/overloaded."""
        registry = self.registry
        registry.counter("polls_total").inc()
        registry.counter(f"polls_{outcome}").inc()
        registry.counter(f"poll_outcome.{source}.{outcome}").inc()
        if outcome != "timeout":
            registry.histogram(f"poll_rtt.{source}", units="s").observe(seconds)
        now = self.gmetad.engine.now
        self.record_span(
            "poll", now - seconds, seconds, source=source, outcome=outcome
        )

    def record_breaker_transition(
        self, source: str, old_state: str, new_state: str, now: float
    ) -> None:
        registry = self.registry
        registry.counter("breaker_transitions").inc()
        if new_state == "open":
            registry.counter("breaker_opens").inc()
            registry.counter(f"breaker_opens.{source}").inc()
        registry.gauge(f"breaker_state.{source}").set(
            BREAKER_STATE_CODES.get(new_state, -1.0)
        )

    def record_ingest(
        self,
        source: str,
        nbytes: int,
        start: float,
        parse_seconds: float,
        summarize_seconds: float,
        archive_seconds: float,
        outcome: str = "ok",
        path: str = "tree",
        codec: str = "xml",
    ) -> None:
        """One poll response went through parse -> summarize -> archive.

        ``path`` names the ingest pipeline that ran ("tree" or
        "columnar") so stage timings attribute to the right fast path.
        The default path adds nothing: self-metrics output stays
        byte-identical to pre-columnar builds unless columnar ran.
        ``codec`` names the wire encoding ("xml" or "binary"); per-codec
        byte counters appear only on binary-enabled daemons, so baseline
        self-metric output is untouched.
        """
        registry = self.registry
        registry.counter("ingest_bytes_in", units="bytes").inc(nbytes)
        if self._codec_split:
            registry.counter(f"ingest_bytes_in_{codec}", units="bytes").inc(
                nbytes
            )
        registry.counter(f"ingests_{outcome}").inc()
        if path != "tree":
            registry.counter(f"ingests_{path}").inc()
        registry.histogram("stage_parse", units="s").observe(parse_seconds)
        self.record_span(
            "parse", start, parse_seconds, source=source,
            bytes=nbytes, outcome=outcome, path=path,
        )
        if outcome == "ok" or summarize_seconds > 0:
            registry.histogram("stage_summarize", units="s").observe(
                summarize_seconds
            )
            self.record_span(
                "summarize", start + parse_seconds, summarize_seconds,
                source=source,
            )
            registry.histogram("stage_archive", units="s").observe(
                archive_seconds
            )
            self.record_span(
                "archive", start + parse_seconds + summarize_seconds,
                archive_seconds, source=source,
            )

    # -- serving-side hooks --------------------------------------------------

    def record_serve(
        self,
        request: str,
        seconds: float,
        nbytes: int,
        cached_bytes: int = 0,
        outcome: str = "ok",
        codec: str = "xml",
    ) -> None:
        registry = self.registry
        registry.counter("serves_total").inc()
        registry.counter(f"serves_{outcome}").inc()
        registry.counter("serve_bytes_out", units="bytes").inc(nbytes)
        if self._codec_split:
            registry.counter(f"serve_bytes_out_{codec}", units="bytes").inc(
                nbytes
            )
        registry.counter("serve_bytes_cached", units="bytes").inc(cached_bytes)
        registry.histogram("stage_serve", units="s").observe(seconds)
        if self._serve_split and outcome == "ok":
            registry.histogram(
                f"stage_serve_{_serve_form(request)}", units="s"
            ).observe(seconds)
        now = self.gmetad.engine.now
        self.record_span(
            "serve", now, seconds, request=request, bytes=nbytes,
            cached=cached_bytes, outcome=outcome,
        )

    def record_shed(self, count: int = 1) -> None:
        self.registry.counter("serves_shed").inc(count)

    def record_push(
        self, nbytes: int, seconds: float = 0.0, codec: str = "xml"
    ) -> None:
        registry = self.registry
        registry.counter("push_notifications").inc()
        registry.counter("push_bytes_out", units="bytes").inc(nbytes)
        if self._codec_split:
            registry.counter(f"push_bytes_out_{codec}", units="bytes").inc(
                nbytes
            )
        now = self.gmetad.engine.now
        self.record_span("push", now, seconds, bytes=nbytes)

    def record_negotiation(self, outcome: str) -> None:
        """One ``accept=`` handshake resolved: "accepted" or "fell_back"."""
        self.registry.counter(f"codec_negotiations_{outcome}").inc()

    # -- derived gauges + in-band mount --------------------------------------

    def sync_daemon_gauges(self) -> None:
        """Mirror the daemon's cumulative stats into registry gauges."""
        gmetad = self.gmetad
        registry = self.registry
        registry.gauge("daemon_polls_ingested").set(gmetad.polls_ingested)
        registry.gauge("daemon_polls_not_modified").set(
            gmetad.polls_not_modified
        )
        registry.gauge("daemon_parse_errors").set(gmetad.parse_errors)
        registry.gauge("daemon_polls_salvaged").set(gmetad.polls_salvaged)
        registry.gauge("daemon_polls_quarantined").set(
            gmetad.polls_quarantined
        )
        registry.gauge("daemon_queries_served").set(gmetad.queries_served)
        registry.gauge("daemon_queries_shed").set(gmetad.queries_shed)
        if self._codec_split:
            registry.gauge("daemon_frames_ingested").set(
                getattr(gmetad, "frames_ingested", 0)
            )
            registry.gauge("daemon_frame_errors").set(
                getattr(gmetad, "frame_errors", 0)
            )
        if self._serve_split:
            arenas = getattr(gmetad, "_serve_arenas", {})
            registry.gauge("serve_frag_hits").set(
                sum(a.frag_hits for a in arenas.values())
            )
            registry.gauge("serve_frag_misses").set(
                sum(a.frag_misses for a in arenas.values())
            )
            registry.gauge("serve_frag_invalidations").set(
                sum(a.frag_invalidations for a in arenas.values())
            )
            # the count the fast path exists to hold at zero
            registry.gauge("serve_materializations").set(
                getattr(gmetad.datastore, "materializations", 0)
            )
        conditional_total = gmetad.polls_ingested + gmetad.polls_not_modified
        registry.gauge("conditional_poll_hit_ratio").set(
            gmetad.polls_not_modified / conditional_total
            if conditional_total
            else 0.0
        )
        bytes_out = registry.counter("serve_bytes_out", units="bytes").value
        bytes_cached = registry.counter(
            "serve_bytes_cached", units="bytes"
        ).value
        registry.gauge("frag_cache_hit_ratio").set(
            bytes_cached / bytes_out if bytes_out else 0.0
        )
        if gmetad.serve_queue is not None:
            registry.gauge("serve_queue_depth").set(gmetad.serve_queue.depth)
            registry.gauge("serve_queue_peak_depth").set(
                gmetad.serve_queue.peak_depth
            )
        up = sum(
            1
            for name, s in gmetad.datastore.sources.items()
            if s.up and name != SELF_SOURCE
        )
        down = sum(
            1
            for name, s in gmetad.datastore.sources.items()
            if not s.up and name != SELF_SOURCE
        )
        registry.gauge("sources_up").set(up)
        registry.gauge("sources_down").set(down)
        registry.gauge("trace_spans_dropped").set(self.trace.dropped)
        registry.gauge("cpu_busy_seconds").set(
            gmetad.cpu.total_busy_seconds
        )
        tier = self._storage_tier
        if tier is not None:
            registry.gauge("storage_nodes_up").set(tier.nodes_up())
            registry.gauge("storage_nodes_down").set(
                len(tier.nodes) - tier.nodes_up()
            )
            registry.gauge("storage_under_replicated_shards").set(
                tier.under_replicated_shards()
            )
            registry.gauge("storage_failover_fetches").set(
                tier.failover_fetches
            )
            registry.gauge("storage_stale_fetches").set(tier.stale_fetches)
            registry.gauge("storage_fetch_failures").set(tier.fetch_failures)
            registry.gauge("storage_updates_lost").set(tier.updates_lost)
            registry.gauge("storage_repairs_completed").set(
                tier.repairs_completed
            )
            registry.gauge("storage_replica_moves").set(tier.replica_moves)

    def refresh_self_cluster(self) -> None:
        """Re-render and install the ``__gmetad__`` cluster in band."""
        from repro.obs.selfcluster import install_self_cluster

        self.sync_daemon_gauges()
        now = self.gmetad.engine.now
        install_self_cluster(self.gmetad, now)
        # in-band means *fully* in band: pub-sub subscribers see the
        # self-metrics move like any other source
        self.gmetad._publish(SELF_SOURCE, now)
