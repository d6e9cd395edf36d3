"""The per-layer ledger: spans of a traced run folded into named rows.

A layer's ``self_ms`` is the time its spans were open minus the time
their child spans cover, summed over the measured cycles (timed region
and view mix alike) and divided by the number of cycles.

The self times of one timed region add up to its wall time by
construction, the root span ``sim.engine.run_for`` absorbing whatever no
wrapped entry point covers.  So the ledger's coverage is what the layers
*under* the root hold: ``trace.attributed_ms`` sums their self times in
the timed region, ``trace.attributed_share`` is that over the traced
cycle, and the remainder (``sim.engine.self_ms``: the event loop itself
and every callback that is not a wrapped entry point) is unattributed.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from spans import (
    CYCLE,
    CYCLE_ROOT,
    END,
    LEAF_NAMES,
    N,
    NAME,
    PARENT,
    START,
    Recorder,
    in_cycle_region,
    self_times,
)

#: ledger row -> the span names whose self time it sums
SELF_MS_ROWS = {
    "sim.engine.self_ms": [CYCLE_ROOT],
    "net.tcp.self_ms": ["net.tcp.request"],
    "gmond.pseudo.serve_self_ms": ["gmond.pseudo.serve"],
    "wire.parser.parse_columnar.self_ms": ["wire.parser.parse_columnar"],
    "wire.parser.parse_document.self_ms": ["wire.parser.parse_document"],
    "wire.binfmt.decode.self_ms": ["wire.binfmt.decode"],
    "wire.binfmt.encode_cluster.self_ms": ["wire.binfmt.encode_cluster"],
    "wire.binfmt.encode_summary.self_ms": ["wire.binfmt.encode_summary"],
    "columnar.layout.columns_from_cluster.self_ms": [
        "columnar.layout.columns_from_cluster"
    ],
    "columnar.summarize.update.self_ms": ["columnar.summarize.update"],
    "core.archiver.detail.self_ms": ["core.archiver.detail"],
    "core.archiver.summary.self_ms": ["core.archiver.summary"],
    "core.archiver.replay.self_ms": ["core.archiver.replay"],
    "rrd.bank.update_columns.self_ms": ["rrd.bank.update_columns"],
    "storage.tier.update_columns.self_ms": ["storage.tier.update_columns"],
    "storage.tier.fetch_series.self_ms": ["storage.tier.fetch_series"],
    "storage.tier.rebalance_sweep.self_ms": ["storage.tier.rebalance_sweep"],
    "storage.tier.repair_sweep.self_ms": ["storage.tier.repair_sweep"],
    "analytics.engine.recompute.self_ms": [
        "analytics.engine.recompute", "analytics.engine.scalar_window"
    ],
    "core.alarms.evaluate.self_ms": ["core.alarms.evaluate"],
    "serve.arena.install.self_ms": ["serve.arena.install"],
    "serve.arena.detail_fragment.self_ms": ["serve.arena.detail_fragment"],
    "core.datastore.install.self_ms": ["core.datastore.install"],
    "pubsub.broker.advance.self_ms": ["pubsub.broker.advance"],
    "readtier.replica.feed_apply.self_ms": ["readtier.replica.feed_apply"],
    "obs.observability.refresh_self_cluster.self_ms": [
        "obs.observability.refresh_self_cluster"
    ],
    "obs.drift.sweep.self_ms": ["obs.drift.sweep"],
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def fold(recorder: Recorder, cycles: int, analytics_passes: float) -> dict:
    """Trace metrics plus the layer summary of one traced run."""
    spans = recorder.spans
    selfs = self_times(spans)
    in_cycle = in_cycle_region(spans)
    self_s: Dict[str, float] = {}       # measured cycles, all regions
    self_in_cycle_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    payload: Dict[str, float] = {}
    cycle_s: Dict[int, float] = {}      # timed region of each measured cycle
    reparse_bytes = 0.0
    first_detail: List[float] = []
    installed_since_detail = False
    for index, span in enumerate(spans):
        if span[CYCLE] < 0:
            continue
        name = span[NAME]
        duration = span[END] - span[START]
        self_s[name] = self_s.get(name, 0.0) + selfs[index]
        total_s[name] = total_s.get(name, 0.0) + duration
        if in_cycle[index]:
            self_in_cycle_s[name] = self_in_cycle_s.get(name, 0.0) + selfs[index]
        if name == CYCLE_ROOT:
            cycle_s[span[CYCLE]] = cycle_s.get(span[CYCLE], 0.0) + duration
        if name in LEAF_NAMES:
            calls[name] = calls.get(name, 0.0) + span[N]
        else:
            calls[name] = calls.get(name, 0.0) + 1
            if span[N] is not None:
                payload[name] = payload.get(name, 0.0) + span[N]
        if name.startswith("wire.parser.parse_") and span[N]:
            ancestor = span[PARENT]
            while ancestor >= 0:
                if spans[ancestor][NAME] == "readtier.replica.feed_apply":
                    reparse_bytes += span[N]
                    break
                ancestor = spans[ancestor][PARENT]
        # spans are stored in start order, except the synthetic leaf
        # spans appended at the end, which are neither of these two
        if name == "serve.arena.install":
            installed_since_detail = True
        elif name == "core.query.execute.detail" and installed_since_detail:
            first_detail.append(duration)
            installed_since_detail = False

    def per_cycle_ms(names) -> float:
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names) / cycles

    def mean_ms(name: str) -> float:
        return 1000.0 * _ratio(total_s.get(name, 0.0), calls.get(name, 0.0))

    def mb_per_s(name: str) -> float:
        return _ratio(payload.get(name, 0.0) / 1e6, total_s.get(name, 0.0))

    attributed_s = sum(
        seconds for name, seconds in self_in_cycle_s.items() if name != CYCLE_ROOT
    )
    counters = recorder.counters
    metrics = {row: per_cycle_ms(names) for row, names in SELF_MS_ROWS.items()}
    metrics.update({
        "trace.cycle_wall_ms_mean": 1000.0 * total_s.get(CYCLE_ROOT, 0.0) / cycles,
        # mean - p50 is the periodic background work: every fourth cycle
        # closes RRA rows, sweeps the drift audit, rebalances the tier
        "trace.cycle_wall_ms_p50": 1000.0 * median(cycle_s.values()),
        "trace.attributed_ms": 1000.0 * attributed_s / cycles,
        "trace.attributed_share": _ratio(
            attributed_s, total_s.get(CYCLE_ROOT, 0.0)
        ),
        "wire.parser.parse_columnar.mb_per_s": mb_per_s("wire.parser.parse_columnar"),
        "wire.parser.fast_lane_miss_ratio": _ratio(
            counters.get("parser.fast_lane_misses", 0.0),
            counters.get("parser.elements", 0.0),
        ),
        "wire.parser.bytes_in": (
            payload.get("wire.parser.parse_columnar", 0.0)
            + payload.get("wire.parser.parse_document", 0.0)
        ) / cycles,
        "wire.binfmt.decode.mb_per_s": mb_per_s("wire.binfmt.decode"),
        "columnar.layout.intern_pool_size": float(
            sum(len(pool.strings) for pool in recorder.pools.values())
        ),
        "columnar.summarize.changed_host_ratio": _ratio(
            counters.get("summarize.samples", 0.0),
            counters.get("summarize.rows", 0.0),
        ),
        "storage.tier.fetch_series.calls": calls.get(
            "storage.tier.fetch_series", 0.0
        ),
        "analytics.engine.series_per_recompute": _ratio(
            calls.get("storage.tier.fetch_series", 0.0), analytics_passes
        ),
        "analytics.engine.scalar_window_share": _ratio(
            total_s.get("analytics.engine.scalar_window", 0.0),
            total_s.get("analytics.engine.recompute", 0.0),
        ),
        "core.query.execute.detail_ms": mean_ms("core.query.execute.detail"),
        "core.query.execute.summary_ms": mean_ms("core.query.execute.summary"),
        "core.query.execute.path_ms": mean_ms("core.query.execute.path"),
        "core.query.execute.first_detail_after_install_ms": (
            1000.0 * _ratio(sum(first_detail), len(first_detail))
        ),
        "core.query.execute.cached_byte_ratio": _ratio(
            counters.get("query.bytes_from_cache", 0.0),
            counters.get("query.bytes_serialized", 0.0),
        ),
        "readtier.replica.reparse_bytes": reparse_bytes / cycles,
    })
    layers = sorted(
        (
            {
                "layer": name,
                "self_ms_per_cycle": 1000.0 * seconds / cycles,
                "in_timed_region_ms": 1000.0 * self_in_cycle_s.get(name, 0.0) / cycles,
                "calls": calls.get(name, 0.0),
            }
            for name, seconds in self_s.items()
        ),
        key=lambda row: -row["self_ms_per_cycle"],
    )
    fired = sorted({span[NAME] for span in spans})
    return {"metrics": metrics, "layers": layers, "fired": fired}
