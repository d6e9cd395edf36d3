"""Predictive alerting vs static thresholds under replayed faults.

One committed artifact (``BENCH_analytics.json``), three arms of the
same :func:`repro.analytics.replay.run_replay` harness:

**Columnar** -- the standard schedule (three load ramps, two host
flaps) against a columnar full-archive gmetad; the analytics pass reads
the whole :class:`~repro.rrd.bank.SeriesBank` through one
``window_matrix`` gather.  Headline numbers: per-ramp detection lead
(static fire time minus predictive fire time) and the false-positive
rate over all (evaluation pass, host) windows.

**Degraded** -- same schedule with the gmetad<->gmond link running at a
fraction of its bandwidth for part of the run: polls slow down but the
flush-driven analytics keeps pace, and flapping hosts still must not
page the predictive rules.

**Storage** -- same schedule, archiver swapped for a replicated storage
tier with a node fail-stopped mid-run; readings flow through the
tier's window readout (one gather per shard on its failover-chosen read
node) and the pass counter must not stall.

Acceptance, from the issue: median detection lead > 0 s over the static
baseline and a false-positive rate <= 5% of evaluation windows.  The
``smoke`` variant (one ramp, one flap, shorter replay) is CI-sized.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict

import pytest

from repro.analytics.replay import (
    ReplayResult,
    default_schedule,
    run_replay,
)

SEED = 1234
HOSTS = 8
DURATION = 900.0
MAX_FP_RATE = 0.05

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_analytics.json"


def run_degraded_arm() -> ReplayResult:
    """The standard schedule with the poll link at 20% bandwidth for
    the middle of the run (overlapping two ramps and a flap)."""
    schedule = default_schedule(hosts=HOSTS, duration=DURATION)
    schedule.degrade = (200.0, 400.0, 0.2)
    return run_replay(schedule, seed=SEED + 1)


@pytest.fixture(scope="module")
def arms() -> Dict[str, ReplayResult]:
    return {
        "columnar": run_replay(
            default_schedule(hosts=HOSTS, duration=DURATION), seed=SEED
        ),
        "degraded": run_degraded_arm(),
        "storage": run_replay(
            default_schedule(hosts=HOSTS, duration=DURATION, storage=True),
            seed=SEED,
            storage=True,
        ),
    }


def render(arms: Dict[str, ReplayResult]) -> str:
    lines = ["Predictive vs static alerting (fault replay)"]
    for name, r in arms.items():
        lines.append(
            f"  {name:9s} median lead {r.median_lead:6.1f}s  "
            f"fp {r.false_positives}/{r.evaluation_windows} "
            f"({100 * r.fp_rate:.2f}%)  passes {r.analytics_passes}"
        )
    return "\n".join(lines)


@pytest.mark.slow
def test_write_analytics_bench(arms, bench_env, save_report):
    save_report("analytics_alerting", render(arms))
    columnar = arms["columnar"]
    payload = {
        "benchmark": "analytics_alerting",
        "seed": SEED,
        "hosts": HOSTS,
        "duration_seconds": DURATION,
        "arms": {name: r.to_dict() for name, r in arms.items()},
        "acceptance": {
            "median_lead_seconds": columnar.median_lead,
            "median_lead_positive": columnar.median_lead > 0,
            "fp_rate": columnar.fp_rate,
            "fp_rate_within_bound": columnar.fp_rate <= MAX_FP_RATE,
            "max_fp_rate": MAX_FP_RATE,
        },
        "environment": bench_env,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.slow
def test_predictive_leads_static_on_every_ramp(arms):
    """Acceptance: median lead > 0 -- prediction beats the threshold."""
    for name in ("columnar", "storage"):
        r = arms[name]
        assert r.leads, f"{name}: no ramp produced a (static, predictive) pair"
        assert r.median_lead > 0.0, (name, [o.__dict__ for o in r.ramps])
        # and not just the median: every ramp individually
        assert all(lead > 0.0 for lead in r.leads), (name, r.leads)


@pytest.mark.slow
def test_false_positive_rate_within_bound(arms):
    """Acceptance: flaps and baseline noise page <= 5% of windows."""
    for name, r in arms.items():
        assert r.fp_rate <= MAX_FP_RATE, (name, r.to_dict())


@pytest.mark.slow
def test_analytics_survives_storage_kill(arms):
    """The storage arm's pass counter keeps moving through the kill."""
    r = arms["storage"]
    expected_passes = int(DURATION / 15.0) - 2  # one per flush timestamp
    assert r.analytics_passes >= expected_passes * 0.8
    assert r.analytics_series > 0


@pytest.mark.smoke
def test_smoke_single_ramp_replay(save_report):
    """CI-sized spot check: one ramp + one flap, 600 simulated seconds."""
    schedule = default_schedule(hosts=4, duration=600.0)
    assert len(schedule.ramps) >= 1 and len(schedule.flaps) >= 1
    result = run_replay(schedule, seed=SEED)
    assert result.leads and result.median_lead > 0.0
    assert result.fp_rate <= MAX_FP_RATE
    assert result.analytics_passes > 10
    save_report(
        "analytics_alerting_smoke",
        f"Analytics smoke: median lead {result.median_lead:.1f}s over "
        f"{len(result.leads)} ramp(s); fp "
        f"{result.false_positives}/{result.evaluation_windows} "
        f"({100 * result.fp_rate:.2f}%); passes {result.analytics_passes}",
    )
