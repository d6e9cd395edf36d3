"""Ablation: RRD archiving cost and the §4 write-path optimization.

"Our archiving technique makes too many updates to the file-based
databases ... We believe in future designs gmeta can manipulate its RRD
databases in a more efficient manner."

Measured here with real wall-clock, over one poll of a 100-host cluster
(100 hosts x 30 metrics, compact RRA ladder) repeated for ten cycles:

- ``RrdDatabase.update``: one standalone database per metric, one call
  per metric per poll -- the per-file update the paper describes;
- per-key ``ColumnPlan``: one one-key plan per metric, one scatter per
  metric per poll into the store's series bank -- the per-key loop
  through the store's only write path;
- ``ColumnPlan`` scatter: one vectorized call per poll -- the path every
  archive write takes (detail, summaries, self-clusters, replay);
- the long-downtime fill path (hours of zero records must be cheap).

All three write paths archive value-identical rows.
"""

import time

import numpy as np
import pytest

from repro.bench.reporting import format_table
from repro.rrd.database import RrdDatabase, compact_rra_specs
from repro.rrd.store import MetricKey, RrdStore

#: one polling cycle of a 100-host cluster: 100 hosts x 30 metrics
KEYS = [
    MetricKey("src", "meteor", f"h{h}", f"m{m}")
    for h in range(100)
    for m in range(30)
]
CYCLES = 10


def sample(cycle: int) -> float:
    return float(cycle % 7)


def run_database():
    databases = {
        key: RrdDatabase(step=15.0, rra_specs=compact_rra_specs()) for key in KEYS
    }
    for cycle in range(CYCLES):
        t, value = cycle * 15.0, sample(cycle)
        for key in KEYS:
            databases[key].update(t, value)
    return databases


def run_per_key_plans():
    store = RrdStore(mode="full", rra_specs=compact_rra_specs())
    plans = [store.column_plan([key]) for key in KEYS]
    for cycle in range(CYCLES):
        t, value = cycle * 15.0, np.array([sample(cycle)])
        for plan in plans:
            store.update_columns(plan, t, value)
    return store


def run_scatter():
    store = RrdStore(mode="full", rra_specs=compact_rra_specs())
    plan = store.column_plan(KEYS)
    for cycle in range(CYCLES):
        store.update_columns(plan, cycle * 15.0, np.full(len(KEYS), sample(cycle)))
    return store


RUNNERS = (
    ("RrdDatabase.update", run_database),
    ("per-key ColumnPlan", run_per_key_plans),
    ("ColumnPlan scatter", run_scatter),
)


@pytest.fixture(scope="module")
def measured():
    results = {}
    for name, runner in RUNNERS:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            archive = runner()
            times.append(time.perf_counter() - start)
        results[name] = {"seconds": sorted(times)[1], "archive": archive}  # median of 3
    return results


def test_archiving_report(measured, save_report, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    total = CYCLES * len(KEYS)
    rows = [
        (name, data["seconds"], total / data["seconds"], 1e6 * data["seconds"] / total)
        for name, data in measured.items()
    ]
    save_report(
        "rrd_archiving",
        format_table(
            ["write path", "seconds", "updates/s", "us/update"],
            rows,
            title=(
                f"RRD archiving: {total} updates "
                f"({len(KEYS)} series x {CYCLES} cycles, compact ladder)"
            ),
        ),
    )


def test_scatter_beats_per_update_writes(measured):
    """The §4 answer: one vectorized write per poll, not one per metric."""
    scatter = measured["ColumnPlan scatter"]["seconds"]
    assert scatter < measured["RrdDatabase.update"]["seconds"]
    assert scatter < measured["per-key ColumnPlan"]["seconds"]


def test_every_path_archives_identical_rows(measured):
    databases = measured["RrdDatabase.update"]["archive"]
    end = CYCLES * 15.0
    for name in ("per-key ColumnPlan", "ColumnPlan scatter"):
        store = measured[name]["archive"]
        assert store.update_count == CYCLES * len(KEYS)
        for key in KEYS[::97]:
            series = store.database(key)
            assert series.updates == databases[key].updates == CYCLES
            for got, want in zip(series.fetch(0.0, end), databases[key].fetch(0.0, end)):
                np.testing.assert_array_equal(got, want)


def test_benchmark_per_key_plans(benchmark):
    store = RrdStore(mode="full", rra_specs=compact_rra_specs())
    plans = [store.column_plan([key]) for key in KEYS[:600]]
    value = np.ones(1)
    clock = {"t": 0.0}

    def one_cycle():
        clock["t"] += 15.0
        for plan in plans:
            store.update_columns(plan, clock["t"], value)

    benchmark(one_cycle)


def test_benchmark_column_scatter(benchmark):
    store = RrdStore(mode="full", rra_specs=compact_rra_specs())
    plan = store.column_plan(KEYS[:600])
    values = np.ones(len(plan))
    clock = {"t": 0.0}

    def one_cycle():
        clock["t"] += 15.0
        store.update_columns(plan, clock["t"], values)

    benchmark(one_cycle)


def test_benchmark_downtime_fill(benchmark):
    """A day-long outage (5760 steps of zero records) per database."""

    def fill():
        db = RrdDatabase(step=15.0, rra_specs=compact_rra_specs())
        db.update(0.0, 1.0)
        db.update(86_400.0, 1.0)
        return db

    db = benchmark(fill)
    assert db.updates == 2
