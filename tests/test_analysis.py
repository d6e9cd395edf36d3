"""Tests for the analysis package (forensics, availability, load stats)."""

import numpy as np
import pytest

from repro.analysis.availability import (
    cluster_availability,
    host_availability,
)
from repro.analysis.forensics import estimate_death_time, find_outages
from repro.analysis.loadstats import (
    busiest_hosts,
    cluster_mean_series,
    series_statistics,
)
from repro.metrics.types import MetricType
from repro.rrd.database import RrdDatabase, compact_rra_specs
from repro.rrd.store import MetricKey, RrdStore
from repro.wire.model import ClusterElement, HostElement, MetricElement
from tests.helpers import archive_summary


def db_with_pattern(pattern, step=15.0):
    """Build a database whose finest rows follow ``pattern`` (None=gap)."""
    db = RrdDatabase(step=step, rra_specs=compact_rra_specs())
    for i, value in enumerate(pattern):
        db.update(i * step, value)
    db.flush(len(pattern) * step)
    return db


class TestForensics:
    def test_single_outage_with_recovery(self):
        db = db_with_pattern([1.0] * 10 + [0.0] * 6 + [1.0] * 10)
        outages = find_outages(db, 0.0, 500.0)
        assert len(outages) == 1
        outage = outages[0]
        assert not outage.ongoing
        assert outage.duration == pytest.approx(5 * 15.0)

    def test_ongoing_outage_and_death_estimate(self):
        db = db_with_pattern([1.0] * 10 + [0.0] * 8)
        death = estimate_death_time(db, 0.0, 500.0)
        assert death is not None
        assert death == pytest.approx(11 * 15.0, abs=15.0)

    def test_no_outage_no_death(self):
        db = db_with_pattern([1.0] * 20)
        assert find_outages(db, 0.0, 500.0) == []
        assert estimate_death_time(db, 0.0, 500.0) is None

    def test_short_blip_below_min_rows_ignored(self):
        db = db_with_pattern([1.0] * 5 + [0.0] + [1.0] * 5)
        assert find_outages(db, 0.0, 500.0, min_rows=2) == []

    def test_multiple_outages(self):
        db = db_with_pattern(
            [1.0] * 5 + [0.0] * 3 + [1.0] * 5 + [0.0] * 3 + [1.0] * 5
        )
        outages = find_outages(db, 0.0, 500.0)
        assert len(outages) == 2
        assert all(not o.ongoing for o in outages)

    def test_recovered_then_alive_is_not_dead(self):
        db = db_with_pattern([1.0] * 5 + [0.0] * 5 + [1.0] * 5)
        assert estimate_death_time(db, 0.0, 500.0) is None

    def test_empty_database(self):
        db = RrdDatabase(step=15.0, rra_specs=compact_rra_specs())
        assert find_outages(db, 0.0, 100.0) == []


class TestAvailability:
    def make_store(self):
        store = RrdStore(mode="full", rra_specs=compact_rra_specs())
        plan = store.column_plan(
            [MetricKey("s", "c", h, "load_one") for h in ("h0", "h1")]
        )
        # h0: always up; h1: down half the time
        for i in range(40):
            store.update_columns(
                plan, i * 15.0, np.array([1.0, 0.0 if 10 <= i < 30 else 1.0])
            )
        for db_key in store.keys():
            store.database(db_key).flush(40 * 15.0)
        return store

    def test_host_availability(self):
        store = self.make_store()
        up = host_availability(store, "s", "c", "h0", 0.0, 600.0)
        flaky = host_availability(store, "s", "c", "h1", 0.0, 600.0)
        assert up == pytest.approx(1.0)
        assert 0.3 < flaky < 0.7

    def test_unknown_host_returns_none(self):
        store = self.make_store()
        assert host_availability(store, "s", "c", "ghost", 0.0, 600.0) is None

    def test_cluster_report(self):
        store = self.make_store()
        report = cluster_availability(store, "s", "c", 0.0, 600.0)
        assert set(report.per_host) == {"h0", "h1"}
        assert 0.6 < report.cluster_availability < 0.9
        assert report.worst_hosts(1)[0][0] == "h1"
        text = report.render()
        assert "degraded" in text and "h1" in text

    def test_summary_host_excluded(self):
        store = self.make_store()
        archive_summary(store, "s", "c", 0.0, load_one=(2.0, 2))
        report = cluster_availability(store, "s", "c", 0.0, 600.0)
        assert "__summary__" not in report.per_host


class TestLoadStats:
    def test_cluster_mean_series(self):
        store = RrdStore(mode="full", rra_specs=compact_rra_specs())
        for i in range(20):
            t = i * 15.0
            archive_summary(store, "s", "c", t, load_one=(6.0, 3))
        for db_key in store.keys():
            store.database(db_key).flush(20 * 15.0)
        times, means = cluster_mean_series(store, "s", "c", "load_one", 0.0, 400.0)
        assert len(means) > 5
        np.testing.assert_allclose(means, 2.0)

    def test_mean_series_missing_data(self):
        store = RrdStore(mode="full", rra_specs=compact_rra_specs())
        times, means = cluster_mean_series(store, "s", "c", "x", 0.0, 100.0)
        assert len(times) == 0

    def test_series_statistics(self):
        values = np.array([1.0, 2.0, np.nan, 3.0, 4.0])
        stats = series_statistics(values)
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        assert "p95" in stats.render()

    def test_series_statistics_empty(self):
        stats = series_statistics(np.array([np.nan]))
        assert stats.count == 0

    def make_cluster(self):
        cluster = ClusterElement(name="c")
        for i, load in enumerate([0.5, 3.5, 1.5, 2.5]):
            host = HostElement(name=f"h{i}", tn=1.0)
            host.add_metric(MetricElement("load_one", str(load), MetricType.FLOAT))
            cluster.add_host(host)
        dead = HostElement(name="dead", tn=500.0)
        dead.add_metric(MetricElement("load_one", "99.0", MetricType.FLOAT))
        cluster.add_host(dead)
        return cluster

    def test_busiest_hosts(self):
        top = busiest_hosts(self.make_cluster(), count=2)
        assert top == [("h1", 3.5), ("h3", 2.5)]

    def test_busiest_excludes_dead_hosts(self):
        names = [name for name, _ in busiest_hosts(self.make_cluster(), count=10)]
        assert "dead" not in names

    def test_busiest_rejects_summary_form(self):
        from repro.wire.model import SummaryInfo

        cluster = ClusterElement(name="c", summary=SummaryInfo(hosts_up=1))
        with pytest.raises(ValueError):
            busiest_hosts(cluster)
