"""Unit tests for the RRD store."""

import pytest

from repro.rrd.database import compact_rra_specs
from repro.rrd.store import SUMMARY_HOST, MetricKey, RrdStore


def key(metric="load_one", host="h0"):
    return MetricKey("src", "meteor", host, metric)


class TestMetricKey:
    def test_ordering_and_str(self):
        a = MetricKey("s", "c", "h", "a")
        b = MetricKey("s", "c", "h", "b")
        assert a < b
        assert str(a) == "s/c/h/a"

    def test_hashable(self):
        assert len({key(), key(), key("other")}) == 2


class TestFullMode:
    def make(self):
        return RrdStore(mode="full", rra_specs=compact_rra_specs())

    def test_series_created_on_demand(self):
        store = self.make()
        store.update(key(), 0.0, 1.0)
        store.update(key(), 15.0, 2.0)
        store.update(key("cpu_user"), 0.0, 50.0)
        assert len(store) == 2
        assert store.create_count == 2
        assert store.update_count == 3

    def test_values_reach_database(self):
        store = self.make()
        for i in range(5):
            store.update(key(), i * 15.0, float(i))
        db = store.database(key())
        assert db.updates == 5

    def test_keys_for_host(self):
        store = self.make()
        store.update(key("a"), 0.0, 1.0)
        store.update(key("b"), 0.0, 1.0)
        store.update(key("c", host="h1"), 0.0, 1.0)
        assert [k.metric for k in store.keys_for_host("src", "meteor", "h0")] == [
            "a", "b",
        ]

    def test_update_summary_writes_two_series(self):
        store = self.make()
        store.update_summary("src", "meteor", "load_one", 0.0, 17.5, 10)
        keys = store.keys()
        assert MetricKey("src", "meteor", SUMMARY_HOST, "load_one") in keys
        assert MetricKey("src", "meteor", SUMMARY_HOST, "load_one.num") in keys

    def test_unknown_database_is_none(self):
        assert self.make().database(key()) is None


class TestAccountMode:
    def test_counts_without_allocating(self):
        store = RrdStore(mode="account")
        for i in range(100):
            store.update(key(), i * 15.0, 1.0)
        assert store.update_count == 100
        assert len(store) == 0

    def test_database_access_rejected(self):
        store = RrdStore(mode="account")
        with pytest.raises(RuntimeError):
            store.database(key())

    def test_on_update_hook_fires(self):
        hits = []
        store = RrdStore(mode="account", on_update=hits.append)
        store.update(key(), 0.0, 1.0)
        assert hits == [1]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RrdStore(mode="magnetic-tape")
