"""Tests for RRD persistence (save/load round trips)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rrd.consolidate import ConsolidationFunction
from repro.rrd.database import RraSpec, RrdDatabase, compact_rra_specs
from repro.rrd.persist import (
    PersistError,
    load_database,
    load_store,
    save_database,
    save_store,
)
from repro.rrd.store import MetricKey, RrdStore


def assert_stores_equal(a, b, now):
    assert b.keys() == a.keys()
    for key in a.keys():
        for got, want in zip(b.fetch_series(key, 0.0, now), a.fetch_series(key, 0.0, now)):
            np.testing.assert_array_equal(got, want)
        sa, sb = a.database(key), b.database(key)
        assert sb.latest() == sa.latest() or (
            math.isnan(sb.latest()) and math.isnan(sa.latest())
        ), key
        assert sb.updates == sa.updates, key
        assert sb.last_update_time == sa.last_update_time, key


def filled_database(n=100, gap_at=None):
    db = RrdDatabase(step=15.0, rra_specs=compact_rra_specs())
    t = 0.0
    for i in range(n):
        t += 10.0 if i != gap_at else 600.0
        db.update(t, float(i % 13) - 3.0)
    return db


def assert_database_equal(a, b):
    assert a.step == b.step
    assert a.downtime_fill == b.downtime_fill
    assert a.last_update_time == b.last_update_time
    assert a.updates == b.updates
    for rra_a, rra_b in zip(a.rras, b.rras):
        assert rra_a.cf is rra_b.cf
        assert rra_a.pdp_per_row == rra_b.pdp_per_row
        assert rra_a.rows_written == rra_b.rows_written
        assert rra_a.last_row_end_step == rra_b.last_row_end_step
        assert rra_a.pending_pdps == rra_b.pending_pdps
        np.testing.assert_array_equal(rra_a.recent_rows(), rra_b.recent_rows())


class TestDatabaseRoundTrip:
    def test_basic_round_trip(self, tmp_path):
        db = filled_database()
        path = tmp_path / "m.npz"
        save_database(db, path)
        assert_database_equal(db, load_database(path))

    def test_round_trip_with_gap(self, tmp_path):
        db = filled_database(gap_at=50)
        save_database(db, tmp_path / "m.npz")
        assert_database_equal(db, load_database(tmp_path / "m.npz"))

    def test_loaded_database_accepts_further_updates(self, tmp_path):
        db = filled_database(20)
        save_database(db, tmp_path / "m.npz")
        restored = load_database(tmp_path / "m.npz")
        # continuing the stream must produce identical state in both
        t = db.last_update_time
        for i in range(30):
            t += 12.0
            db.update(t, float(i))
            restored.update(t, float(i))
        assert_database_equal(db, restored)

    def test_fresh_database_round_trip(self, tmp_path):
        db = RrdDatabase(step=15.0, rra_specs=compact_rra_specs())
        save_database(db, tmp_path / "empty.npz")
        restored = load_database(tmp_path / "empty.npz")
        assert restored.latest() is None
        restored.update(1.0, 2.0)  # still usable

    def test_creates_parent_directories(self, tmp_path):
        save_database(filled_database(5), tmp_path / "a" / "b" / "m.npz")
        assert (tmp_path / "a" / "b" / "m.npz").exists()

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz")
        with pytest.raises(PersistError):
            load_database(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PersistError):
            load_database(tmp_path / "nope.npz")

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=200.0),
                st.one_of(st.none(), st.floats(-1e3, 1e3)),
            ),
            min_size=0,
            max_size=80,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, samples):
        tmp_path = tmp_path_factory.mktemp("rrd-prop")
        db = RrdDatabase(
            step=15.0,
            rra_specs=[
                RraSpec(ConsolidationFunction.AVERAGE, 1, 12),
                RraSpec(ConsolidationFunction.MAX, 4, 8),
                RraSpec(ConsolidationFunction.LAST, 8, 6),
            ],
            downtime_fill="nan",
        )
        t = 0.0
        for gap, value in samples:
            t += gap
            db.update(t, value)
        path = tmp_path / "prop.npz"
        save_database(db, path)
        assert_database_equal(db, load_database(path))


class TestStoreRoundTrip:
    def make_store(self, **kwargs):
        kwargs.setdefault("rra_specs", compact_rra_specs())
        store = RrdStore(mode="full", **kwargs)
        for h in range(3):
            for m in ("load_one", "cpu_user"):
                for i in range(20):
                    store.update(
                        MetricKey("src", "meteor", f"h{h}", m),
                        i * 15.0,
                        float(i + h),
                    )
        store.update_summary("src", "meteor", "load_one", 0.0, 9.0, 3)
        return store

    def test_store_round_trip(self, tmp_path):
        store = self.make_store()
        count = save_store(store, tmp_path / "rrds")
        assert count == len(store)
        restored = load_store(tmp_path / "rrds")
        assert_stores_equal(store, restored, 20 * 15.0)

    def test_columnar_leaf_store_round_trip(self, tmp_path):
        """A columnar gmetad's archive: plan-scattered detail series and
        scalar-written summary and self-cluster series, one bank."""
        from repro.bench.topology import build_paper_tree

        fed = build_paper_tree(
            "nlevel", hosts_per_cluster=4, columnar=True, archive_mode="full"
        ).start()
        fed.engine.run_for(150.0)
        store = fed.gmetad("physics").rrd_store
        assert any(k.host == "__summary__" for k in store.keys())
        assert save_store(store, tmp_path / "rrds") == len(store) > 0
        restored = load_store(tmp_path / "rrds")
        assert_stores_equal(store, restored, fed.engine.now)
        # both keep archiving identically after the restore
        t = fed.engine.now + 15.0
        for target in (store, restored):
            for key in store.keys():
                target.update(key, t, 1.0)
        assert_stores_equal(store, restored, t + 60.0)

    def test_restore_keeps_step_ladder_and_fill(self, tmp_path):
        specs = [
            RraSpec(ConsolidationFunction.MAX, 1, 12),
            RraSpec(ConsolidationFunction.AVERAGE, 4, 6),
        ]
        store = self.make_store(step=10.0, rra_specs=specs, downtime_fill="nan")
        save_store(store, tmp_path / "rrds")
        restored = load_store(tmp_path / "rrds")
        assert restored.step == 10.0
        assert restored.rra_specs == specs
        assert restored.downtime_fill == "nan"
        # a series first written after the restore gets the saved ladder
        fresh = MetricKey("src", "meteor", "h9", "load_one")
        twin = RrdDatabase(step=10.0, rra_specs=specs, downtime_fill="nan")
        for i in range(0, 40, 3):  # gaps: the fill mode shows in the rows
            restored.update(fresh, i * 10.0, float(i))
            twin.update(i * 10.0, float(i))
        for span in (100.0, 400.0):
            for got, want in zip(
                restored.fetch_series(fresh, 400.0 - span, 400.0),
                twin.fetch(400.0 - span, 400.0),
            ):
                np.testing.assert_array_equal(got, want)

    def test_files_with_different_ladders_rejected(self, tmp_path):
        root = tmp_path / "rrds"
        save_store(self.make_store(), root)
        other = RrdStore(mode="full")  # the default five-RRA ladder
        other.update(MetricKey("zzz", "c", "h", "m"), 0.0, 1.0)
        save_store(other, root)
        with pytest.raises(PersistError):
            load_store(root)

    def test_layout_matches_ganglia_rootdir(self, tmp_path):
        save_store(self.make_store(), tmp_path / "rrds")
        expected = tmp_path / "rrds" / "src" / "meteor" / "h0" / "load_one.npz"
        assert expected.exists()

    def test_account_store_rejected(self, tmp_path):
        with pytest.raises(PersistError):
            save_store(RrdStore(mode="account"), tmp_path / "x")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(PersistError):
            load_store(tmp_path / "nothing-here")

    def test_stray_file_rejected(self, tmp_path):
        root = tmp_path / "rrds"
        save_store(self.make_store(), root)
        stray = root / "stray.npz"
        save_database(filled_database(3), stray)
        with pytest.raises(PersistError):
            load_store(root)
