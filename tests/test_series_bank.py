"""SeriesBank differential tests: the bank vs per-key RrdDatabase twins.

The bank stores thousands of series in shared 2-D arrays and advances a
steady-state cohort with one vectorized pass; these tests drive a bank
and a list of scalar databases with identical samples and require every
observable (fetch values, times, resolution, latest, update counts,
error messages) to match exactly.
"""

import numpy as np
import pytest

from repro.rrd.bank import _CLOCK_FIELDS, _RUNG_FIELDS, SeriesBank
from repro.rrd.consolidate import ConsolidationFunction
from repro.rrd.database import RrdDatabase, RraSpec, compact_rra_specs
from repro.rrd.store import ColumnPlan, MetricKey, RrdStore


def make_twins(n, downtime_fill="zero", specs=None):
    specs = specs if specs is not None else compact_rra_specs()
    bank = SeriesBank(step=15.0, rra_specs=specs, downtime_fill=downtime_fill)
    first = bank.add_series(n)
    assert first == 0
    dbs = [
        RrdDatabase(step=15.0, rra_specs=specs, downtime_fill=downtime_fill)
        for _ in range(n)
    ]
    return bank, dbs


def assert_series_match(bank, dbs, start, end):
    for i, db in enumerate(dbs):
        bt, bv, br = bank.fetch(i, start, end)
        dt, dv, dr = db.fetch(start, end)
        assert br == dr
        assert np.array_equal(bt, dt)
        assert np.array_equal(bv, dv, equal_nan=True), f"series {i}"
        assert bank.latest(i) == db.latest() or (
            bank.latest(i) is None and db.latest() is None
        ) or (
            np.isnan(bank.latest(i)) and np.isnan(db.latest())
        )
        assert bank.updates_of(i) == db.updates
        assert bank.last_update_time_of(i) == db.last_update_time


class TestCohortUpdates:
    def test_uniform_cohort_matches_scalar(self):
        bank, dbs = make_twins(8)
        idx = np.arange(8, dtype=np.int64)
        for step in range(40):
            t = 10.0 + 15.0 * step
            values = np.array([float((step + i) % 7) for i in range(8)])
            bank.update_column(t, idx, values)
            for i, db in enumerate(dbs):
                db.update(t, float(values[i]))
        assert_series_match(bank, dbs, 0.0, 15.0 * 45)

    def test_nan_and_negative_zero_values(self):
        bank, dbs = make_twins(3)
        idx = np.arange(3, dtype=np.int64)
        seq = [
            np.array([np.nan, -0.0, 1.0]),
            np.array([2.0, np.nan, -0.0]),
            np.array([-0.0, -0.0, np.nan]),
        ]
        for step, values in enumerate(seq * 10):
            t = 5.0 + 15.0 * step
            bank.update_column(t, idx, values)
            for i, db in enumerate(dbs):
                db.update(t, float(values[i]))
        assert_series_match(bank, dbs, 0.0, 15.0 * 35)

    def test_stragglers_with_gaps(self):
        # series 1 misses polls (gap -> scalar advance path); series 2
        # joins late (fresh path); both must still match their twins
        bank, dbs = make_twins(3)
        for step in range(30):
            t = 2.0 + 15.0 * step
            cols = [0]
            if step % 3 != 1:
                cols.append(1)
            if step >= 10:
                cols.append(2)
            idx = np.array(cols, dtype=np.int64)
            values = np.array([float(step + c) for c in cols])
            bank.update_column(t, idx, values)
            for j, c in enumerate(cols):
                dbs[c].update(t, float(values[j]))
        assert_series_match(bank, dbs, 0.0, 15.0 * 35)

    def test_multiple_updates_within_a_step(self):
        bank, dbs = make_twins(2)
        idx = np.arange(2, dtype=np.int64)
        t = 0.0
        for offset in (1.0, 6.0, 11.0, 16.0, 31.0, 33.0):
            values = np.array([offset, -offset])
            bank.update_column(t + offset, idx, values)
            for i, db in enumerate(dbs):
                db.update(t + offset, float(values[i]))
        assert_series_match(bank, dbs, 0.0, 100.0)

    @pytest.mark.parametrize("fill", ["zero", "nan"])
    def test_downtime_fill_modes(self, fill):
        bank, dbs = make_twins(2, downtime_fill=fill)
        idx = np.arange(2, dtype=np.int64)
        bank.update_column(7.0, idx, np.array([1.0, 2.0]))
        for i, db in enumerate(dbs):
            db.update(7.0, float([1.0, 2.0][i]))
        # long silence, then reappear: push_fill covers the gap
        bank.update_column(7.0 + 15.0 * 40, idx, np.array([3.0, 4.0]))
        for i, db in enumerate(dbs):
            db.update(7.0 + 15.0 * 40, float([3.0, 4.0][i]))
        assert_series_match(bank, dbs, 0.0, 15.0 * 45)

    def test_out_of_order_error_message_parity(self):
        bank, dbs = make_twins(1)
        idx = np.array([0], dtype=np.int64)
        bank.update_column(100.0, idx, np.array([1.0]))
        dbs[0].update(100.0, 1.0)
        with pytest.raises(ValueError) as scalar_err:
            dbs[0].update(50.0, 2.0)
        with pytest.raises(ValueError) as bank_err:
            bank.update_column(50.0, idx, np.array([2.0]))
        assert str(bank_err.value) == str(scalar_err.value)

    def test_flush_one_matches_scalar_flush(self):
        bank, dbs = make_twins(2)
        idx = np.arange(2, dtype=np.int64)
        for step in range(5):
            t = 3.0 + 15.0 * step
            bank.update_column(t, idx, np.array([1.0, 2.0]))
            for i, db in enumerate(dbs):
                db.update(t, float([1.0, 2.0][i]))
        now = 3.0 + 15.0 * 10
        bank.flush_one(0, now)
        bank.flush_one(1, now)
        for db in dbs:
            db.flush(now)
        assert_series_match(bank, dbs, 0.0, now + 30.0)


class TestStoreIntegration:
    def key(self, metric, host="h0"):
        return MetricKey("src", "c", host, metric)

    def test_column_plan_binds_and_scatters(self):
        store = RrdStore(mode="full", rra_specs=compact_rra_specs())
        keys = [self.key("a"), self.key("b"), self.key("a", host="h1")]
        plan = store.column_plan(keys)
        assert isinstance(plan, ColumnPlan) and len(plan) == 3
        assert store.create_count == 3
        store.update_columns(plan, 10.0, np.array([1.0, 2.0, 3.0]))
        assert store.update_count == 3
        assert sorted(store.keys()) == sorted(keys)
        view = store.database(self.key("b"))
        # one sample: PDP still open, no finalized row yet (same as the
        # scalar database after a single update)
        assert view.updates == 1 and view.latest() is None
        store.update_columns(plan, 25.0, np.array([4.0, 5.0, 6.0]))
        assert view.updates == 2 and view.latest() == 2.0

    def test_copy_series_from_moves_held_keys_in_one_block(self):
        src = RrdStore(mode="full", rra_specs=compact_rra_specs())
        dst = RrdStore(mode="full", rra_specs=compact_rra_specs())
        held = [self.key("a"), self.key("b")]
        plan = src.column_plan(held)
        for step in range(12):
            src.update_columns(plan, 2.0 + 15.0 * step, step * np.array([1.0, 2.0]))
        # overwritten by the copy
        dst.update_columns(dst.column_plan([self.key("b")]), 2.0, np.array([99.0]))
        dst.copy_series_from(src, held + [self.key("missing")])
        assert dst.keys() == sorted(held)  # a key src lacks is skipped
        for k in held:
            for got, want in zip(
                dst.fetch_series(k, 0.0, 200.0), src.fetch_series(k, 0.0, 200.0)
            ):
                assert np.array_equal(got, want, equal_nan=True)
            assert dst.database(k).updates == src.database(k).updates

    def test_scalar_update_routes_into_bank(self):
        store = RrdStore(mode="full", rra_specs=compact_rra_specs())
        plan = store.column_plan([self.key("a")])
        store.update_columns(plan, 10.0, np.array([1.0]))
        # a scalar write through the database view lands in the same slot
        store.database(self.key("a")).update(25.0, 5.0)
        assert store.database(self.key("a")).updates == 2

    def test_scalar_then_plan_writes_keep_one_history(self):
        # a key first written through its database view and later bound
        # into a wider layout's plan continues in the same bank slot
        store = RrdStore(mode="full", rra_specs=compact_rra_specs())
        twin = RrdDatabase(step=15.0, rra_specs=compact_rra_specs())
        store.column_plan([self.key("a")])
        scalar = store.database(self.key("a"))
        for step in range(12):
            t = 4.0 + 15.0 * step
            scalar.update(t, float(step))
            twin.update(t, float(step))
        plan = store.column_plan([self.key("b"), self.key("a")])
        assert len(store) == 2 and store.create_count == 2
        for step in range(12, 30):
            t = 4.0 + 15.0 * step
            store.update_columns(plan, t, np.array([-1.0, float(step % 5)]))
            twin.update(t, float(step % 5))
        view = store.database(self.key("a"))
        end = 15.0 * 32
        for got, want in zip(view.fetch(0.0, end), twin.fetch(0.0, end)):
            assert np.array_equal(got, want, equal_nan=True)
        assert view.latest() == twin.latest()
        assert view.updates == twin.updates == 30
        assert view.last_update_time == twin.last_update_time

    def test_account_mode_plan_only_counts(self):
        hits = []
        store = RrdStore(mode="account", on_update=hits.append)
        plan = store.column_plan([self.key("a"), self.key("b")])
        store.update_columns(plan, 0.0, np.array([1.0, 2.0]))
        assert store.update_count == 2
        assert hits == [2]
        assert len(store) == 0

    def test_grown_bank_preserves_history(self):
        specs = [RraSpec(ConsolidationFunction.AVERAGE, 1, 20)]
        bank = SeriesBank(step=15.0, rra_specs=specs)
        bank.add_series(2)
        idx = np.arange(2, dtype=np.int64)
        for step in range(6):
            bank.update_column(1.0 + 15.0 * step, idx, np.array([1.0, 2.0]))
        bank.add_series(200)  # forces capacity growth
        t0, v0, _ = bank.fetch(0, 0.0, 100.0)
        assert np.nansum(v0) > 0  # history survived the grow

    def test_single_slot_growth_stays_within_a_quarter(self):
        # a store allocates one slot per first write; growth must not
        # leave doubling's slack behind, nor lose earlier history
        specs = [RraSpec(ConsolidationFunction.AVERAGE, 1, 8)]
        bank = SeriesBank(step=15.0, rra_specs=specs)
        twin = RrdDatabase(step=15.0, rra_specs=specs)
        for step in range(5):
            t = 1.0 + 15.0 * step
            if step == 0:
                bank.add_series(1)
            bank.update_one(0, t, float(step))
            twin.update(t, float(step))
        grows = 0
        for _ in range(10_000):
            cap = bank._cap
            bank.add_series(1)
            grows += bank._cap != cap
            assert bank._cap <= 1.25 * bank.size + 64
        assert grows > 10  # the bound was checked across many grows
        assert bank.size == 10_001
        for got, want in zip(bank.fetch(0, 0.0, 90.0), twin.fetch(0.0, 90.0)):
            assert np.array_equal(got, want, equal_nan=True)
        assert bank.updates_of(0) == twin.updates


class TestSeriesState:
    def drive(self, bank, n, steps=range(40)):
        idx = np.arange(n, dtype=np.int64)
        for step in steps:
            if step % 7 == 3:
                continue  # a gap: the fill path runs on the next poll
            values = np.array([float((step * (i + 1)) % 9) for i in range(n)])
            bank.update_column(2.0 + 15.0 * step, idx, values)

    def test_export_import_round_trip_is_observationally_identical(self):
        src, _ = make_twins(3)
        self.drive(src, 3)
        dst, _ = make_twins(5)
        for i in range(3):
            dst.import_series(4 - i, src.export_series(i))
        for i in range(3):
            for got, want in zip(dst.fetch(4 - i, 0.0, 700.0), src.fetch(i, 0.0, 700.0)):
                assert np.array_equal(got, want, equal_nan=True)
            assert dst.latest(4 - i) == src.latest(i)
            assert dst.updates_of(4 - i) == src.updates_of(i)
            assert dst.last_update_time_of(4 - i) == src.last_update_time_of(i)
        # the copies keep accepting writes exactly like the originals
        t = 2.0 + 15.0 * 41
        src.update_one(0, t, 3.0)
        dst.update_one(4, t, 3.0)
        for got, want in zip(dst.fetch(4, 0.0, t + 30), src.fetch(0, 0.0, t + 30)):
            assert np.array_equal(got, want, equal_nan=True)

    def test_export_is_detached_from_the_bank(self):
        bank, _ = make_twins(1)
        self.drive(bank, 1)
        state = bank.export_series(0)
        before = [ring.copy() for ring in state["rings"]]
        self.drive(bank, 1, steps=range(40, 120))
        assert all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(state["rings"], before)
        )

    def test_block_copy_equals_per_series_export_import(self):
        """``copy_columns_from`` is ``import_series(export_series(...))``
        for every series at once: clocks, rung cursors and accumulators
        and rings, partially filled rows and occupied targets included."""
        src, _ = make_twins(7)
        self.drive(src, 6, steps=range(37))  # series 6 is never written
        src_idx = np.array([5, 0, 3, 6, 2], dtype=np.int64)
        dst_idx = np.array([1, 7, 4, 0, 6], dtype=np.int64)
        # the coarse rungs end mid-row: partial row accumulators move too
        assert all(rra.acc_total[src_idx].any() for rra in src.rras[1:])
        block, _ = make_twins(8)
        oracle, _ = make_twins(8)
        for bank in (block, oracle):
            # targets 0, 1 and 4 hold data; 6 and 7 were never written
            self.drive(bank, 6, steps=range(5, 90))
        block.copy_columns_from(src, src_idx, dst_idx)
        for i, j in zip(src_idx, dst_idx):
            oracle.import_series(int(j), src.export_series(int(i)))
        for name in _CLOCK_FIELDS:
            got, want = getattr(block, "_" + name), getattr(oracle, "_" + name)
            assert np.array_equal(got, want, equal_nan=True), name
        for got, want in zip(block.rras, oracle.rras):
            assert np.array_equal(got.values, want.values, equal_nan=True)
            for name in _RUNG_FIELDS:
                assert np.array_equal(
                    getattr(got, name), getattr(want, name), equal_nan=True
                ), name

    @pytest.mark.parametrize(
        "other",
        [
            dict(step=10.0),
            dict(downtime_fill="nan"),
            dict(specs=[RraSpec(ConsolidationFunction.AVERAGE, 1, 64)]),
        ],
    )
    def test_import_rejects_a_different_layout(self, other):
        src = SeriesBank(
            step=other.get("step", 15.0),
            rra_specs=other.get("specs", compact_rra_specs()),
            downtime_fill=other.get("downtime_fill", "zero"),
        )
        src.add_series(1)
        dst, _ = make_twins(1)
        with pytest.raises(ValueError):
            dst.import_series(0, src.export_series(0))
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            dst.copy_columns_from(src, one, one)


class TestOneSeriesHome:
    def test_every_full_mode_store_holds_its_series_in_the_bank(self):
        """All gates on, storage nodes included: no series outside a bank,
        scalar-written summary and self-cluster series among them."""
        from repro import ObservabilityConfig, ResilienceConfig
        from repro.analytics.config import AnalyticsConfig
        from repro.bench.topology import build_paper_tree
        from repro.rrd.store import SUMMARY_HOST
        from repro.storage import StorageTierConfig

        fed = build_paper_tree(
            "nlevel", hosts_per_cluster=4, archive_mode="full",
            incremental=True, columnar=True, columnar_serve=True,
            binary_wire=True, resilience=ResilienceConfig(),
            observability=ObservabilityConfig(),
            storage_tier=StorageTierConfig(replication=2),
            analytics=AnalyticsConfig(),
        ).start()
        fed.engine.run_for(75.0)
        stores = []
        for gmetad in fed.gmetads.values():
            tier = gmetad.rrd_store
            assert getattr(tier, "is_storage_tier", False)
            stores += [node.store for node in tier.nodes.values()]
        summary_series = 0
        for store in stores:
            bank = store._bank
            keys, values, _, _ = store.window_readout(1)
            assert len(store) == bank.size == len(keys) == values.shape[1]
            assert sorted(keys) == store.keys()
            assert bank._cap <= 1.25 * bank.size + 64
            summary_series += sum(1 for k in keys if k.host == SUMMARY_HOST)
        assert summary_series > 0
