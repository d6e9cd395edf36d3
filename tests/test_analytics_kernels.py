"""Differential tests: vectorized analytics kernels vs scalar references.

Every kernel in :mod:`repro.analytics.kernels` -- and the bank-wide
window readout feeding them -- is pinned against a straightforward
per-series Python implementation over randomly driven data.  The
vectorized forms exist purely for speed; any numeric divergence from
the obvious scalar code is a bug.
"""

import math
import random

import numpy as np
import pytest

from repro.analytics.kernels import (
    ewma_mean_var,
    ewma_zscore,
    latest_values,
    rolling_slope,
)
from repro.rrd.bank import SeriesBank
from repro.rrd.database import RraSpec, compact_rra_specs


def random_window(rng, k=9, n=40, gap_p=0.25):
    """A (k, n) window with NaN gaps and some all-NaN columns."""
    values = rng.uniform(0.0, 10.0, size=(k, n))
    values[rng.random(size=(k, n)) < gap_p] = np.nan
    values[:, : n // 10] = np.nan  # some series with no data at all
    return values


# -- scalar reference implementations (deliberately naive) ----------------


def ref_latest(col):
    known = [v for v in col if not math.isnan(v)]
    return known[-1] if known else math.nan


def ref_slope(col, row_seconds, min_points):
    pts = [
        (j * row_seconds, v) for j, v in enumerate(col) if not math.isnan(v)
    ]
    if len(pts) < max(2, min_points):
        return math.nan
    cnt = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denom = cnt * sxx - sx * sx
    if denom <= 0:
        return math.nan
    return (cnt * sxy - sx * sy) / denom


def ref_ewma(col, alpha):
    mean = math.nan
    var = 0.0
    for v in col:
        if math.isnan(v):
            continue
        if math.isnan(mean):
            mean = v
            continue
        d = v - mean
        incr = alpha * d
        mean += incr
        var = (1.0 - alpha) * (var + d * incr)
    return mean, var


def ref_zscore(col, alpha, min_points, floor_abs, floor_rel):
    if len(col) < 2:
        return math.nan
    history, newest = col[:-1], col[-1]
    cnt = sum(1 for v in history if not math.isnan(v))
    mean, var = ref_ewma(history, alpha)
    if cnt < min_points or math.isnan(newest) or math.isnan(mean):
        return math.nan
    std = math.sqrt(max(var, 0.0))
    denom = max(std, floor_abs + floor_rel * abs(mean))
    return (newest - mean) / denom


def assert_matches(vec, ref):
    assert vec.shape == (len(ref),)
    for i, (a, b) in enumerate(zip(vec, ref)):
        if math.isnan(b):
            assert math.isnan(a), f"col {i}: expected NaN, got {a}"
        else:
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12), f"col {i}"


class TestKernelsVsScalarReference:
    def setup_method(self):
        self.rng = np.random.default_rng(20030901)

    def test_latest_values(self):
        values = random_window(self.rng)
        assert_matches(
            latest_values(values), [ref_latest(col) for col in values.T]
        )

    @pytest.mark.parametrize("min_points", [2, 4])
    def test_rolling_slope(self, min_points):
        values = random_window(self.rng)
        assert_matches(
            rolling_slope(values, 15.0, min_points),
            [ref_slope(col, 15.0, min_points) for col in values.T],
        )

    def test_ewma_mean_var(self):
        values = random_window(self.rng)
        mean, var = ewma_mean_var(values, 0.25)
        refs = [ref_ewma(col, 0.25) for col in values.T]
        assert_matches(mean, [m for m, _ in refs])
        assert_matches(var, [v for _, v in refs])

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_ewma_zscore(self, alpha):
        values = random_window(self.rng)
        assert_matches(
            ewma_zscore(values, alpha, 3, floor_abs=1e-6, floor_rel=0.05),
            [
                ref_zscore(list(col), alpha, 3, 1e-6, 0.05)
                for col in values.T
            ],
        )

    def test_slope_recovers_clean_ramp(self):
        values = np.outer(np.arange(8.0), np.ones(3)) * [1.0, -2.0, 0.5]
        slope = rolling_slope(values, 15.0, 2)
        assert slope == pytest.approx([1 / 15.0, -2 / 15.0, 0.5 / 15.0])


class TestWindowMatrixVsScalarReadout:
    """window_matrix is the vectorized twin of rows_with_end_steps_one."""

    def drive_bank(self, updates_per_series=(0, 3, 7, 20, 64, 200)):
        rng = random.Random(7)
        bank = SeriesBank(step=15.0, rra_specs=compact_rra_specs())
        for count in updates_per_series:
            i = bank.add_series(1)
            for j in range(count):
                bank.update_one(i, (j + 1) * 15.0, rng.uniform(0.0, 9.0))
        return bank

    @pytest.mark.parametrize("k", [1, 4, 64, 80])
    def test_matches_per_series_readout(self, k):
        bank = self.drive_bank()
        values, counts, row_seconds, last_end = bank.window_matrix(k)
        finest = min(bank.rras, key=lambda r: r.pdp_per_row)
        assert row_seconds == finest.pdp_per_row * bank.step
        assert values.shape == (k, bank.size)
        for i in range(bank.size):
            rows = finest.rows_with_end_steps_one(i)
            tail = rows[-k:]
            assert counts[i] == len(tail)
            if rows:
                assert last_end[i] == rows[-1][0]
            # newest-last alignment: row k-1 is the newest closed row
            got = values[:, i]
            for j, (_, value) in enumerate(reversed(tail)):
                assert got[k - 1 - j] == pytest.approx(value)
            assert np.all(np.isnan(got[: k - len(tail)]))

    @pytest.mark.parametrize("cols", [[5, 0, 3], [2], []])
    def test_column_subset_matches_full_gather(self, cols):
        bank = self.drive_bank()
        full = bank.window_matrix(6)
        part = bank.window_matrix(6, np.asarray(cols, dtype=np.int64))
        assert np.array_equal(part[0], full[0][:, cols], equal_nan=True)
        assert np.array_equal(part[1], full[1][cols])
        assert part[2] == full[2]
        assert np.array_equal(part[3], full[3][cols])

    def test_coarse_rra_ladder(self):
        # a ladder whose finest rung has pdp_per_row > 1
        bank = SeriesBank(
            step=10.0, rra_specs=[RraSpec("AVERAGE", 4, 16)]
        )
        i = bank.add_series(1)
        for j in range(30):
            bank.update_one(i, (j + 1) * 10.0, float(j))
        values, counts, row_seconds, last_end = bank.window_matrix(5)
        assert row_seconds == 40.0
        finest = bank.rras[0]
        tail = finest.rows_with_end_steps_one(i)[-5:]
        assert counts[0] == len(tail)
        for j, (_, value) in enumerate(reversed(tail)):
            assert values[5 - 1 - j, 0] == pytest.approx(value)

    def test_empty_bank_and_bad_k(self):
        bank = SeriesBank(step=15.0, rra_specs=compact_rra_specs())
        values, counts, row_seconds, last_end = bank.window_matrix(4)
        assert values.shape == (4, 0)
        assert counts.size == 0 and last_end.size == 0
        with pytest.raises(ValueError):
            bank.window_matrix(0)
