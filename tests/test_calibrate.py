import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamopt import (DataError, MeasurementRecord, corrected_read_cost,
                       fit_linear)


class TestFitLinear:
    def test_exact_line_recovered(self):
        x = np.arange(1.0, 6.0)
        report = fit_linear(x, 2.0 * x + 1.0)
        assert report.slope == pytest.approx(2.0, abs=1e-12)
        assert report.intercept == pytest.approx(1.0, abs=1e-12)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.n_points == 5

    def test_constant_target_scores_zero(self):
        report = fit_linear([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        assert report.slope == 0.0
        assert report.r_squared == 0.0

    def test_constant_x_rejected(self):
        with pytest.raises(DataError, match="constant"):
            fit_linear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="mismatch"):
            fit_linear([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_two_points(self):
        with pytest.raises(DataError, match="2 points"):
            fit_linear([1.0], [1.0])

    def test_tiny_spread_is_not_constant(self):
        # The squared deviations of this x underflow to 0; it must still fit.
        x = np.array([0.0, 2.48e-232, 4.63e-240])
        y = np.array([1.0, 3.0, 2.0])
        base = fit_linear(x, y)
        scaled = fit_linear(x, 2.0 * y)
        assert np.isfinite(base.slope) and base.slope != 0.0
        assert scaled.slope == pytest.approx(2.0 * base.slope, rel=1e-12)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-12)

    def test_tiny_target_keeps_its_r_squared(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 2.1, 2.9, 4.2])
        report = fit_linear(x, 1e-170 * y)
        assert report.r_squared == pytest.approx(fit_linear(x, y).r_squared,
                                                 rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=12, unique=True),
           st.floats(0.1, 50), st.floats(-50, 50))
    def test_scale_equivariance(self, x, scale, noise_seed):
        rng = np.random.default_rng(abs(int(noise_seed * 1000)))
        x = np.asarray(x)
        y = 3.0 * x + rng.normal(0, 1, len(x))
        base = fit_linear(x, y)
        scaled = fit_linear(x, scale * y)
        assert scaled.slope == pytest.approx(scale * base.slope, rel=1e-9)
        assert scaled.intercept == pytest.approx(scale * base.intercept,
                                                 rel=1e-9, abs=1e-9)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_r_squared_equals_squared_correlation(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 10)
        y = rng.normal(0, 1, 10)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            return
        report = fit_linear(x, y)
        corr = np.corrcoef(x, y)[0, 1]
        assert report.r_squared == pytest.approx(corr ** 2, abs=1e-12)


class TestCorrectedReadCost:
    def worked_example(self):
        return (MeasurementRecord("sch", 0, 2, 19.0, 120.0),
                MeasurementRecord("sch", 1, 1, 14.0, 60.0))

    def test_worked_example(self):
        assert corrected_read_cost(self.worked_example(), 9.0) == 25.0

    def test_zero_initialization_is_identity(self):
        records = self.worked_example()
        assert corrected_read_cost(records, 0.0) == 2 * 19.0 + 1 * 14.0

    def test_closed_form_single_stream(self):
        records = (MeasurementRecord("x", 0, 7, 9.0 + 3.5, 0.0),)
        assert corrected_read_cost(records, 9.0) == pytest.approx(7 * 3.5)

    def test_stream_order_invariance(self):
        records = self.worked_example()
        assert corrected_read_cost(records, 9.0) == \
            corrected_read_cost(tuple(reversed(records)), 9.0)

    def test_time_below_startup_names_record(self):
        records = (MeasurementRecord("fast", 3, 2, 5.0, 0.0),)
        with pytest.raises(DataError, match="fast.*stream 3"):
            corrected_read_cost(records, 9.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.floats(0, 100)),
                    min_size=1, max_size=6))
    def test_linear_in_measured_times(self, rows):
        records = tuple(
            MeasurementRecord(f"s{i}", i, lines, 9.0 + extra, 0.0)
            for i, (lines, extra) in enumerate(rows))
        want = sum(lines * extra for lines, extra in rows)
        assert corrected_read_cost(records, 9.0) == pytest.approx(want, rel=1e-12)
