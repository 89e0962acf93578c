"""Least-squares calibration of model costs against external measurements.

Measured per-stream reading times and file sizes arrive through the CLI's
measurement file; this module fits ordinary least squares between model terms
and measurements, reports the coefficient of determination, and computes the
initialization-corrected total read time

    sum over streams of n_lines * (measured_time - t_initial)

since each measurement job pays a fixed startup cost that is a property of
the job, not of the streaming scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Per-job startup time in seconds, subtracted from each measured time.
DEFAULT_T_INITIAL = 9.0

@dataclass(frozen=True)
class MeasurementRecord:
    """One measured stream of one scheme."""

    scheme_id: str
    stream_id: int
    n_lines: int
    measured_time_s: float
    measured_size_kb: float


@dataclass(frozen=True)
class CalibrationReport:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_linear(x, y) -> CalibrationReport:
    """Ordinary least squares y = slope * x + intercept, with R².

    R² = 1 - SS_res / SS_tot; a constant target is reported as R² = 0 (the
    regression explains none of a nonexistent variance).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise DataError("fit_linear expects 1-d vectors")
    if len(x) != len(y):
        raise DataError(f"length mismatch: {len(x)} x values, {len(y)} y values")
    if len(x) < 2:
        raise DataError("fit_linear needs at least 2 points")
    # Deviations are divided by their largest magnitude before squaring, so
    # that sums of squares neither underflow to 0 nor overflow.
    x_mean = x.mean()
    x_dev = x - x_mean
    x_scale = np.abs(x_dev).max()
    if x_scale == 0.0:
        raise DataError("x is constant; the slope is undefined")
    x_dev /= x_scale
    y_mean = y.mean()
    y_dev = y - y_mean
    slope = float((x_dev * y_dev).sum() / (x_dev ** 2).sum() / x_scale)
    intercept = y_mean - slope * x_mean
    y_scale = np.abs(y_dev).max()
    if y_scale == 0.0:
        r_squared = 0.0
    else:
        residuals = (y - (slope * x + intercept)) / y_scale
        r_squared = 1.0 - float((residuals ** 2).sum()
                                / ((y_dev / y_scale) ** 2).sum())
    return CalibrationReport(slope, float(intercept), r_squared, len(x))


def corrected_read_cost(measurements, t_initial=DEFAULT_T_INITIAL) -> float:
    """Line-weighted sum of measured times after removing job startup.

    Every record must satisfy measured_time_s >= t_initial; a negative
    corrected time means the startup estimate is wrong for that stream.
    """
    total = 0.0
    for rec in measurements:
        corrected = rec.measured_time_s - t_initial
        if corrected < 0:
            raise DataError(
                f"measurement (scheme '{rec.scheme_id}', stream "
                f"{rec.stream_id}): time {rec.measured_time_s} s is below "
                f"t_initial {t_initial} s"
            )
        total += rec.n_lines * corrected
    return total
