"""Metric tests.

Expected values come from brute-force per-element loops and from the
stdlib statistics module (an implementation independent of numpy).
"""

import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pireg.data import NormStats, denormalize_targets
from pireg.errors import ShapeError
from pireg.metrics import (METRIC_NAMES, MetricsRecord, MetricSummary,
                           aggregate_splits, metrics_record, mpiw, picp)


def loop_picp(y, lower, upper):
    hits = 0
    for i in range(len(y)):
        if lower[i] <= y[i] <= upper[i]:
            hits += 1
    return hits / len(y)


def loop_mpiw(lower, upper):
    return sum(upper[i] - lower[i] for i in range(len(lower))) / len(lower)


def loop_rmse(y_hat, y):
    return math.sqrt(sum((y_hat[i] - y[i]) ** 2 for i in range(len(y))) / len(y))


def loop_mae(y_hat, y):
    return sum(abs(y_hat[i] - y[i]) for i in range(len(y))) / len(y)


FINITE = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def test_picp_examples():
    assert picp([0.0, 0.5], [-1.0, -1.0], [1.0, 1.0]) == 1.0
    assert picp([0.0, 5.0], [-1.0, -1.0], [1.0, 1.0]) == 0.5
    assert picp([1.0], [-1.0], [1.0]) == 1.0  # boundary inclusive


def test_mpiw_examples():
    assert mpiw([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mpiw([0.0, 1.0], [1.0, 3.0]) == pytest.approx(1.5)
    base = mpiw([0.0, 1.0], [1.0, 3.0])
    assert mpiw([0.0, 1.0], [1.0 + 2.5, 3.0 + 2.5]) == pytest.approx(base + 2.5)


def point_errors(value, y):
    # metrics_record's (rmse, mae) of ``value``; the interval plays no part.
    rec = metrics_record(y, y, y, value)
    return rec.rmse, rec.mae


def test_point_error_examples():
    y = np.zeros(2)
    pred = np.array([3.0, -4.0])
    assert point_errors(pred, y) == pytest.approx((math.sqrt(12.5), 3.5))
    assert point_errors(y, y) == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_metrics_match_brute_force_loops(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    y = rng.normal(size=n)
    center = rng.normal(size=n)
    half = rng.uniform(0.0, 2.0, size=n)
    lower, upper = center - half, center + half
    value = rng.normal(size=n)
    assert picp(y, lower, upper) == pytest.approx(loop_picp(y, lower, upper), rel=1e-12)
    assert mpiw(lower, upper) == pytest.approx(loop_mpiw(lower, upper), rel=1e-12)
    rec = metrics_record(y, lower, upper, value)
    assert rec.rmse == pytest.approx(loop_rmse(value, y), rel=1e-12)
    assert rec.mae == pytest.approx(loop_mae(value, y), rel=1e-12)


def test_empty_inputs_are_rejected():
    with pytest.raises(ShapeError):
        picp([], [], [])
    with pytest.raises(ShapeError):
        mpiw([], [])
    with pytest.raises(ShapeError):
        metrics_record([], [], [], [])
    with pytest.raises(ShapeError):
        picp([0.0, 1.0], [0.0], [1.0])


def test_metrics_record_fields_and_validation():
    rec = metrics_record([0.0, 2.0], [-1.0, -1.0], [1.0, 1.0], [0.5, 0.5])
    assert rec.picp == 0.5
    assert rec.mpiw == 2.0
    assert rec.n == 2
    with pytest.raises(ShapeError):
        MetricsRecord(picp=1.0, mpiw=0.0, rmse=0.0, mae=0.0, n=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, st.floats(0, 50, allow_nan=False), FINITE),
                min_size=1, max_size=40))
def test_metric_ranges(rows):
    y = np.array([a for (a, _, _, _) in rows])
    center = np.array([b for (_, b, _, _) in rows])
    half = np.array([c for (_, _, c, _) in rows])
    value = np.array([d for (_, _, _, d) in rows])
    rec = metrics_record(y, center - half, center + half, value)
    assert 0.0 <= rec.picp <= 1.0
    assert rec.mpiw >= 0.0 and rec.rmse >= 0.0 and rec.mae >= 0.0
    assert rec.rmse >= rec.mae - 1e-12  # power-mean inequality


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, st.floats(0, 50, allow_nan=False), FINITE),
                min_size=1, max_size=30),
       st.floats(-100, 100, allow_nan=False), st.floats(0.01, 50, allow_nan=False))
def test_denormalization_scales_widths_and_errors_but_not_coverage(rows, t_mean, t_std):
    y = np.array([a for (a, _, _, _) in rows])
    center = np.array([b for (_, b, _, _) in rows])
    half = np.array([c for (_, _, c, _) in rows])
    value = np.array([d for (_, _, _, d) in rows])
    lower, upper = center - half, center + half
    # Coverage invariance holds off the boundary set: when |y - bound| is within
    # a few ulps of the affine map's output, float rounding can flip containment.
    scale = np.maximum(np.maximum(np.abs(y), np.abs(center) + half), 1.0)
    margin = 1e-9 * scale
    assume(bool(np.all(np.abs(y - lower) > margin)))
    assume(bool(np.all(np.abs(y - upper) > margin)))
    stats = NormStats(feature_mean=np.zeros(1), feature_std=np.ones(1),
                      target_mean=t_mean, target_std=t_std)
    rec = metrics_record(y, lower, upper, value)
    den = metrics_record(denormalize_targets(y, stats), denormalize_targets(lower, stats),
                         denormalize_targets(upper, stats), denormalize_targets(value, stats))
    assert den.picp == rec.picp
    assert den.mpiw == pytest.approx(rec.mpiw * t_std, rel=1e-9, abs=1e-9)
    assert den.rmse == pytest.approx(rec.rmse * t_std, rel=1e-9, abs=1e-9)
    assert den.mae == pytest.approx(rec.mae * t_std, rel=1e-9, abs=1e-9)


def _record(value):
    return MetricsRecord(picp=value, mpiw=value, rmse=value, mae=value, n=5)


def test_aggregate_identical_records_has_zero_stderr():
    agg = aggregate_splits([_record(0.7)] * 4)
    for name in METRIC_NAMES:
        assert agg[name].mean == pytest.approx(0.7)
        assert agg[name].stderr == 0.0


def test_aggregate_two_values_hand_computed():
    agg = aggregate_splits([_record(1.0), _record(3.0)])
    for name in METRIC_NAMES:
        assert agg[name].mean == pytest.approx(2.0)
        assert agg[name].stderr == pytest.approx(1.0)  # sample std sqrt(2) over sqrt(2)


def test_aggregate_single_record_has_no_dispersion():
    agg = aggregate_splits([_record(0.4)])
    for name in METRIC_NAMES:
        assert agg[name] == MetricSummary(mean=0.4, stderr=None)


def test_aggregate_matches_stdlib_statistics_on_twenty_records():
    rng = np.random.default_rng(123)
    values = rng.uniform(0.5, 4.0, size=20).tolist()
    agg = aggregate_splits([_record(v) for v in values])
    want_mean = statistics.fmean(values)
    want_stderr = statistics.stdev(values) / math.sqrt(len(values))
    for name in METRIC_NAMES:
        assert agg[name].mean == pytest.approx(want_mean, rel=1e-12)
        assert agg[name].stderr == pytest.approx(want_stderr, rel=1e-12)


def test_aggregate_requires_records():
    with pytest.raises(ShapeError):
        aggregate_splits([])
