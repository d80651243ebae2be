"""Ensemble-aggregation tests.

The quantile oracle is an independent bisection against the exact normal
CDF Phi(x) = erfc(-x / sqrt(2)) / 2, refined to ~1e-13; the standard
library's quantile, which the package calls, never enters the oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pireg.ensemble import EnsembleOutput, aggregate_gaussian, aggregate_pi, z_score
from pireg.errors import ConfigError, ShapeError


def phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bisect_quantile(p, lo=-40.0, hi=40.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def members_from(uppers, lowers, mixes=None):
    """(M, n) uppers, lowers and in-interval values, the value at the given mix."""
    uppers = np.asarray(uppers, dtype=float)
    lowers = np.asarray(lowers, dtype=float)
    mixes = np.full(uppers.shape, 0.5) if mixes is None else np.asarray(mixes, dtype=float)
    return uppers, lowers, lowers + mixes * (uppers - lowers)


# ---------------------------------------------------------------------------
# Normal quantile / z-score.
# ---------------------------------------------------------------------------


def test_z_score_at_five_percent():
    assert abs(z_score(0.05) - 1.95996398) <= 1e-6
    assert abs(z_score(0.05) - bisect_quantile(0.975)) <= 1e-8


def test_z_score_one_sigma():
    assert abs(z_score(0.3173) - 1.0) <= 1e-3


def test_z_score_alpha_near_one_tends_to_zero():
    assert abs(z_score(0.999999)) < 1e-5


def test_z_score_against_bisection_grid():
    # z_score reads only the upper tail: alpha = 2(1 - p) for each p > 0.5.
    ps = [0.6827, 0.95, 0.975, 0.99, 0.999999, 1 - 1e-9]
    for p in ps:
        alpha = 2.0 * (1.0 - p)
        assert abs(z_score(alpha) - bisect_quantile(1.0 - alpha / 2.0)) <= 1e-8


def test_z_score_argument_validation():
    for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(ConfigError, match="must lie in"):
            z_score(bad)
    # An alpha whose 1 - alpha/2 rounds to 1 has no finite quantile.  The
    # least alpha above those is checked by symmetry, where the CDF oracle
    # keeps its precision.
    for tiny in (1e-17, 2.0 ** -53):
        with pytest.raises(ConfigError, match="too small"):
            z_score(tiny)
    assert abs(z_score(2.0 ** -52) + bisect_quantile(2.0 ** -53)) <= 1e-8


# ---------------------------------------------------------------------------
# Interval aggregation.
# ---------------------------------------------------------------------------


def test_identical_members_reproduce_the_member():
    upper, lower, value = members_from([[1.0, 2.0, 3.0]], [[-1.0, 0.0, 1.0]], [[0.3, 0.5, 0.7]])
    out = aggregate_pi(*(np.repeat(a, 3, axis=0) for a in (upper, lower, value)), alpha=0.05)
    assert np.array_equal(out.upper, upper[0])
    assert np.array_equal(out.lower, lower[0])
    # mean of M identical floats is exact only up to summation rounding (1 ulp)
    np.testing.assert_allclose(out.value, value[0], rtol=1e-15, atol=0.0)


def test_two_member_hand_arithmetic():
    out = aggregate_pi(*members_from([[1.0], [3.0]], [[0.0], [0.0]]), alpha=0.05)
    z = bisect_quantile(0.975)
    assert out.upper[0] == pytest.approx(2.0 + z * math.sqrt(2.0), rel=1e-8)
    assert out.upper[0] == pytest.approx(4.7719, abs=1e-3)
    assert out.lower[0] == 0.0  # zero spread on the lower side


def test_single_member_is_identity():
    upper, lower, value = members_from([[2.0, 4.0]], [[1.0, 2.0]], [[0.25, 0.75]])
    out = aggregate_pi(upper, lower, value, alpha=0.05)
    assert np.array_equal(out.upper, upper[0])
    assert np.array_equal(out.lower, lower[0])
    assert np.array_equal(out.value, value[0])


def test_member_values_override_the_value_average():
    # The value average reads the member values alone, whatever the bounds.
    upper, lower, _ = members_from([[4.0], [4.0]], [[2.0], [2.0]], [[0.9], [0.9]])
    out = aggregate_pi(upper, lower, [[3.0], [3.0]], 0.05)
    assert out.value[0] == 3.0
    with pytest.raises(ShapeError):
        aggregate_pi(upper, lower, [[3.0]], 0.05)
    with pytest.raises(ShapeError):
        aggregate_pi(upper, lower, [[3.0, 1.0]] * 2, 0.05)


def test_aggregate_pi_input_validation():
    empty = np.empty((0, 2))
    with pytest.raises(ShapeError):
        aggregate_pi(empty, empty, empty, alpha=0.05)
    with pytest.raises(ShapeError):
        aggregate_pi([[1.0, 2.0]], [[0.0]], [[0.5, 1.0]], alpha=0.05)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 10 ** 6))
def test_widened_bounds_bracket_the_member_means(m, n, seed):
    rng = np.random.default_rng(seed)
    uppers = rng.normal(1.0, 2.0, size=(m, n))
    lowers = uppers - rng.uniform(0.0, 3.0, size=(m, n))
    mixes = rng.uniform(0.05, 0.95, size=(m, n))
    out = aggregate_pi(*members_from(uppers, lowers, mixes), alpha=0.05)
    mean_u, mean_l = np.mean(uppers, axis=0), np.mean(lowers, axis=0)
    assert np.all(out.upper >= mean_u - 1e-12)
    assert np.all(out.lower <= mean_l + 1e-12)
    # Widening is strict exactly where members disagree.
    varying = np.std(uppers, axis=0) > 0
    assert np.all((out.upper > mean_u)[varying])
    assert np.all((out.upper == mean_u)[~varying])
    # The averaged value prediction stays inside the member envelope.
    assert np.all(out.value >= np.min(lowers, axis=0) - 1e-12)
    assert np.all(out.value <= np.max(uppers, axis=0) + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8), st.integers(0, 10 ** 6))
def test_member_order_does_not_matter(m, n, seed):
    rng = np.random.default_rng(seed)
    uppers = rng.normal(size=(m, n))
    lowers = uppers - rng.uniform(0.1, 2.0, size=(m, n))
    members = members_from(uppers, lowers)
    out = aggregate_pi(*members, alpha=0.1)
    perm = rng.permutation(m)
    out_p = aggregate_pi(*(a[perm] for a in members), alpha=0.1)
    np.testing.assert_allclose(out_p.upper, out.upper, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out_p.lower, out.lower, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out_p.value, out.value, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Gaussian aggregation.
# ---------------------------------------------------------------------------


def test_gaussian_single_member_is_plain_interval():
    out = aggregate_gaussian([[0.0, 1.0]], [[1.0, 4.0]], alpha=0.05)
    z = bisect_quantile(0.975)
    np.testing.assert_allclose(out.upper, [z, 1.0 + 2.0 * z], rtol=1e-8)
    np.testing.assert_allclose(out.lower, [-z, 1.0 - 2.0 * z], rtol=1e-8)
    np.testing.assert_allclose(out.value, [0.0, 1.0])


def test_gaussian_mixture_moments_hand_computed():
    out = aggregate_gaussian([[0.0], [2.0]], [[1.0], [1.0]], alpha=0.05)
    z = bisect_quantile(0.975)
    assert out.value[0] == pytest.approx(1.0)
    # mixture variance: mean member variance 1 plus spread of the means 1
    assert out.upper[0] == pytest.approx(1.0 + z * math.sqrt(2.0), rel=1e-8)
    assert out.lower[0] == pytest.approx(1.0 - z * math.sqrt(2.0), rel=1e-8)


def test_gaussian_rejects_bad_inputs():
    with pytest.raises(ValueError):
        aggregate_gaussian([[0.0]], [[0.0]], alpha=0.05)
    with pytest.raises(ShapeError):
        aggregate_gaussian([[0.0, 1.0]], [[1.0]], alpha=0.05)


def test_gaussian_intervals_cover_gaussian_data():
    # Monte-Carlo check: a correctly specified member must cover 1 - alpha.
    rng = np.random.default_rng(99)
    n = 100_000
    y = rng.normal(0.0, 1.0, size=n)
    out = aggregate_gaussian(np.zeros((1, n)), np.ones((1, n)), alpha=0.05)
    covered = np.mean((out.lower <= y) & (y <= out.upper))
    assert abs(covered - 0.95) <= 0.01


def test_ensemble_output_is_a_plain_record():
    out = EnsembleOutput(upper=np.ones(2), lower=np.zeros(2), value=np.full(2, 0.5))
    assert out.upper.shape == (2,)
    assert [f.name for f in dataclasses.fields(out)] == ["upper", "lower", "value"]
