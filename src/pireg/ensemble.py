"""Aggregation of independently trained members into one widened interval.

Both aggregators take (M, n) arrays, one row per member, as read from the
members' stacked raw heads by :func:`pireg.losses.interval_link` or
:func:`pireg.losses.gaussian_link`.  Interval members are combined by
averaging bounds and widening each side by z * (across-member standard
deviation of that bound), which treats the M bound estimates as a small
sample and stretches the interval to cover their uncertainty.  Mean-variance
members are combined as an equal-weight Gaussian mixture whose moments give
a single predictive normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class EnsembleOutput:
    """Both aggregators' result: widened bounds and averaged value, one (n,) array each."""

    upper: np.ndarray
    lower: np.ndarray
    value: np.ndarray


# Rational approximation of the standard normal quantile (Acklam's
# coefficients), refined below by one Halley step against the erfc-based CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _poly(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, absolute error well under 1e-8."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"quantile argument must lie in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = _poly(_C, q) / (_poly(_D, q) * q + 1.0)
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = _poly(_A, r) * q / (_poly(_B, r) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -_poly(_C, q) / (_poly(_D, q) * q + 1.0)
    # One Halley refinement using the exact CDF via erfc.
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def z_score(alpha: float) -> float:
    """Two-sided standard-normal multiplier: the 1 - alpha/2 quantile."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return normal_quantile(1.0 - alpha / 2.0)


def _members(*arrays):
    # Per-member arrays as (M, n) floats of one shape, with M >= 1.
    out = [np.atleast_2d(np.asarray(a, dtype=float)) for a in arrays]
    if any(a.shape != out[0].shape for a in out):
        raise ShapeError("member arrays disagree in shape: "
                         + ", ".join(str(a.shape) for a in out))
    if out[0].shape[0] < 1:
        raise ShapeError("need at least one member")
    return out


def _spread(stacked):
    # Sample std across members (divisor M - 1); a single member carries no
    # spread information, so M = 1 is defined as zero spread.
    if stacked.shape[0] == 1:
        return np.zeros(stacked.shape[1])
    return np.std(stacked, axis=0, ddof=1)


def aggregate_pi(member_uppers, member_lowers, member_values, alpha: float) -> EnsembleOutput:
    """Combine interval members: average bounds, widen each by z * spread.

    Each argument is (M, n), one row per member; the value prediction is the
    plain member average.
    """
    uppers, lowers, values = _members(member_uppers, member_lowers, member_values)
    z = z_score(alpha)
    return EnsembleOutput(
        upper=np.mean(uppers, axis=0) + z * _spread(uppers),
        lower=np.mean(lowers, axis=0) - z * _spread(lowers),
        value=np.mean(values, axis=0),
    )


def aggregate_gaussian(member_means, member_variances, alpha: float) -> EnsembleOutput:
    """Combine mean-variance members as an equal-weight Gaussian mixture.

    The mixture moments are mu* = mean of member means and
    sigma*^2 = mean(variance_j) + mean((mu_j - mu*)^2), written in the
    cancellation-free form; the interval is mu* +- z * sigma*.
    """
    means, variances = _members(member_means, member_variances)
    if np.any(variances <= 0.0):
        raise ValueError("member variances must be strictly positive")
    mu = np.mean(means, axis=0)
    var = np.mean(variances, axis=0) + np.mean((means - mu) ** 2, axis=0)
    sigma = np.sqrt(var)
    z = z_score(alpha)
    return EnsembleOutput(upper=mu + z * sigma, lower=mu - z * sigma, value=mu)
