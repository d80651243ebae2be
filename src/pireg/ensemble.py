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

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class EnsembleOutput:
    """Both aggregators' result: widened bounds and averaged value, one (n,) array each."""

    upper: np.ndarray
    lower: np.ndarray
    value: np.ndarray


def z_score(alpha: float) -> float:
    """Two-sided standard-normal multiplier: the 1 - alpha/2 quantile."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ConfigError(f"alpha {alpha} is too small: 1 - alpha/2 rounds to 1")
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


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
