"""Training objectives for interval-plus-value regression.

The interval loss rewards narrow intervals over the samples they capture and
penalises coverage falling short of the 1 - alpha target:

    width_term + sqrt(n) * coverage_penalty * max(0, (1 - alpha) - soft_picp)^2

where the width term averages (upper - lower) over the hard capture set and
soft_picp is the mean of the logistic capture relaxation
sigmoid(soften * (y - lower)) * sigmoid(soften * (upper - y)).  The value
loss scores the point prediction mix * upper + (1 - mix) * lower against
targets, and the joint objective is a convex combination of the two.

This module is the only one that knows the head's layout, which the
variant alone decides; ``initial_head`` gives its starting biases, one per
unit.  Between the network and the aggregators a prediction stays a raw
(..., n, k) head array, leading axes indexing ensemble members.  Two
readers map it to quantities over trailing axes: ``interval_link`` gives
(upper, lower, value) under each interval variant's value rule, and
``gaussian_link`` gives (mean, variance).  Every loss is computed in one
place, ``head_loss_and_grad``, which returns the loss value together with
its analytic gradient with respect to the raw head; training, validation
and the tests all read losses from it, and it shares the value rule with
``interval_link``; validation asks it for the loss alone, computed by the
same expressions with no gradient built.
Gradients treat the hard capture vector as locally constant; it is piecewise
constant in the parameters, so this is exact almost everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import z_score
from .errors import ConfigError, ShapeError

VARIANTS = ("joint", "interval_only", "midpoint", "decoupled", "gaussian_nll")
POINT_LOSSES = ("squared", "absolute")

# Head widths: interval heads are (upper, lower, mix-logit), gaussian heads
# (mean, raw-variance).
INTERVAL_HEAD = 3
GAUSSIAN_HEAD = 2

# Guards the captured-width denominator when no sample is captured: the
# numerator is identically zero there, so the term contributes 0 and the
# coverage penalty alone drives training.
CAPTURE_EPS = 1e-7

# Keeps the mixing weight strictly inside (0, 1) even when the logistic
# saturates in float64.
MIX_EPS = 1e-12

# Floor added to the softplus link of the variance head.
VARIANCE_FLOOR = 1e-6


def sigmoid(x):
    """Logistic function, stable for large |x|: exp(-|x|) never overflows."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=float)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters shared by every training objective.

    alpha is the target miscoverage (intervals should contain targets with
    probability 1 - alpha), coverage_penalty trades interval width against
    coverage, soften scales the logistic capture relaxation, and
    interval_weight mixes the interval loss with the value loss in the
    joint objective.
    """

    alpha: float = 0.05
    coverage_penalty: float = 15.0
    soften: float = 160.0
    interval_weight: float = 0.5
    variant: str = "joint"
    point_loss: str = "squared"

    def __post_init__(self):
        z_score(self.alpha)  # refuses an alpha no interval can be aggregated at
        for name in ("coverage_penalty", "soften"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.interval_weight <= 1.0:
            raise ConfigError(f"interval_weight must lie in [0, 1], got {self.interval_weight}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.point_loss not in POINT_LOSSES:
            raise ConfigError(f"unknown point_loss {self.point_loss!r}; expected one of {POINT_LOSSES}")


def initial_head(variant, head_bias):
    """Starting biases of the variant's head, one per unit.

    An interval head starts at the (upper, lower) pair ``head_bias``, wide
    enough in normalized-target units to capture nearly every target, and at
    an even mix (logit 0); a (mean, raw-variance) head starts at zero.
    """
    if variant == "gaussian_nll":
        return (0.0, 0.0)
    upper, lower = head_bias
    return (float(upper), float(lower), 0.0)


def squash_mix(logit):
    """Map the raw mixing head into (0, 1), never touching the endpoints."""
    return np.minimum(np.maximum(sigmoid(logit), MIX_EPS), 1.0 - MIX_EPS)


def hard_capture(y, lower, upper):
    """Indicator: 1.0 where lower <= y <= upper (inclusive), else 0.0.

    The only place the capture test is written.  Inputs broadcast like
    numpy arrays; callers check shapes.
    """
    y, lower, upper = (np.asarray(a, dtype=float) for a in (y, lower, upper))
    return ((lower <= y) & (y <= upper)).astype(float)


def _mixed(lower, width, mix):
    # The point prediction lower + mix * (upper - lower): exactly the common
    # bound at zero width, and never outside the interval for mix in [0, 1].
    return lower + mix * width


def _interval_columns(raw):
    if raw.ndim < 2 or raw.shape[-1] != INTERVAL_HEAD:
        raise ShapeError(f"interval variants need an (..., n, {INTERVAL_HEAD}) head, "
                         f"got shape {raw.shape}")
    return raw[..., 0], raw[..., 1], raw[..., 2]


def _value_mix(logit, variant):
    # Upper-bound weight of the mixed value: learned for joint, the
    # midpoint for interval_only and midpoint.
    if variant == "joint":
        return squash_mix(logit)
    if variant in ("interval_only", "midpoint"):
        return 0.5
    raise ConfigError(f"no interval value rule for variant {variant!r}")


def interval_link(raw, variant):
    """(upper, lower, value) per row of a raw (..., n, 3) interval head.

    Columns are (upper, lower, mix-logit).  The value is the one the
    variant reports at inference: the decoupled variant reports its raw
    third head, the others the in-interval mix of ``_value_mix``.
    """
    upper, lower, logit = _interval_columns(np.asarray(raw, dtype=float))
    if variant == "decoupled":
        return upper, lower, logit
    return upper, lower, _mixed(lower, upper - lower, _value_mix(logit, variant))


def gaussian_link(raw):
    """(mean, variance) per row of a raw (..., n, 2) mean-variance head.

    The variance is the softplus of the raw-variance column plus a floor.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim < 2 or raw.shape[-1] != GAUSSIAN_HEAD:
        raise ShapeError(f"expected an (..., n, {GAUSSIAN_HEAD}) head, got shape {raw.shape}")
    return raw[..., 0], softplus(raw[..., 1]) + VARIANCE_FLOOR


# ---------------------------------------------------------------------------
# Loss terms with analytic head gradients.  Each _*_terms helper returns the
# loss followed by its partials with respect to the head columns; every
# reduction runs over the last (sample) axis, so leading member axes give one
# loss per member.  With gradient=False a helper returns its loss, computed
# by the same expressions, before building any partial (None in their place).
# ---------------------------------------------------------------------------


def _interval_terms(upper, lower, width, y, cfg, gradient):
    n = y.shape[-1]
    k_hard = hard_capture(y, lower, upper)
    denom = np.maximum(k_hard.sum(axis=-1), CAPTURE_EPS)
    width_term = (width * k_hard).sum(axis=-1) / denom

    a, b = sigmoid(cfg.soften * np.array([y - lower, upper - y]))
    ab = a * b
    hinge = np.maximum((1.0 - cfg.alpha) - ab.sum(axis=-1) / n, 0.0)
    loss = width_term + math.sqrt(n) * cfg.coverage_penalty * hinge * hinge
    if not gradient:
        return loss, None, None

    d_upper = k_hard / denom[..., None]
    d_lower = -d_upper
    active = hinge > 0.0
    if active.any():
        # Only members whose hinge is active take the coverage term, so the
        # others keep exactly the width gradient (signed zeros included).
        scale = (-2.0 * math.sqrt(n) * cfg.coverage_penalty * hinge / n)[..., None]
        cov_upper = d_upper + scale * (ab * (1.0 - b) * cfg.soften)
        cov_lower = d_lower + scale * (-a * (1.0 - a) * b * cfg.soften)
        if active.all():
            return loss, cov_upper, cov_lower
        d_upper = np.where(active[..., None], cov_upper, d_upper)
        d_lower = np.where(active[..., None], cov_lower, d_lower)
    return loss, d_upper, d_lower


def _point_terms(pred, y, kind, gradient):
    r = pred - y
    if kind == "squared":
        return r * r, 2.0 * r if gradient else None
    if kind == "absolute":
        return np.abs(r), np.sign(r) if gradient else None
    raise ConfigError(f"unknown point_loss {kind!r}")


def _value_terms(lower, width, mix, y, cfg, gradient):
    n = y.shape[-1]
    per_sample, d_pred = _point_terms(_mixed(lower, width, mix), y, cfg.point_loss, gradient)
    loss = per_sample.sum(axis=-1) / n
    if not gradient:
        return loss, None, None, None
    w = d_pred / n
    return loss, w * mix, w * (1.0 - mix), w * width


def _gaussian_terms(raw, y, gradient):
    n = y.shape[-1]
    mean, variance = gaussian_link(raw)
    resid = y - mean
    loss = (0.5 * np.log(variance) + resid * resid / (2.0 * variance)).sum(axis=-1) / n
    if not gradient:
        return loss, None
    d_mean = (mean - y) / variance / n
    d_var = (0.5 / variance - 0.5 * resid * resid / (variance * variance)) / n
    return loss, np.stack([d_mean, d_var * sigmoid(raw[..., 1])], axis=-1)


def head_loss_and_grad(raw, y, cfg, gradient=True):
    """Loss value plus its gradient with respect to the raw head matrix.

    ``raw`` has columns (upper, lower, mix-logit) for the interval variants
    and (mean, raw-variance) for gaussian_nll; ``gradient=False`` gives the
    same loss and None.  Leading axes index stacked members: a (..., n, k)
    head with (..., n) or shared (n,) targets gives a (...)-shaped loss, one
    per member, and a gradient shaped like ``raw``.
    """
    raw = np.asarray(raw, dtype=float)
    y = np.asarray(y, dtype=float)
    if raw.ndim < 2 or y.shape not in (raw.shape[:-1], raw.shape[-2:-1]):
        raise ShapeError(f"head matrix {raw.shape} does not match targets {y.shape}")
    n = y.shape[-1]
    if n < 1:
        raise ShapeError("batch must be non-empty")

    if cfg.variant == "gaussian_nll":
        return _gaussian_terms(raw, y, gradient)

    upper, lower, logit = _interval_columns(raw)
    width = upper - lower
    li, di_u, di_l = _interval_terms(upper, lower, width, y, cfg, gradient)

    if cfg.variant in ("interval_only", "decoupled"):
        # No mixed value trains: the bounds take the interval loss alone,
        # and the decoupled value head its own point loss.
        loss, d_value = li, 0.0
        if cfg.variant == "decoupled":
            per_sample, d_value = _point_terms(logit, y, cfg.point_loss, gradient)
            loss = li + per_sample.sum(axis=-1) / n
        if not gradient:
            return loss, None
        grad = np.empty_like(raw)
        grad[..., 0], grad[..., 1], grad[..., 2] = di_u, di_l, d_value / n
        return loss, grad

    mix = _value_mix(logit, cfg.variant)
    lv, dv_u, dv_l, dv_mix = _value_terms(lower, width, mix, y, cfg, gradient)
    w = cfg.interval_weight
    loss = w * li + (1.0 - w) * lv
    if not gradient:
        return loss, None
    grad = np.empty_like(raw)
    for out, di, dv in ((grad[..., 0], di_u, dv_u), (grad[..., 1], di_l, dv_l)):
        np.multiply(w, di, out=out)
        out += (1.0 - w) * dv
    if cfg.variant == "joint":
        np.multiply((1.0 - w) * dv_mix * mix, 1.0 - mix, out=grad[..., 2])
    else:
        grad[..., 2] = 0.0
    return loss, grad
