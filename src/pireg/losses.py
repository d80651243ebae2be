"""Training objectives for interval-plus-value regression.

The interval loss rewards narrow intervals over the samples they capture and
penalises coverage falling short of the 1 - alpha target:

    width_term + sqrt(n) * coverage_penalty * max(0, (1 - alpha) - soft_picp)^2

where the width term averages (upper - lower) over the hard capture set and
soft_picp is the mean of the logistic capture relaxation
sigmoid(soften * (y - lower)) * sigmoid(soften * (upper - y)).  The value
loss scores the point prediction mix * upper + (1 - mix) * lower against
targets, and the joint objective is a convex combination of the two.

This module is the only one that knows the head's column layout.  Between
the network and the aggregators a prediction stays a raw (..., n, k) head
array, leading axes indexing ensemble members.  Two readers map it to
quantities over trailing axes: ``interval_link`` gives (upper, lower,
value) under each interval variant's value rule, and ``gaussian_link``
gives (mean, variance).  Every loss is computed in one place,
``head_loss_and_grad``, which returns the loss value together with its
analytic gradient with respect to the raw head; training, validation and
the tests all read losses from it.
Gradients treat the hard capture vector as locally constant; it is piecewise
constant in the parameters, so this is exact almost everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=float)
    pos = np.where(x >= 0, x, 0.0)
    neg = np.where(x < 0, x, 0.0)
    ex = np.exp(neg)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-pos)), ex / (1.0 + ex))


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
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
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


def squash_mix(logit):
    """Map the raw mixing head into (0, 1), never touching the endpoints."""
    return np.clip(sigmoid(logit), MIX_EPS, 1.0 - MIX_EPS)


def hard_capture(y, lower, upper):
    """Indicator: 1.0 where lower <= y <= upper (inclusive), else 0.0.

    The only place the capture test is written.  Inputs broadcast like
    numpy arrays; callers check shapes.
    """
    y, lower, upper = (np.asarray(a, dtype=float) for a in (y, lower, upper))
    return ((lower <= y) & (y <= upper)).astype(float)


def _mixed(upper, lower, mix):
    # The point prediction lower + mix * (upper - lower): exactly the common
    # bound when upper == lower, and never outside the interval for mix in
    # [0, 1].
    return lower + mix * (upper - lower)


def _interval_columns(raw):
    if raw.ndim < 2 or raw.shape[-1] != INTERVAL_HEAD:
        raise ShapeError(f"interval variants need an (..., n, {INTERVAL_HEAD}) head, "
                         f"got shape {raw.shape}")
    return raw[..., 0], raw[..., 1], raw[..., 2]


def interval_link(raw, variant):
    """(upper, lower, value) per row of a raw (..., n, 3) interval head.

    Columns are (upper, lower, mix-logit).  The value is the one the
    variant reports at inference: the joint objective reports the learned
    in-interval combination, with the logit pushed through the clipped
    logistic; the interval-only and pinned-midpoint variants report the
    interval midpoint; the decoupled variant reports its raw third head.
    """
    upper, lower, logit = _interval_columns(np.asarray(raw, dtype=float))
    if variant == "joint":
        return upper, lower, _mixed(upper, lower, squash_mix(logit))
    if variant in ("interval_only", "midpoint"):
        return upper, lower, _mixed(upper, lower, 0.5)
    if variant == "decoupled":
        return upper, lower, logit
    raise ConfigError(f"no interval value rule for variant {variant!r}")


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
# loss per member.
# ---------------------------------------------------------------------------


def _interval_terms(upper, lower, y, cfg):
    n = y.shape[-1]
    k_hard = hard_capture(y, lower, upper)
    denom = np.maximum(np.sum(k_hard, axis=-1), CAPTURE_EPS)
    width_term = np.sum((upper - lower) * k_hard, axis=-1) / denom

    a = sigmoid(cfg.soften * (y - lower))
    b = sigmoid(cfg.soften * (upper - y))
    picp_soft = np.mean(a * b, axis=-1)
    gap = (1.0 - cfg.alpha) - picp_soft
    hinge = np.maximum(gap, 0.0)
    loss = width_term + math.sqrt(n) * cfg.coverage_penalty * hinge * hinge

    d_upper = k_hard / denom[..., None]
    d_lower = -k_hard / denom[..., None]
    active = (hinge > 0.0)[..., None]
    if np.any(active):
        # Only members whose hinge is active take the coverage term, so the
        # others keep exactly the width gradient (signed zeros included).
        scale = (-2.0 * math.sqrt(n) * cfg.coverage_penalty * hinge / n)[..., None]
        d_upper = np.where(active, d_upper + scale * (a * b * (1.0 - b) * cfg.soften), d_upper)
        d_lower = np.where(active, d_lower + scale * (-a * (1.0 - a) * b * cfg.soften), d_lower)
    return loss, d_upper, d_lower


def _point_terms(pred, y, kind):
    r = pred - y
    if kind == "squared":
        return r * r, 2.0 * r
    if kind == "absolute":
        return np.abs(r), np.sign(r)
    raise ConfigError(f"unknown point_loss {kind!r}")


def _value_terms(upper, lower, mix, y, cfg):
    n = y.shape[-1]
    pred = _mixed(upper, lower, mix)
    per_sample, d_pred = _point_terms(pred, y, cfg.point_loss)
    loss = np.mean(per_sample, axis=-1)
    w = d_pred / n
    return loss, w * mix, w * (1.0 - mix), w * (upper - lower)


def _compose(cfg, li, lv):
    return cfg.interval_weight * li + (1.0 - cfg.interval_weight) * lv


def _gaussian_terms(raw, y):
    n = y.shape[-1]
    mean, variance = gaussian_link(raw)
    vraw = raw[..., 1]
    resid = y - mean
    loss = np.mean(0.5 * np.log(variance) + resid * resid / (2.0 * variance), axis=-1)
    d_mean = (mean - y) / variance / n
    d_var = (0.5 / variance - 0.5 * resid * resid / (variance * variance)) / n
    d_vraw = d_var * sigmoid(vraw)
    grad = np.stack([d_mean, d_vraw], axis=-1)
    return loss, grad


def head_loss_and_grad(raw, y, cfg):
    """Loss value plus its gradient with respect to the raw head matrix.

    ``raw`` has columns (upper, lower, mix-logit) for the interval variants
    and (mean, raw-variance) for gaussian_nll.  This is the single entry
    point the network's backward pass uses.  Leading axes index stacked
    members: a (..., n, k) head with (..., n) or shared (n,) targets gives a
    (...)-shaped loss, one per member, and a gradient shaped like ``raw``.
    """
    raw = np.asarray(raw, dtype=float)
    y = np.asarray(y, dtype=float)
    if raw.ndim < 2 or y.shape not in (raw.shape[:-1], raw.shape[-2:-1]):
        raise ShapeError(f"head matrix {raw.shape} does not match targets {y.shape}")
    if y.shape[-1] < 1:
        raise ShapeError("batch must be non-empty")

    if cfg.variant == "gaussian_nll":
        return _gaussian_terms(raw, y)

    upper, lower, logit = _interval_columns(raw)
    mix = squash_mix(logit)

    li, di_u, di_l = _interval_terms(upper, lower, y, cfg)
    grad = np.zeros_like(raw)

    if cfg.variant == "interval_only":
        loss = li
        grad[..., 0] = di_u
        grad[..., 1] = di_l
    elif cfg.variant == "joint":
        lv, dv_u, dv_l, dv_mix = _value_terms(upper, lower, mix, y, cfg)
        loss = _compose(cfg, li, lv)
        w = cfg.interval_weight
        grad[..., 0] = w * di_u + (1.0 - w) * dv_u
        grad[..., 1] = w * di_l + (1.0 - w) * dv_l
        grad[..., 2] = (1.0 - w) * dv_mix * mix * (1.0 - mix)
    elif cfg.variant == "midpoint":
        lv, dv_u, dv_l, _ = _value_terms(upper, lower, 0.5, y, cfg)
        loss = _compose(cfg, li, lv)
        w = cfg.interval_weight
        grad[..., 0] = w * di_u + (1.0 - w) * dv_u
        grad[..., 1] = w * di_l + (1.0 - w) * dv_l
    elif cfg.variant == "decoupled":
        per_sample, d_pred = _point_terms(logit, y, cfg.point_loss)
        loss = li + np.mean(per_sample, axis=-1)
        grad[..., 0] = di_u
        grad[..., 1] = di_l
        grad[..., 2] = d_pred / y.shape[-1]
    else:  # pragma: no cover - guarded by LossConfig validation
        raise ConfigError(f"unknown variant {cfg.variant!r}")
    return loss, grad
