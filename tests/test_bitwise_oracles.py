"""Bit-for-bit oracles for the trimmed loss and forward arithmetic.

The reference functions below are the loss code as it stood before its
per-call trims: one sigmoid per capture factor, ``np.clip``, ``np.mean``, a
``zeros_like`` gradient filled column by column, and a gemm for every layer.
The package must reproduce them exactly: every loss and gradient entry has
the same bits, signed zeros included.  The stacked-versus-sequential trainer
oracle in test_training.py cannot catch a drift here, because both of its
sides run the package's arithmetic.
"""

import math

import numpy as np
import pytest

from pireg.losses import (CAPTURE_EPS, MIX_EPS, VARIANTS, LossConfig, _interval_columns,
                          gaussian_link, hard_capture, head_loss_and_grad, sigmoid,
                          squash_mix)
from pireg.network import (FeedForwardModel, _forward_cached, backward, forward,
                           init_model, loss_value)

# ---------------------------------------------------------------------------
# Reference implementations, kept verbatim apart from their names.
# ---------------------------------------------------------------------------


def ref_sigmoid(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def ref_squash_mix(logit):
    return np.clip(ref_sigmoid(logit), MIX_EPS, 1.0 - MIX_EPS)


def ref_mixed(upper, lower, mix):
    return lower + mix * (upper - lower)


def ref_value_mix(logit, variant):
    if variant == "joint":
        return ref_squash_mix(logit)
    return 0.5


def ref_interval_terms(upper, lower, y, cfg):
    n = y.shape[-1]
    k_hard = hard_capture(y, lower, upper)
    denom = np.maximum(np.sum(k_hard, axis=-1), CAPTURE_EPS)
    width_term = np.sum((upper - lower) * k_hard, axis=-1) / denom

    a = ref_sigmoid(cfg.soften * (y - lower))
    b = ref_sigmoid(cfg.soften * (upper - y))
    picp_soft = np.mean(a * b, axis=-1)
    gap = (1.0 - cfg.alpha) - picp_soft
    hinge = np.maximum(gap, 0.0)
    loss = width_term + math.sqrt(n) * cfg.coverage_penalty * hinge * hinge

    d_upper = k_hard / denom[..., None]
    d_lower = -k_hard / denom[..., None]
    active = (hinge > 0.0)[..., None]
    if np.any(active):
        scale = (-2.0 * math.sqrt(n) * cfg.coverage_penalty * hinge / n)[..., None]
        d_upper = np.where(active, d_upper + scale * (a * b * (1.0 - b) * cfg.soften), d_upper)
        d_lower = np.where(active, d_lower + scale * (-a * (1.0 - a) * b * cfg.soften), d_lower)
    return loss, d_upper, d_lower


def ref_point_terms(pred, y, kind):
    r = pred - y
    if kind == "squared":
        return r * r, 2.0 * r
    return np.abs(r), np.sign(r)


def ref_value_terms(upper, lower, mix, y, cfg):
    n = y.shape[-1]
    pred = ref_mixed(upper, lower, mix)
    per_sample, d_pred = ref_point_terms(pred, y, cfg.point_loss)
    loss = np.mean(per_sample, axis=-1)
    w = d_pred / n
    return loss, w * mix, w * (1.0 - mix), w * (upper - lower)


def ref_gaussian_terms(raw, y):
    n = y.shape[-1]
    mean, variance = gaussian_link(raw)
    vraw = raw[..., 1]
    resid = y - mean
    loss = np.mean(0.5 * np.log(variance) + resid * resid / (2.0 * variance), axis=-1)
    d_mean = (mean - y) / variance / n
    d_var = (0.5 / variance - 0.5 * resid * resid / (variance * variance)) / n
    d_vraw = d_var * ref_sigmoid(vraw)
    grad = np.stack([d_mean, d_vraw], axis=-1)
    return loss, grad


def ref_head_loss_and_grad(raw, y, cfg):
    raw = np.asarray(raw, dtype=float)
    y = np.asarray(y, dtype=float)
    if cfg.variant == "gaussian_nll":
        return ref_gaussian_terms(raw, y)

    upper, lower, logit = _interval_columns(raw)
    li, di_u, di_l = ref_interval_terms(upper, lower, y, cfg)
    grad = np.zeros_like(raw)

    if cfg.variant in ("interval_only", "decoupled"):
        grad[..., 0] = di_u
        grad[..., 1] = di_l
        if cfg.variant == "interval_only":
            return li, grad
        per_sample, d_pred = ref_point_terms(logit, y, cfg.point_loss)
        grad[..., 2] = d_pred / y.shape[-1]
        return li + np.mean(per_sample, axis=-1), grad

    mix = ref_value_mix(logit, cfg.variant)
    lv, dv_u, dv_l, dv_mix = ref_value_terms(upper, lower, mix, y, cfg)
    w = cfg.interval_weight
    grad[..., 0] = w * di_u + (1.0 - w) * dv_u
    grad[..., 1] = w * di_l + (1.0 - w) * dv_l
    if cfg.variant == "joint":
        grad[..., 2] = (1.0 - w) * dv_mix * mix * (1.0 - mix)
    return w * li + (1.0 - w) * lv, grad


def ref_forward_cached(model, x):
    # Every layer as a gemm, the first included.
    activations = [x]
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w
        a += b[..., None, :]
        if i < last:
            np.maximum(a, 0.0, out=a)
            activations.append(a)
    return a, activations


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def bits(a):
    """The raw float64 bit patterns, so -0.0 != +0.0 and NaN == NaN."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


MEMBERS, ROWS = 4, 80


def interval_head(rng, y, hinge):
    """(MEMBERS, ROWS, 3) head whose coverage hinge is active per ``hinge``.

    A member with an active hinge gets narrow random bounds; an inactive one
    bounds every target by a margin of 2, so its soft coverage is 1.  Some
    entries are exact signed zeros and some targets sit exactly on a bound.
    """
    centre = np.broadcast_to(y, (MEMBERS, ROWS))
    raw = np.empty((MEMBERS, ROWS, 3))
    for m in range(MEMBERS):
        if hinge[m]:
            raw[m, :, 0] = centre[m] + rng.normal(0.0, 0.3, ROWS)
            raw[m, :, 1] = centre[m] - np.abs(rng.normal(0.0, 0.3, ROWS))
        else:
            raw[m, :, 0] = centre[m] + 2.0
            raw[m, :, 1] = centre[m] - 2.0
    raw[..., 2] = rng.normal(0.0, 2.0, (MEMBERS, ROWS))
    raw[:, 0, 2] = 0.0
    raw[:, 1, 2] = -0.0
    raw[:, 2, 1] = centre[:, 2]          # target on the lower bound
    raw[:, 3, 0] = centre[:, 3]          # target on the upper bound
    raw[:, 4, :2] = centre[:, 4:5]       # zero-width interval at the target
    raw[:, 5, 2] = 700.0                 # saturated mix
    raw[:, 8, :2] = centre[:, 8:9] - 0.5  # zero-width interval below the target
    return raw


HINGES = {"every": (True,) * MEMBERS, "none": (False,) * MEMBERS,
          "some": (True, False, False, True)}


def case(variant, point_loss, targets, hinge, seed=3):
    rng = np.random.default_rng([seed, VARIANTS.index(variant), len(targets), len(hinge)])
    if targets == "shared":
        y = rng.normal(0.0, 1.0, ROWS)
    else:
        y = rng.normal(0.0, 1.0, (MEMBERS, ROWS))
    y[..., 6] = 0.0
    y[..., 7] = -0.0
    if variant == "gaussian_nll":
        raw = rng.normal(0.0, 1.5, (MEMBERS, ROWS, 2))
        raw[:, 0, :] = 0.0
        raw[:, 1, :] = -0.0
    else:
        raw = interval_head(rng, y, HINGES[hinge])
    return raw, y, LossConfig(variant=variant, point_loss=point_loss)


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------


def test_sigmoid_and_squash_mix_match_reference_bitwise():
    grid = np.concatenate([np.linspace(-800.0, 800.0, 4001), np.logspace(-320, 3, 400),
                           -np.logspace(-320, 3, 400),
                           [0.0, -0.0, np.inf, -np.inf, np.nan, 36.7, -36.7, 745.2, -745.2]])
    with np.errstate(invalid="ignore"):
        assert_same_bits(sigmoid(grid), ref_sigmoid(grid))
        assert_same_bits(squash_mix(grid), ref_squash_mix(grid))


@pytest.mark.parametrize("hinge", sorted(HINGES))
@pytest.mark.parametrize("targets", ["shared", "per_member"])
@pytest.mark.parametrize("point_loss", ["squared", "absolute"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_head_loss_and_grad_matches_reference_bitwise(variant, point_loss, targets, hinge):
    raw, y, cfg = case(variant, point_loss, targets, hinge)
    if variant != "gaussian_nll":
        # The head really has the intended hinge pattern.
        upper, lower = raw[..., 0], raw[..., 1]
        soft = np.mean(ref_sigmoid(cfg.soften * (y - lower))
                       * ref_sigmoid(cfg.soften * (upper - y)), axis=-1)
        assert tuple(soft < 1.0 - cfg.alpha) == HINGES[hinge]
    want_loss, want_grad = ref_head_loss_and_grad(raw, y, cfg)
    loss, grad = head_loss_and_grad(raw, y, cfg)
    assert_same_bits(loss, want_loss)
    assert_same_bits(grad, want_grad)

    # The loss-only pass returns the very same bits and builds no gradient.
    only, none = head_loss_and_grad(raw, y, cfg, gradient=False)
    assert none is None
    assert_same_bits(only, loss)

    # One member alone, with no member axis.
    one_y = y if y.ndim == 1 else y[1]
    want_loss, want_grad = ref_head_loss_and_grad(raw[1], one_y, cfg)
    loss, grad = head_loss_and_grad(raw[1], one_y, cfg)
    assert_same_bits(loss, want_loss)
    assert_same_bits(grad, want_grad)
    assert_same_bits(head_loss_and_grad(raw[1], one_y, cfg, gradient=False)[0], loss)


def test_loss_value_equals_backward_loss_bitwise():
    rng = np.random.default_rng(8)
    for variant in VARIANTS:
        head = (0.0, 0.0) if variant == "gaussian_nll" else (2.0, -2.0, 0.0)
        sizes = (3, 9, len(head))
        model = FeedForwardModel(sizes, np.stack([init_model(sizes, s, head).flat
                                                  for s in range(3)]))
        x, y = rng.normal(size=(25, 3)), rng.normal(size=25)
        cfg = LossConfig(variant=variant)
        assert_same_bits(loss_value(model, x, y, cfg), backward(model, x, y, cfg)[0])


SIGNED = np.array([0.0, -0.0, 1.3, -1.3, 2.5e-3, -7.0])


@pytest.mark.parametrize("bias", ["zero", "negative_zero", "mixed"])
@pytest.mark.parametrize("hidden", [True, False])
def test_one_feature_first_layer_matches_the_gemm_bitwise(bias, hidden):
    # Every pairing of a signed zero or non-zero input with a signed zero or
    # non-zero weight, for a lone model, a stack on shared rows and a stack
    # on rows of its own.  A rectifier maps -0.0 to +0.0, so a sign slip in
    # a hidden first layer vanishes; with no hidden layer the first layer is
    # the head and every bit of it shows.
    width = 2 * SIGNED.size
    sizes, head = ((1, width, 3), (2.0, -2.0, 0.0)) if hidden else ((1, width), (0.0,) * width)
    model = init_model(sizes, 5, head)
    stack = FeedForwardModel(model.layer_sizes, np.stack([model.flat] * 3))
    for m in (model, stack):
        m.weights[0][...] = np.concatenate([SIGNED, SIGNED[::-1]])
        m.biases[0][...] = {"zero": 0.0, "negative_zero": -0.0,
                            "mixed": np.resize([0.0, -0.0, 0.25, -1.5], width)}[bias]
    x = np.repeat(SIGNED, 3)[:, None]
    for m, features in ((model, x), (stack, x), (stack, np.stack([x, -x, x[::-1]]))):
        # Before the bias add the product already has the gemm's bits.
        w = m.weights[0]
        assert_same_bits(np.einsum("...ik,...kj->...ij", features, w), features @ w)
        raw, activations = _forward_cached(m, features)
        want_raw, want_activations = ref_forward_cached(m, features)
        assert_same_bits(raw, want_raw)
        for got, want in zip(activations, want_activations):
            assert_same_bits(got, want)
        assert_same_bits(forward(m, features), want_raw)


def test_in_place_shuffle_draws_the_permutation():
    # The trainer shuffles rows of arange(n) in place instead of calling
    # Generator.permutation(n); both must consume the member's stream alike.
    for seed in range(5):
        for n in (1, 2, 81, 100, 1000):
            a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            rows = np.empty((2, n), dtype=np.intp)
            rows[:] = np.arange(n)
            for row in rows:
                a.shuffle(row)
            assert np.array_equal(rows[0], b.permutation(n))
            assert np.array_equal(rows[1], b.permutation(n))
