"""Loss-module tests.

Every loss value is read from ``head_loss_and_grad``, the package's single
loss path, on a raw head matrix (upper, lower, mix-logit); a logit of 0 is a
mix of exactly 0.5.  The expected values come from independent plain-Python
oracles defined at the top of this file: stable scalar sigmoid, loop-based
interval/value/gaussian losses and captured width, and entrywise central
differences on the raw head matrix.  They share no code with the package implementation.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pireg.errors import ConfigError, ShapeError
from pireg.losses import (CAPTURE_EPS, MIX_EPS, VARIANTS, LossConfig, gaussian_link,
                          hard_capture, head_loss_and_grad, interval_link, sigmoid,
                          softplus, squash_mix)
from pireg.metrics import picp

# ---------------------------------------------------------------------------
# Independent oracles: pure-Python loops, math-module arithmetic only.
# ---------------------------------------------------------------------------


def _sig(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def oracle_interval(upper, lower, y, cfg):
    n = len(y)
    k = [1.0 if lower[i] <= y[i] <= upper[i] else 0.0 for i in range(n)]
    width = sum((upper[i] - lower[i]) * k[i] for i in range(n)) / max(sum(k), CAPTURE_EPS)
    picp = sum(_sig(cfg.soften * (y[i] - lower[i])) * _sig(cfg.soften * (upper[i] - y[i]))
               for i in range(n)) / n
    hinge = max((1.0 - cfg.alpha) - picp, 0.0)
    return width + math.sqrt(n) * cfg.coverage_penalty * hinge * hinge


def captured_mpiw(upper, lower, captured):
    """Mean width over captured samples; 0.0 when nothing is captured."""
    width = sum((upper[i] - lower[i]) * captured[i] for i in range(len(captured)))
    return width / max(sum(captured), CAPTURE_EPS)


def oracle_point(pred, target, kind):
    r = pred - target
    return r * r if kind == "squared" else abs(r)


def oracle_value(upper, lower, mix, y, cfg):
    n = len(y)
    return sum(oracle_point(lower[i] + mix[i] * (upper[i] - lower[i]), y[i], cfg.point_loss)
               for i in range(n)) / n


def oracle_gaussian(mean, variance, y):
    n = len(y)
    return sum(0.5 * math.log(variance[i]) + (y[i] - mean[i]) ** 2 / (2.0 * variance[i])
               for i in range(n)) / n


def loss_of(raw, y, cfg):
    """Loss value alone, read from the package's single loss path."""
    return head_loss_and_grad(raw, y, cfg)[0]


def head(upper, lower, logit=0.0):
    """Raw (n, 3) head matrix; the default logit 0 is a mix of exactly 0.5."""
    upper = np.asarray(upper, dtype=float)
    return np.column_stack([upper, lower, np.broadcast_to(logit, upper.shape)])


INTERVAL = LossConfig(variant="interval_only")
VALUE = LossConfig(interval_weight=0.0)
GAUSSIAN = LossConfig(variant="gaussian_nll")


def head_fd(raw, y, cfg, h=1e-5):
    """Entrywise central differences of the head loss on the raw matrix."""
    g = np.zeros_like(raw)
    for i in range(raw.shape[0]):
        for j in range(raw.shape[1]):
            saved = raw[i, j]
            raw[i, j] = saved + h
            up = loss_of(raw, y, cfg)
            raw[i, j] = saved - h
            down = loss_of(raw, y, cfg)
            raw[i, j] = saved
            g[i, j] = (up - down) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-4):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def random_head(rng, n, cols=3, scale=1.5):
    return rng.normal(0.0, scale, size=(n, cols))


FINITE = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Elementary pieces.
# ---------------------------------------------------------------------------


def _two_exp_sigmoid(x):
    # Bitwise oracle: one exp per sign branch, each over the whole array.
    pos = np.where(x >= 0, x, 0.0)
    neg = np.where(x < 0, x, 0.0)
    ex = np.exp(neg)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-pos)), ex / (1.0 + ex))


def test_sigmoid_matches_scalar_reference():
    edges = [0.0, -0.0, 1e308, -1e308, 750.0, -750.0, np.inf, -np.inf, 1e-320, -1e-320]
    xs = np.array([-800.0, -160.0, -5.0, -1e-12, 0.0, 1e-12, 3.0, 160.0, 800.0, *edges])
    got = sigmoid(xs)
    for x, g in zip(xs, got):
        want = 0.0 if x < -700 else _sig(x)
        assert abs(g - want) <= 1e-15
    assert np.all(got >= 0.0) and np.all(got <= 1.0)
    grid = np.concatenate([edges, np.random.default_rng(0).normal(0.0, 40.0, 490)])
    grid = grid.reshape(5, 100)
    assert np.array_equal(sigmoid(grid).view(np.uint64), _two_exp_sigmoid(grid).view(np.uint64))


def test_softplus_matches_reference_and_never_overflows():
    xs = np.array([-900.0, -30.0, 0.0, 1.0, 30.0, 900.0])
    got = softplus(xs)
    assert np.all(np.isfinite(got))
    assert abs(got[2] - math.log(2.0)) < 1e-15
    assert abs(got[3] - math.log1p(math.e)) < 1e-15
    assert got[5] == 900.0  # exp(-900) underflows to 0 in the stable form
    assert got[0] == 0.0


def test_hard_capture_boundaries_inclusive():
    assert hard_capture([0.0], [-1.0], [1.0]).tolist() == [1.0]
    assert hard_capture([2.0], [-1.0], [1.0]).tolist() == [0.0]
    assert hard_capture([1.0], [-1.0], [1.0]).tolist() == [1.0]
    assert hard_capture([-1.0], [-1.0], [1.0]).tolist() == [1.0]


def test_hard_capture_length_mismatch():
    # hard_capture broadcasts; coverage, its reader, checks the shapes.
    with pytest.raises(ShapeError):
        picp([0.0, 1.0], [-1.0], [1.0])


def test_soft_capture_centered_saturates():
    # Soft coverage within 1e-10 of 1: even a 1 - 1e-10 coverage target
    # leaves the penalty off, so the loss is the captured width alone.
    cfg = LossConfig(alpha=1e-10, variant="interval_only")
    assert loss_of(head([1.0], [-1.0]), np.array([0.0]), cfg) == 2.0


def test_soft_capture_at_lower_bound_is_half():
    # The penalty is off for a coverage target 1e-15 below the reference
    # 0.5 * sigmoid(soften * (upper + 1)) (which is 0.5 in float64) and on
    # for one 1e-15 above it, so soft coverage is within 1e-15 of it.
    upper, soften = 5.0, 160.0
    want = 0.5 * _sig(soften * (upper + 1.0))
    assert abs(want - 0.5) < 1e-12
    raw, y = head([upper], [-1.0]), np.array([-1.0])

    def loss_at_target(coverage):
        return loss_of(raw, y, LossConfig(alpha=1.0 - coverage, coverage_penalty=1e30,
                                          soften=soften, variant="interval_only"))

    assert loss_at_target(want - 1e-15) == upper + 1.0
    assert loss_at_target(want + 1e-15) > upper + 1.0


def test_soft_capture_far_outside_vanishes():
    # d loss / d lower = 2 * coverage_penalty * hinge * soften * soft capture
    # for one sample far below its bounds, so a gradient under 1e-60 means a
    # soft capture under 1e-60; the hinge keeps its full 1 - alpha.
    loss, grad = head_loss_and_grad(head([1.0], [-1.0]), np.array([-2.0]), INTERVAL)
    assert np.max(np.abs(grad)) < 1e-60
    assert loss == pytest.approx(15.0 * 0.95 ** 2, rel=1e-15)


def test_captured_mpiw_examples():
    # A 1e-10 coverage target leaves the penalty off as soon as one sample
    # is captured, so the interval loss is the captured width alone.
    cfg = LossConfig(alpha=1.0 - 1e-10, variant="interval_only")
    raw = head([1.0, 3.0], [0.0, 1.0])
    assert loss_of(raw, np.array([0.5, 2.0]), cfg) == 1.5
    assert loss_of(raw, np.array([0.5, 9.0]), cfg) == 1.0
    # Nothing captured: the width term is 0, the loss the penalty alone.
    gap = 1.0 - cfg.alpha
    assert loss_of(raw, np.array([9.0, 9.0]), cfg) == \
        math.sqrt(2.0) * cfg.coverage_penalty * gap * gap


def joint_value(upper, lower, logit):
    return interval_link(head(upper, lower, logit), "joint")[2]


def test_value_prediction_examples():
    assert joint_value([4.0], [2.0], 0.0)[0] == pytest.approx(3.0)
    # mix 0.25 is logit log(1/3)
    assert joint_value([2.0], [-2.0], math.log(1.0 / 3.0))[0] == pytest.approx(-1.0)
    near_one = math.log((1.0 - 1e-12) / 1e-12)
    assert abs(joint_value([4.0], [2.0], near_one)[0] - 4.0) < 1e-11


def test_value_prediction_rejects_degenerate_mix():
    # Saturated logits are clipped MIX_EPS short of 0 and 1, so the joint
    # value never collapses onto a bound of a non-degenerate interval.
    value = joint_value([4.0, 4.0], [2.0, 2.0], [-1e6, 1e6])
    assert 2.0 < value[0] < 2.0 + 1e-11
    assert 4.0 - 1e-11 < value[1] < 4.0


def test_squash_mix_stays_strictly_interior():
    logits = np.array([-1e6, -50.0, 0.0, 50.0, 1e6])
    mix = squash_mix(logits)
    assert np.all(mix > 0.0) and np.all(mix < 1.0)
    assert np.all(mix >= MIX_EPS) and np.all(mix <= 1.0 - MIX_EPS)
    assert mix[2] == 0.5


def test_interval_link_shapes_and_derived_value():
    raw = np.array([[4.0, 2.0, 0.0], [1.0, -1.0, 40.0]])
    upper, lower, value = interval_link(raw, "joint")
    assert upper.tolist() == [4.0, 1.0] and lower.tolist() == [2.0, -1.0]
    assert value[0] == pytest.approx(3.0)
    assert abs(value[1] - 1.0) < 1e-9
    # Leading axes index members; each member reads exactly as it would alone.
    stacked = np.stack([raw, raw[::-1]])
    for part, a, b in zip(interval_link(stacked, "joint"), interval_link(raw, "joint"),
                          interval_link(raw[::-1], "joint")):
        assert part.shape == (2, 2)
        assert np.array_equal(part, np.stack([a, b]))
    with pytest.raises(ShapeError):
        interval_link(np.zeros((3, 2)), "joint")
    with pytest.raises(ShapeError):
        interval_link(np.zeros(3), "joint")


# ---------------------------------------------------------------------------
# LossConfig validation.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": 1e-17}, {"coverage_penalty": 0.0},
    {"coverage_penalty": -1.0}, {"soften": 0.0}, {"interval_weight": -0.1},
    {"interval_weight": 1.1}, {"variant": "nope"}, {"point_loss": "huber"},
])
def test_loss_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        LossConfig(**kwargs)


def test_loss_config_defaults():
    cfg = LossConfig()
    assert cfg.alpha == 0.05
    assert cfg.coverage_penalty == 15.0
    assert cfg.soften == 160.0
    assert cfg.interval_weight == 0.5
    assert cfg.variant == "joint"
    assert cfg.point_loss == "squared"


# ---------------------------------------------------------------------------
# Loss values against the loop oracles.
# ---------------------------------------------------------------------------


def _random_case(seed, n=24):
    rng = np.random.default_rng(seed)
    raw = random_head(rng, n)
    y = rng.normal(0.0, 1.2, size=n)
    out = SimpleNamespace(upper=raw[:, 0], lower=raw[:, 1], mix=squash_mix(raw[:, 2]))
    return raw, out, y


@pytest.mark.parametrize("seed", range(12))
def test_interval_loss_matches_oracle(seed):
    raw, out, y = _random_case(seed)
    want = oracle_interval(out.upper, out.lower, y, INTERVAL)
    assert loss_of(raw, y, INTERVAL) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("point_loss", ["squared", "absolute"])
def test_value_loss_matches_oracle(seed, point_loss):
    raw, out, y = _random_case(seed)
    cfg = LossConfig(interval_weight=0.0, point_loss=point_loss)
    want = oracle_value(out.upper, out.lower, out.mix, y, cfg)
    assert loss_of(raw, y, cfg) == pytest.approx(want, rel=1e-12)


def test_value_loss_examples():
    raw = head([2.0, 4.0], [0.0, 2.0])
    assert interval_link(raw, "joint")[2].tolist() == [1.0, 3.0]
    assert loss_of(raw, np.array([1.0, 3.0]), VALUE) == 0.0
    assert loss_of(raw, np.array([0.0, 0.0]), VALUE) == pytest.approx(5.0)


def test_interval_loss_penalty_free_when_everything_captured():
    upper, lower = np.full(8, 10.0), np.full(8, -10.0)
    y = np.linspace(-1.0, 1.0, 8)
    k = hard_capture(y, lower, upper)
    assert loss_of(head(upper, lower), y, INTERVAL) == captured_mpiw(upper, lower, k) == 20.0


def test_interval_loss_penalty_scales_linearly_in_coverage_penalty():
    raw, out, y = _random_case(3)
    base = LossConfig(coverage_penalty=5.0, variant="interval_only")
    double = LossConfig(coverage_penalty=10.0, variant="interval_only")
    k = hard_capture(y, out.lower, out.upper)
    width = captured_mpiw(out.upper, out.lower, k)
    p1 = loss_of(raw, y, base) - width
    p2 = loss_of(raw, y, double) - width
    assert p1 > 0.0  # random tight case generates shortfall
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)


def test_interval_loss_hand_arithmetic():
    # One captured sample of width 2 and one far miss, n=4, soften high
    # enough that soft coverage is exactly the miss pattern: picp_soft=0.75,
    # hinge = 0.95 - 0.75 = 0.2, penalty = 2 * 15 * 0.04 = 1.2.
    raw = head(np.full(4, 1.0), np.full(4, -1.0))
    y = np.array([0.0, 0.0, 0.0, 50.0])
    cfg = LossConfig(alpha=0.05, coverage_penalty=15.0, soften=160.0, variant="interval_only")
    want = 2.0 + math.sqrt(4.0) * 15.0 * 0.2 * 0.2
    assert loss_of(raw, y, cfg) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_joint_loss_is_the_stated_convex_combination(seed):
    raw, _, y = _random_case(seed)
    interval, value = loss_of(raw, y, INTERVAL), loss_of(raw, y, VALUE)
    for weight in (0.0, 0.25, 0.5, 0.99, 1.0):
        want = weight * interval + (1.0 - weight) * value
        assert loss_of(raw, y, LossConfig(interval_weight=weight)) == \
            pytest.approx(want, rel=1e-12)


def test_joint_loss_endpoints():
    raw, out, y = _random_case(5)
    assert loss_of(raw, y, LossConfig(interval_weight=1.0)) == loss_of(raw, y, INTERVAL)
    # At weight 0 the interval settings drop out and the value loss is left.
    value = loss_of(raw, y, VALUE)
    assert loss_of(raw, y, LossConfig(interval_weight=0.0, alpha=0.3, coverage_penalty=99.0,
                                      soften=3.0)) == value
    assert value == pytest.approx(oracle_value(out.upper, out.lower, out.mix, y, VALUE),
                                  rel=1e-12)


def test_joint_loss_is_affine_in_interval_weight():
    raw, _, y = _random_case(7)
    lo = loss_of(raw, y, LossConfig(interval_weight=0.2))
    hi = loss_of(raw, y, LossConfig(interval_weight=0.8))
    mid = loss_of(raw, y, LossConfig(interval_weight=0.5))
    assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)


def test_interval_only_equals_full_weight_joint():
    raw, _, y = _random_case(9)
    assert loss_of(raw, y, INTERVAL) == loss_of(raw, y, LossConfig(interval_weight=1.0))


def test_midpoint_loss_pins_the_mix_at_half():
    raw, _, y = _random_case(11)
    cfg = LossConfig(variant="midpoint")
    # A network emitting logit 0 hits mix 0.5 exactly, so the variants agree.
    raw0 = raw.copy()
    raw0[:, 2] = 0.0
    assert loss_of(raw, y, cfg) == pytest.approx(loss_of(raw0, y, LossConfig()), rel=1e-12)
    assert loss_of(raw0, y, cfg) == loss_of(raw0, y, LossConfig(variant="joint"))


def test_midpoint_value_term_vanishes_for_symmetric_intervals():
    y = np.array([0.3, -1.2, 2.0])
    raw = head(y + 1.0, y - 1.0, logit=2.2)  # mix ~0.9, ignored by the variant
    assert loss_of(raw, y, LossConfig(variant="midpoint")) == pytest.approx(
        0.5 * loss_of(raw, y, INTERVAL), rel=1e-12)


def test_decoupled_loss_reads_the_raw_head():
    raw, out, y = _random_case(13)
    cfg = LossConfig(variant="decoupled")
    want = oracle_interval(out.upper, out.lower, y, cfg) + \
        sum(oracle_point(raw[i, 2], y[i], "squared") for i in range(len(y))) / len(y)
    assert loss_of(raw, y, cfg) == pytest.approx(want, rel=1e-12)
    # Raw head equal to the targets: the point term vanishes entirely.
    raw_hit = raw.copy()
    raw_hit[:, 2] = y
    assert loss_of(raw_hit, y, cfg) == pytest.approx(loss_of(raw_hit, y, INTERVAL), rel=1e-12)


def test_decoupled_loss_requires_the_raw_head():
    with pytest.raises(ShapeError):
        head_loss_and_grad(np.ones((3, 2)), np.zeros(3), LossConfig(variant="decoupled"))


def test_decoupled_point_term_never_touches_the_bounds():
    raw, _, y = _random_case(17)
    decoupled = head_loss_and_grad(raw, y, LossConfig(variant="decoupled"))[1]
    interval = head_loss_and_grad(raw, y, LossConfig(variant="interval_only"))[1]
    assert np.array_equal(decoupled[:, 0], interval[:, 0])
    assert np.array_equal(decoupled[:, 1], interval[:, 1])


@pytest.mark.parametrize("seed", range(8))
def test_gaussian_nll_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    raw = np.column_stack([rng.normal(size=10), rng.uniform(-2.0, 3.0, size=10)])
    y = rng.normal(size=10)
    want = oracle_gaussian(*gaussian_link(raw), y)
    assert loss_of(raw, y, GAUSSIAN) == pytest.approx(want, rel=1e-12)


def test_gaussian_nll_examples():
    y = np.array([1.0, -2.0])
    vraw = np.full(2, 0.5)
    variance = gaussian_link(np.column_stack([y, vraw]))[1]

    def nll(mean):
        return loss_of(np.column_stack([mean, vraw]), y, GAUSSIAN)

    base = nll(y)  # zero residual leaves the log-variance term alone
    assert base == float(np.mean(0.5 * np.log(variance)))
    assert nll(y - 2.0) - base == pytest.approx(float(np.mean(2.0 / variance)))
    assert nll(y - 2.0) - base == pytest.approx(4.0 * (nll(y - 1.0) - base))


def test_gaussian_link_floors_the_variance():
    raw = np.array([[0.0, -1000.0], [2.0, 0.0]])
    mean, variance = gaussian_link(raw)
    assert mean.tolist() == [0.0, 2.0]
    assert variance[0] == pytest.approx(1e-6)
    assert variance[1] == pytest.approx(math.log(2.0) + 1e-6)
    with pytest.raises(ShapeError):
        gaussian_link(np.zeros((2, 3)))
    # Leading axes index members.
    stacked_mean, stacked_variance = gaussian_link(np.stack([raw, raw[::-1]]))
    assert np.array_equal(stacked_mean, np.stack([mean, mean[::-1]]))
    assert np.array_equal(stacked_variance, np.stack([variance, variance[::-1]]))


def test_interval_link_value_per_variant():
    raw = np.array([[4.0, 2.0, 1.3], [0.0, -2.0, -0.4]])
    value = {variant: interval_link(raw, variant)[2]
             for variant in ("joint", "interval_only", "midpoint", "decoupled")}
    mix = [_sig(1.3), _sig(-0.4)]
    assert value["joint"].tolist() == pytest.approx([2.0 + 2.0 * mix[0], -2.0 + 2.0 * mix[1]],
                                                    rel=1e-15)
    assert value["interval_only"].tolist() == [3.0, -1.0]
    assert value["midpoint"].tolist() == [3.0, -1.0]
    assert value["decoupled"].tolist() == [1.3, -0.4]
    with pytest.raises(ConfigError):
        interval_link(raw, "gaussian_nll")


# ---------------------------------------------------------------------------
# head_loss_and_grad: dispatch, shape policing, finite-difference fidelity.
# ---------------------------------------------------------------------------


def test_head_dispatch_rejects_bad_shapes():
    y = np.zeros(4)
    cfg = LossConfig()
    with pytest.raises(ShapeError):
        head_loss_and_grad(np.zeros((4, 2)), y, cfg)
    with pytest.raises(ShapeError):
        head_loss_and_grad(np.zeros((3, 3)), y, cfg)
    with pytest.raises(ShapeError):
        head_loss_and_grad(np.zeros((0, 3)), np.zeros(0), cfg)
    with pytest.raises(ShapeError):
        head_loss_and_grad(np.zeros((4, 3)), np.zeros((4, 1)), cfg)
    with pytest.raises(ShapeError):
        head_loss_and_grad(np.zeros((4, 3)), y, LossConfig(variant="gaussian_nll"))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", range(6))
def test_head_gradients_match_central_differences(variant, seed):
    # Seeded per variant by its position, which is stable across interpreters
    # (hash(str) is salted per process).  Within 12 / soften of a bound the
    # capture sigmoid is so curved that the difference quotient's truncation
    # error reaches 1e-4 of entries where the width and hinge terms nearly
    # cancel; such draws are regenerated, as criterion 1 does at its kinks.
    rng = np.random.default_rng([seed, VARIANTS.index(variant)])
    cols = 2 if variant == "gaussian_nll" else 3
    cfg = LossConfig(variant=variant)
    for _ in range(50):
        raw = random_head(rng, 20, cols=cols)
        y = rng.normal(0.0, 1.2, size=20)
        if cols == 2 or np.min(np.abs(y[:, None] - raw[:, :2])) * cfg.soften >= 12.0:
            break
    else:
        pytest.fail("50 draws in a row put a target near a bound")
    loss, grad = head_loss_and_grad(raw.copy(), y, cfg)
    fd = head_fd(raw, y, cfg)
    assert np.isfinite(loss)
    assert rel_err(grad, fd) <= 1e-4


@pytest.mark.parametrize("point_loss", ["squared", "absolute"])
def test_head_gradients_cover_both_point_losses(point_loss):
    rng = np.random.default_rng(77)
    raw = random_head(rng, 16)
    y = rng.normal(size=16)
    cfg = LossConfig(point_loss=point_loss)
    _, grad = head_loss_and_grad(raw.copy(), y, cfg)
    assert rel_err(grad, head_fd(raw, y, cfg)) <= 1e-4


def test_head_loss_equals_public_losses():
    # Each variant's loss equals its stated objective, built from the loops.
    raw, out, y = _random_case(21)
    interval = oracle_interval(out.upper, out.lower, y, LossConfig())
    w = LossConfig().interval_weight
    half = np.full(len(y), 0.5)
    expected = {
        "joint": w * interval + (1.0 - w) * oracle_value(out.upper, out.lower, out.mix, y,
                                                         LossConfig()),
        "interval_only": interval,
        "midpoint": w * interval + (1.0 - w) * oracle_value(out.upper, out.lower, half, y,
                                                            LossConfig()),
        "decoupled": interval + sum(oracle_point(raw[i, 2], y[i], "squared")
                                    for i in range(len(y))) / len(y),
    }
    for variant, want in expected.items():
        assert loss_of(raw, y, LossConfig(variant=variant)) == pytest.approx(want, rel=1e-12)
    rng = np.random.default_rng(3)
    raw2 = random_head(rng, 12, cols=2)
    assert loss_of(raw2, y[:12], GAUSSIAN) == pytest.approx(
        oracle_gaussian(*gaussian_link(raw2), y[:12]), rel=1e-12)


# ---------------------------------------------------------------------------
# Property tests.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=30),
       st.sampled_from(VARIANTS), st.integers(0, 2 ** 31))
def test_losses_are_permutation_invariant_and_finite(rows, variant, perm_seed):
    raw = np.array([[u, l, m] for (u, l, m, _) in rows])
    if variant == "gaussian_nll":
        raw = raw[:, :2]
    y = np.array([t for (_, _, _, t) in rows])
    cfg = LossConfig(variant=variant)
    loss, grad = head_loss_and_grad(raw, y, cfg)
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grad))
    perm = np.random.default_rng(perm_seed).permutation(len(y))
    loss_p, grad_p = head_loss_and_grad(raw[perm], y[perm], cfg)
    assert loss_p == pytest.approx(loss, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(grad_p, grad[perm], rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, st.floats(-30, 30, allow_nan=False)),
                min_size=1, max_size=30))
def test_value_prediction_is_always_contained(rows):
    upper = np.array([u for (u, _, _) in rows])
    lower = np.array([l for (_, l, _) in rows])
    logit = np.array([m for (_, _, m) in rows])
    value = interval_link(np.column_stack([upper, lower, logit]), "joint")[2]
    assert np.all(value >= np.minimum(lower, upper) - 1e-12)
    assert np.all(value <= np.maximum(lower, upper) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=25),
       st.floats(0.01, 0.4, allow_nan=False))
def test_penalty_active_exactly_when_soft_coverage_falls_short(pairs, alpha):
    # The interval loss must move with the penalty weight iff the soft
    # coverage misses the 1 - alpha target.  A shortfall can be one ulp
    # (1.1e-16), so the high weight must lift its square above the width's
    # rounding: 1e300 does, where 20 would add 4e-31 to a width of 2.
    y = np.array([a for (a, _) in pairs])
    centers = np.array([b for (_, b) in pairs])
    upper, lower = centers + 1.0, centers - 1.0
    lo = LossConfig(alpha=alpha, coverage_penalty=2.0, variant="interval_only")
    hi = LossConfig(alpha=alpha, coverage_penalty=1e300, variant="interval_only")
    soft = float(np.mean(sigmoid(lo.soften * (y - lower)) * sigmoid(lo.soften * (upper - y))))
    raw = head(upper, lower)
    increased = loss_of(raw, y, hi) > loss_of(raw, y, lo)
    assert increased == (soft < 1.0 - alpha)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mix_head_saturation_never_escapes_unit_interval(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 500.0, size=16)
    mix = squash_mix(logits)
    assert np.all(mix > 0.0) and np.all(mix < 1.0)
