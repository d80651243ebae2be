"""Optimizer tests.

The update oracle is a hand-traced scalar Adam computed with plain Python
floats in this file, stepped twice to cover the bias-correction schedule.
"""

import numpy as np
import pytest

from pireg.errors import ConfigError, ShapeError, TrainingDiverged
from pireg.losses import LossConfig
from pireg.network import FeedForwardModel, backward, init_model
from pireg.optim import adam_step, init_adam


def scalar_model(value):
    # One weight, then one bias, in the flat buffer.
    return FeedForwardModel(layer_sizes=(1, 1), flat=np.array([float(value), 0.0]))


def grad_like(model, fill):
    return FeedForwardModel(model.layer_sizes, np.full_like(model.flat, fill))


def hand_adam(p, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-float Adam trace for a single parameter."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p = p - lr * m_hat / (v_hat ** 0.5 + eps)
    return p


def test_zero_gradients_leave_parameters_unchanged():
    model = init_model([2, 4, 3], seed=0)
    before = model.flat.copy()
    state = init_adam(model, learning_rate=0.05)
    adam_step(state, model, grad_like(model, 0.0))
    assert np.array_equal(model.flat, before)
    assert state.step == 1


def test_single_step_matches_hand_trace():
    model = scalar_model(1.0)
    state = init_adam(model, learning_rate=0.01)
    adam_step(state, model, grad_like(model, 2.5))
    want = hand_adam(1.0, [2.5], lr=0.01)
    assert model.weights[0][0, 0] == pytest.approx(want, rel=1e-15)
    # First-step delta is ~ -lr * sign(g) once bias correction cancels.
    assert model.weights[0][0, 0] == pytest.approx(1.0 - 0.01 * 2.5 / (2.5 + 1e-8))


def test_two_steps_match_hand_trace():
    model = scalar_model(-0.3)
    state = init_adam(model, learning_rate=0.02)
    adam_step(state, model, grad_like(model, 1.7))
    adam_step(state, model, grad_like(model, -0.4))
    want = hand_adam(-0.3, [1.7, -0.4], lr=0.02)
    assert model.weights[0][0, 0] == pytest.approx(want, rel=1e-14)
    assert state.step == 2


def test_init_adam_validation():
    model = scalar_model(0.0)
    with pytest.raises(ConfigError):
        init_adam(model, learning_rate=0.0)


def test_adam_step_rejects_non_finite_gradients():
    model = scalar_model(0.0)
    state = init_adam(model)
    with pytest.raises(TrainingDiverged):
        adam_step(state, model, grad_like(model, np.nan))
    assert state.step == 0  # accumulators were not poisoned


def test_adam_step_rejects_mismatched_shapes():
    model = init_model([2, 4, 3], seed=0)
    state = init_adam(model)
    other = init_model([2, 5, 3], seed=0)
    bad = FeedForwardModel(other.layer_sizes, np.zeros_like(other.flat))
    with pytest.raises(ShapeError):
        adam_step(state, model, bad)
    shorter = FeedForwardModel((2, 4), np.zeros(12))
    with pytest.raises(ShapeError):
        adam_step(state, model, shorter)


def test_identical_runs_are_bit_identical():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    cfg = LossConfig()

    def run():
        model = init_model([2, 6, 3], seed=42)
        state = init_adam(model, learning_rate=0.01)
        for _ in range(25):
            _, grads = backward(model, x, y, cfg)
            adam_step(state, model, grads)
            state.learning_rate *= 0.999
        return model

    a, b = run(), run()
    assert np.array_equal(a.flat, b.flat)
