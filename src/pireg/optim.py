"""Adam optimizer.

The moments are flat buffers shaped like the model's ``flat`` parameter
buffer, leading member axes included, so one step is a single fused
element-wise update over every parameter of every stacked member.  The
moment factors and the denominator guard are the usual Adam constants
``BETA1``, ``BETA2`` and ``EPS``; only the learning rate is set here.  Its
per-epoch exponential decay is ``OptimizerSpec.decay``, which the trainer
applies to ``AdamState.learning_rate`` at each epoch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, TrainingDiverged
from .network import FeedForwardModel, _first_bad

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Moment accumulators shaped like model.flat, plus the step counter.

    The trainer decays learning_rate at epoch boundaries.  Stacked members
    share the step counter and the learning rate, since they step in
    lock-step.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int
    learning_rate: float


def init_adam(model: FeedForwardModel, learning_rate=0.01) -> AdamState:
    if learning_rate <= 0.0:
        raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
    return AdamState(
        first_moment=np.zeros_like(model.flat),
        second_moment=np.zeros_like(model.flat),
        step=0,
        learning_rate=float(learning_rate),
    )


def adam_step(state: AdamState, model: FeedForwardModel, grads: FeedForwardModel):
    """One bias-corrected Adam update, in place; returns (model, state).

    update = lr * m_hat / (sqrt(v_hat) + eps), with the usual 1 - beta^t
    corrections.  Raises on non-finite gradients rather than poisoning the
    accumulators; in a stack, ``member`` names the first such member.
    """
    p, g = model.flat, grads.flat
    if grads.layer_sizes != model.layer_sizes or g.shape != p.shape \
            or state.first_moment.shape != p.shape:
        raise ShapeError(f"gradient {grads.layer_sizes} {g.shape} does not match "
                         f"model {model.layer_sizes} {p.shape}")
    finite = np.all(np.isfinite(g), axis=-1)
    if not np.all(finite):
        raise TrainingDiverged("non-finite gradient", member=_first_bad(finite))

    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    m, v = state.first_moment, state.second_moment
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + EPS)
    return model, state
