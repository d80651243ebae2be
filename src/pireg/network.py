"""Dense feed-forward networks with hand-written reverse-mode gradients.

The model is a plain stack of affine layers with rectifier activations on
the hidden layers and an identity head.  Interval models end in a 3-unit
head read as (upper, lower, mix-logit); mean-variance models end in a
2-unit head read as (mean, raw-variance).  Everything is float64 numpy;
no computation graph, just cached activations and explicit backprop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, ShapeError, TrainingDiverged
from .losses import LossConfig, PIOutput, gaussian_link, head_loss_and_grad, pi_output

INTERVAL_HEAD = 3
GAUSSIAN_HEAD = 2


@dataclass
class FeedForwardModel:
    """Layered dense network: weights[i] is (fan_in, fan_out), biases[i] is (fan_out,)."""

    layer_sizes: Tuple[int, ...]
    weights: List[np.ndarray]
    biases: List[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self):
        """Weights and biases interleaved per layer, in a fixed order."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


@dataclass
class GradientSet:
    """Partial derivatives of a scalar loss, shaped exactly like the model."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def _validate_sizes(layer_sizes):
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ConfigError(f"need at least input and output layers, got {layer_sizes}")
    for s in sizes:
        if s < 1:
            raise ConfigError(f"layer sizes must be positive, got {layer_sizes}")
    return sizes


def _init_layers(sizes, seed):
    # Symmetric uniform scaled by fan-in (He-style bound for rectifiers);
    # hidden biases start at zero so a zero input propagates to exactly the
    # head biases through rectifier layers.
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def init_model(layer_sizes, seed, head_bias_init=(3.0, -3.0)):
    """Build an interval network whose 3-unit head starts at the given bounds.

    The upper-bound bias starts at head_bias_init[0] and the lower-bound bias
    at head_bias_init[1] (in normalized-target units) so that the initial
    intervals are wide enough to capture essentially all standardized
    targets; the mixing head starts at logit 0, i.e. an even split.
    """
    sizes = _validate_sizes(layer_sizes)
    if sizes[-1] != INTERVAL_HEAD:
        raise ConfigError(f"interval models need a 3-unit output layer, got {sizes[-1]}")
    u0, l0 = float(head_bias_init[0]), float(head_bias_init[1])
    weights, biases = _init_layers(sizes, seed)
    biases[-1] = np.array([u0, l0, 0.0])
    return FeedForwardModel(sizes, weights, biases)


def init_mean_variance_model(layer_sizes, seed):
    """Build a 2-unit-head network read as (mean, raw-variance)."""
    sizes = _validate_sizes(layer_sizes)
    if sizes[-1] != GAUSSIAN_HEAD:
        raise ConfigError(f"mean-variance models need a 2-unit output layer, got {sizes[-1]}")
    weights, biases = _init_layers(sizes, seed)
    return FeedForwardModel(sizes, weights, biases)


def _check_features(model, features):
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"features must be an (n, d) matrix, got shape {x.shape}")
    if x.shape[1] != model.input_dim:
        raise ShapeError(f"model expects {model.input_dim} features, got {x.shape[1]}")
    return x


def _forward_cached(model, x):
    # Returns the raw head matrix plus per-layer (pre-activation, activation)
    # caches; the final layer is identity so raw == its pre-activation.
    activations = [x]
    pre = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return a, pre, activations


def forward_raw(model, features):
    """Raw head matrix (n, output_dim) with no link functions applied."""
    x = _check_features(model, features)
    return _forward_cached(model, x)[0]


def forward(model, features) -> PIOutput:
    """Interval prediction for every row: upper, lower, mixing weight, value."""
    if model.output_dim != INTERVAL_HEAD:
        raise ShapeError(f"interval forward needs a 3-unit head, model has {model.output_dim}")
    return pi_output(forward_raw(model, features))


def forward_gaussian(model, features):
    """(mean, variance) per row for a mean-variance model."""
    if model.output_dim != GAUSSIAN_HEAD:
        raise ShapeError(f"gaussian forward needs a 2-unit head, model has {model.output_dim}")
    return gaussian_link(forward_raw(model, features))


def loss_value(model, features, targets, cfg: LossConfig) -> float:
    """Scalar loss of the configured variant on one batch; no gradients."""
    raw = forward_raw(model, features)
    return head_loss_and_grad(raw, np.asarray(targets, dtype=float), cfg)[0]


def backward(model, features, targets, cfg: LossConfig):
    """Loss plus exact analytic gradients for every weight and bias.

    Reverse-mode accumulation: the loss module supplies d(loss)/d(raw head)
    and this routine chains it through the affine/rectifier stack.
    """
    x = _check_features(model, features)
    y = np.asarray(targets, dtype=float)
    if x.shape[0] < 1:
        raise ShapeError("batch must be non-empty")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"{x.shape[0]} rows but {y.shape[0]} targets")

    raw, pre, activations = _forward_cached(model, x)
    loss, delta = head_loss_and_grad(raw, y, cfg)
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss!r}")

    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0.0)
    return loss, GradientSet(grad_w, grad_b)
