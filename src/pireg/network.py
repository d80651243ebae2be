"""Dense feed-forward networks with hand-written reverse-mode gradients.

The model is a plain stack of affine layers with rectifier activations on
the hidden layers and an identity head.  ``init_model`` takes the head's
starting biases, one per unit; :mod:`pireg.losses` alone decides them, and
so the head width, from the variant (``initial_head``).  ``forward``
returns the head raw, as a (..., n, k) array, and the losses module alone
reads its columns, for the loss and its head gradient during training and
for the bounds and value at inference.  Everything is float64 numpy; no
computation graph, just cached activations and explicit backprop.

Parameters live in one flat buffer per model, ``flat``, whose last axis
holds w0, b0, w1, b1, ... and whose leading axes, if any, index ensemble
members trained as one stack; ``weights`` and ``biases`` are per-layer
views into it.  ``backward`` returns the gradients as a FeedForwardModel
too, over a buffer of the same layout, so gradient and parameter line up
entry for entry.  Every pass is written over trailing axes, so the same
arithmetic serves one model and a stack of M: a stack's weights are
(M, fan_in, fan_out), its features (M, n, d) or one shared (n, d) matrix,
and its loss a length-M vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, ShapeError, TrainingDiverged
from .losses import LossConfig, head_loss_and_grad


def _parameter_count(layer_sizes) -> int:
    """Length of one member's flat parameter vector."""
    return sum(a * b + b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


@dataclass
class FeedForwardModel:
    """Layered dense network over one flat parameter buffer.

    flat is (..., n_params); weights[i] is a (..., fan_in, fan_out) view
    into it and biases[i] a (..., fan_out) view, so writing through either
    changes the buffer.
    """

    layer_sizes: Tuple[int, ...]
    flat: np.ndarray
    weights: List[np.ndarray] = field(init=False, repr=False)
    biases: List[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape[-1:] != (_parameter_count(self.layer_sizes),):
            raise ShapeError(f"{self.flat.shape} parameter buffer does not fit "
                             f"layers {self.layer_sizes}")
        lead = self.flat.shape[:-1]
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            end = offset + fan_in * fan_out
            self.weights.append(self.flat[..., offset:end].reshape(lead + (fan_in, fan_out)))
            self.biases.append(self.flat[..., end:end + fan_out])
            offset = end + fan_out


def init_model(layer_sizes, seed, head_bias):
    """Build a network whose head biases start at ``head_bias``, one per unit.

    Weights are symmetric uniform scaled by fan-in (He-style bound for
    rectifiers); hidden biases start at zero, so a zero input propagates to
    exactly the head biases through rectifier layers.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or min(sizes) < 1:
        raise ConfigError(f"need input and output layers of positive size, got {layer_sizes}")
    if len(head_bias) != sizes[-1]:
        raise ConfigError(f"{len(head_bias)} head biases for a {sizes[-1]}-unit output layer")
    rng = np.random.default_rng(seed)
    model = FeedForwardModel(sizes, np.zeros(_parameter_count(sizes)))
    for w in model.weights:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    model.biases[-1][...] = head_bias
    return model


def _check_features(model, features):
    x = np.asarray(features, dtype=float)
    if x.ndim < 2:
        raise ShapeError(f"features must be an (n, d) matrix, got shape {x.shape}")
    if x.shape[-1] != model.layer_sizes[0]:
        raise ShapeError(f"model expects {model.layer_sizes[0]} features, got {x.shape[-1]}")
    return x


def _forward_cached(model, x):
    # Returns the raw head matrix plus every layer's input activation; the
    # final layer is identity.  Adds and rectifiers run in place: for a
    # stack, each temporary is M times larger and costs more to allocate
    # than to fill.  A rectified unit is active exactly where its
    # pre-activation is positive, so the activations alone drive backward.
    # A layer with one input unit runs its k = 1 product through einsum, at a
    # third of the gemm's cost on training batches.  Both add each product to
    # a zeroed output, so they agree bit for bit (a * w gives -0.0 for +0.0).
    activations = [x]
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = np.einsum("...ik,...kj->...ij", a, w) if w.shape[-2] == 1 else a @ w
        a += b[..., None, :]
        if i < last:
            np.maximum(a, 0.0, out=a)
            activations.append(a)
    return a, activations


# A stack whose hidden activations would take more bytes than this is
# forwarded one member at a time, so prediction and validation on many rows
# hold one member's activations, not all M members'.
STACK_FORWARD_BYTES = 2 ** 21


def _stack_bytes(model, rows):
    # Bytes of a stack's hidden activations on ``rows`` rows per member.
    return len(model.flat) * rows * sum(model.layer_sizes[1:-1]) * 8


def forward(model, features):
    """Raw head (..., n, k) with no link functions applied; k = layer_sizes[-1].

    A stack of M members reads one shared (n, d) matrix, an (M, n, d) array
    or a list of M (n, d) matrices.  It is forwarded in one call while its
    hidden activations fit in STACK_FORWARD_BYTES, and one member at a time
    on its own rows above that, so a list is stacked only below it.  Both
    give the same bits: a stacked product is one gemm per member.
    """
    if isinstance(features, list):
        x = [_check_features(model, f) for f in features]
        if len(x) != len(model.flat) or len({f.shape for f in x}) > 1:
            raise ShapeError(f"{len(model.flat)} members but rows {[f.shape for f in x]}")
        rows, own_rows = x[0].shape[-2], True
    else:
        x = _check_features(model, features)
        rows, own_rows = x.shape[-2], x.ndim == 3
    if model.flat.ndim == 2 and _stack_bytes(model, rows) > STACK_FORWARD_BYTES:
        return np.stack([_forward_cached(FeedForwardModel(model.layer_sizes, flat),
                                         x[j] if own_rows else x)[0]
                         for j, flat in enumerate(model.flat)])
    return _forward_cached(model, np.stack(x) if isinstance(x, list) else x)[0]


def loss_value(model, features, targets, cfg: LossConfig):
    """Loss of the configured variant on one batch, one per member.

    ``features`` as ``forward`` reads them, ``targets`` (n,), (M, n) or a
    list of M (n,) vectors.  The loss-only pass of ``head_loss_and_grad``:
    ``backward``'s loss, bit for bit, with no gradient built.
    """
    y = np.stack(targets) if isinstance(targets, list) else targets
    return head_loss_and_grad(forward(model, features), y, cfg, gradient=False)[0]


def _first_bad(finite):
    # Stack position of the first member whose value is not finite.
    return int(np.flatnonzero(~finite)[0])


def backward(model, features, targets, cfg: LossConfig):
    """Loss plus exact analytic gradients for every weight and bias.

    Reverse-mode accumulation: the loss module supplies d(loss)/d(raw head)
    and this routine chains it through the affine/rectifier stack.  A
    non-finite loss raises with ``member`` set to the first such member's
    position in a stack.
    """
    x = _check_features(model, features)
    y = np.asarray(targets, dtype=float)
    if x.shape[:-1] != y.shape:
        raise ShapeError(f"{x.shape[:-1]} rows but {y.shape} targets")

    raw, activations = _forward_cached(model, x)
    loss, delta = head_loss_and_grad(raw, y, cfg)
    if not np.isfinite(loss).all():
        k = _first_bad(np.isfinite(loss))
        raise TrainingDiverged(f"non-finite loss {float(loss.flat[k])!r}", member=k)

    grads = FeedForwardModel(model.layer_sizes, np.empty_like(model.flat))
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=grads.weights[i])
        delta.sum(axis=-2, out=grads.biases[i])
        if i > 0:
            # The layer's activations are dead once their rectifier mask is
            # taken, so the propagated delta overwrites them.
            active = activations[i] > 0.0
            delta = np.matmul(delta, model.weights[i].swapaxes(-1, -2), out=activations[i])
            delta *= active
    return loss, grads
