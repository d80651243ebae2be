"""Mini-batch training of an ensemble as one stack, with early stopping.

All M members train together: their parameters sit in one (M, n_params)
buffer (see :mod:`pireg.network`), so each step is one stacked forward and
backward pass and one fused Adam update, and a member that stops early
leaves the stack.  Member j keeps everything it would have trained alone:
its init seed base_seed + j, its own shuffle stream, its best-score
snapshot, patience counter and history.  Every per-member quantity is
computed by the same arithmetic as for a single model, so the result is
bit-identical to training the members one after another.

Each epoch shuffles every member's rows with its own seeded stream, walks
the batches, then scores the validation set.  The best-validation
parameters are kept and restored at the end, so each member's row of the
returned stack is its early-stopping winner, not its last iterate.
Non-finite losses or gradients abort with the member/epoch/batch context
attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .config import ExperimentConfig
from .data import Dataset, NormalizedRows
from .errors import TrainingDiverged
from .losses import initial_head
from .network import FeedForwardModel, _first_bad, backward, init_model, loss_value
from .optim import adam_step, init_adam


@dataclass
class TrainingHistory:
    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    epochs_run: int = 0


def build_model(config: ExperimentConfig, input_dim: int, seed) -> FeedForwardModel:
    """Fresh model of the right head shape for the configured variant."""
    head = initial_head(config.loss.variant, config.model.head_bias)
    return init_model([input_dim, *config.model.hidden_sizes, len(head)], seed, head)


def _diverged(member, message, cause, epoch, batch_index=None):
    error = TrainingDiverged(f"member {member}: {message}", epoch=epoch,
                             batch_index=batch_index, member=member)
    error.__cause__ = cause
    return error


def _keep(stack, state, rows):
    # The stack and its optimizer state restricted to the given member rows.
    state.first_moment = state.first_moment[rows]
    state.second_moment = state.second_moment[rows]
    return FeedForwardModel(stack.layer_sizes, stack.flat[rows])


def train_ensemble(config: ExperimentConfig, train: Union[Dataset, NormalizedRows],
                   valid: Optional[Dataset], base_seed
                   ) -> Tuple[FeedForwardModel, List[TrainingHistory]]:
    """Train ensemble_size members with seeds base_seed + j, as one stack.

    The training rows are read a batch at a time, as ``train.features[idx]``
    and ``train.targets[idx]`` for a (members, batch) index array ``idx``, so
    ``train`` may be a ``Dataset`` or a ``NormalizedRows``, which
    standardizes each batch as it gathers it; ``valid`` is scored whole.

    Returns one stacked model, whose (ensemble_size, n_params) buffer holds
    member j's best-validation parameters in row j, and each member's
    history.  With no validation set the epoch-mean training loss drives
    early stopping instead.  patience=0 stops at the first epoch that fails
    to improve.

    If member j diverges, members j and above leave the stack and the lower
    ones train on; j's error is raised once they finish, unless a lower
    member diverges too.  That is the error the members would raise trained
    one after another.
    """
    opt = config.optimizer
    seeds = [base_seed + j for j in range(config.ensemble_size)]
    members = [build_model(config, train.dim, seed) for seed in seeds]
    stack = FeedForwardModel(members[0].layer_sizes, np.stack([m.flat for m in members]))
    state = init_adam(stack, opt)
    shuffles = [np.random.default_rng([seed, 1]) for seed in seeds]
    histories = [TrainingHistory() for _ in seeds]
    best_flat = stack.flat.copy()
    best = [np.inf] * len(seeds)
    bad = [0] * len(seeds)
    active = list(range(len(seeds)))  # the member in each stack row
    failure = None

    x, y = train.features, train.targets
    starts = range(0, train.n, opt.batch_size)
    perm = np.empty((len(seeds), train.n), dtype=np.intp)
    for epoch in range(1, opt.max_epochs + 1):
        if not active:
            break
        # Shuffling arange(n) in place is Generator.permutation(n), draw for draw.
        perm[:len(active)] = np.arange(train.n)
        for k, j in enumerate(active):
            shuffles[j].shuffle(perm[k])
        # One contiguous row of batch losses per member, so each member's
        # epoch mean sums in the order a lone model's would.
        losses = np.empty((len(active), len(starts)))
        for batch_index, start in enumerate(starts):
            while active:
                idx = perm[:len(active), start:start + opt.batch_size]
                try:
                    loss, grads = backward(stack, x[idx], y[idx], config.loss)
                    adam_step(state, stack, grads)
                except TrainingDiverged as exc:
                    k = exc.member
                    failure = _diverged(active[k], f"diverged at epoch {epoch}, "
                                        f"batch {batch_index}: {exc}", exc, epoch, batch_index)
                    active = active[:k]
                    stack = _keep(stack, state, slice(k))
                    continue
                losses[:len(active), batch_index] = loss
                break
        if not active:
            break
        epoch_loss = losses[:len(active)].sum(axis=-1) / len(starts)

        if valid is not None and valid.n > 0:
            score = loss_value(stack, valid.features, valid.targets, config.loss)
        else:
            score = epoch_loss
        if not np.isfinite(score).all():
            k = _first_bad(np.isfinite(score))
            failure = _diverged(active[k], f"non-finite validation loss {float(score[k])!r} "
                                f"at epoch {epoch}", None, epoch)
            active = active[:k]
            stack = _keep(stack, state, slice(k))

        rows = []
        epoch_losses, scores = epoch_loss.tolist(), score.tolist()
        for k, j in enumerate(active):
            history = histories[j]
            history.train_loss.append(epoch_losses[k])
            history.val_loss.append(scores[k])
            history.epochs_run = epoch
            if scores[k] < best[j]:
                best[j] = scores[k]
                best_flat[j] = stack.flat[k]
                bad[j] = 0
            else:
                bad[j] += 1
                if bad[j] > opt.patience:
                    continue
            rows.append(k)
        if len(rows) < len(active):
            active = [active[k] for k in rows]
            stack = _keep(stack, state, rows)
        state.learning_rate *= opt.decay

    if failure is not None:
        raise failure
    return FeedForwardModel(stack.layer_sizes, best_flat), histories


def carve_validation(rows, fraction: float, seed, split_index: int
                     ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Split a validation chunk off the training row indices, deterministically.

    Returns (train, validation) index arrays drawn from ``rows``, or
    (``rows``, None) when no validation is carved.  No row is copied.
    """
    rows = np.asarray(rows)
    if fraction <= 0.0 or len(rows) < 2:
        return rows, None
    rng = np.random.default_rng([seed, split_index, 101])
    perm = rng.permutation(len(rows))
    n_val = max(1, int(round(fraction * len(rows))))
    n_val = min(n_val, len(rows) - 1)
    return rows[perm[n_val:]], rows[perm[:n_val]]
