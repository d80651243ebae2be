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
parameters are kept and restored at the end, so each returned model is the
early-stopping winner, not the last iterate.  Non-finite losses or
gradients abort with the member/epoch/batch context attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .config import ExperimentConfig
from .data import Dataset
from .errors import TrainingDiverged
from .network import (FeedForwardModel, backward, init_mean_variance_model,
                      init_model, loss_value)
from .optim import adam_step, init_adam


@dataclass
class TrainingHistory:
    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    best_epoch: int = 0
    epochs_run: int = 0


def build_model(config: ExperimentConfig, input_dim: int, seed) -> FeedForwardModel:
    """Fresh model of the right head shape for the configured variant."""
    hidden = list(config.model.hidden_sizes)
    if config.loss.variant == "gaussian_nll":
        return init_mean_variance_model([input_dim] + hidden + [2], seed)
    return init_model([input_dim] + hidden + [3], seed, config.model.head_bias)


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


def train_ensemble(config: ExperimentConfig, train: Dataset, valid: Optional[Dataset],
                   base_seed) -> Tuple[List[FeedForwardModel], List[TrainingHistory]]:
    """Train ensemble_size members with seeds base_seed + j, as one stack.

    Returns each member's best-validation parameters and its history.  With
    no validation set the epoch-mean training loss drives early stopping
    instead.  patience=0 stops at the first epoch that fails to improve.

    If member j diverges, members j and above leave the stack and the lower
    ones train on; j's error is raised once they finish, unless a lower
    member diverges too.  That is the error the members would raise trained
    one after another.
    """
    opt = config.optimizer
    seeds = [base_seed + j for j in range(config.ensemble_size)]
    members = [build_model(config, train.dim, seed) for seed in seeds]
    stack = FeedForwardModel(members[0].layer_sizes, np.stack([m.flat for m in members]))
    state = init_adam(stack, opt.learning_rate)
    shuffles = [np.random.default_rng([seed, 1]) for seed in seeds]
    histories = [TrainingHistory() for _ in seeds]
    best_flat = stack.flat.copy()
    best = [np.inf] * len(seeds)
    bad = [0] * len(seeds)
    active = list(range(len(seeds)))  # the member in each stack row
    failure = None

    x, y = train.features, train.targets
    starts = range(0, train.n, opt.batch_size)
    for epoch in range(1, opt.max_epochs + 1):
        if not active:
            break
        perm = np.stack([shuffles[j].permutation(train.n) for j in active])
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
        epoch_loss = np.mean(losses[:len(active)], axis=-1)

        if valid is not None and valid.n > 0:
            score = loss_value(stack, valid.features, valid.targets, config.loss)
        else:
            score = epoch_loss
        finite = np.isfinite(score)
        if not np.all(finite):
            k = int(np.flatnonzero(~finite)[0])
            failure = _diverged(active[k], f"non-finite validation loss {float(score[k])!r} "
                                f"at epoch {epoch}", None, epoch)
            active = active[:k]
            stack = _keep(stack, state, slice(k))

        rows = []
        for k, j in enumerate(active):
            history = histories[j]
            history.train_loss.append(float(epoch_loss[k]))
            history.val_loss.append(float(score[k]))
            history.epochs_run = epoch
            if score[k] < best[j]:
                best[j] = score[k]
                best_flat[j] = stack.flat[k]
                history.best_epoch = epoch
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
    return [FeedForwardModel(stack.layer_sizes, row) for row in best_flat], histories


def carve_validation(train: Dataset, fraction: float, seed, split_index: int
                     ) -> Tuple[Dataset, Optional[Dataset]]:
    """Split a validation chunk off the training rows, deterministically."""
    if fraction <= 0.0 or train.n < 2:
        return train, None
    rng = np.random.default_rng([seed, split_index, 101])
    perm = rng.permutation(train.n)
    n_val = max(1, int(round(fraction * train.n)))
    n_val = min(n_val, train.n - 1)
    return train.take(perm[n_val:]), train.take(perm[:n_val])
