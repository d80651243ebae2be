"""Mini-batch training of ensembles as one stack, with early stopping.

All members train together: their parameters sit in one (members,
n_params) buffer (see :mod:`pireg.network`), so each step is one stacked
forward and backward pass and one fused Adam update, and a member that
stops early leaves the stack.  The stack may hold several groups of
ensemble_size members, one per split of a benchmark, each group with its
own training rows of a common size, validation copy and base seed; each
batch gather and validation pass reads every member's rows from its own
group.  Member j of a group keeps everything it would have trained alone:
its init seed base_seed + j, its own shuffle stream, its best-score
snapshot, patience counter and history.  Every per-member quantity is
computed by the same arithmetic as for a single model, so the result is
bit-identical to training the members one after another, group by group.

Each epoch shuffles every member's rows with its own seeded stream, walks
the batches, then scores the validation set.  The best-validation
parameters are kept and restored at the end, so each member's row of the
returned stack is its early-stopping winner, not its last iterate.
Non-finite losses or gradients fail the member's group with the
member/epoch/batch context attached, and the other groups train on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import ExperimentConfig
from .data import Dataset, NormalizedRows
from .errors import ShapeError, TrainingDiverged
from .losses import initial_head
from .network import (STACK_FORWARD_BYTES, FeedForwardModel, _first_bad, _stack_bytes, backward,
                      init_model, loss_value)
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


def _blocks(active, size):
    # (group, first row, end row) of each group's run of stack rows.  Member
    # s * size + j is group s's member j, and rows keep member order.
    blocks, lo = [], 0
    for group, run in itertools.groupby(active, lambda member: member // size):
        hi = lo + len(list(run))
        blocks.append((group, lo, hi))
        lo = hi
    return blocks


def _stacked(parts):
    # One array over the stack's rows from its groups' parts, in row order.
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _validation_loss(stack, blocks, valids, cfg):
    # Each member's loss on its own group's validation copy.  While the
    # stack's activations fit in STACK_FORWARD_BYTES, one pass reads every
    # group's copy repeated for its members; above that, one pass per group
    # reads the group's copy, which ``forward`` takes one member at a time.
    if len(blocks) > 1 and _stack_bytes(stack, valids[0].n) <= STACK_FORWARD_BYTES:
        x, y = (np.concatenate([np.repeat(getattr(valids[s], name)[None], hi - lo, axis=0)
                                for s, lo, hi in blocks])
                for name in ("features", "targets"))
        return loss_value(stack, x, y, cfg)
    return _stacked([loss_value(FeedForwardModel(stack.layer_sizes, stack.flat[lo:hi]),
                                valids[s].features, valids[s].targets, cfg)
                     for s, lo, hi in blocks])


_Rows = Union[Dataset, NormalizedRows]


def train_ensemble(config: ExperimentConfig, train: Union[_Rows, Sequence[_Rows]],
                   valid: Union[Optional[Dataset], Sequence[Optional[Dataset]]], base_seed):
    """Train ensemble_size members with seeds base_seed + j, as one stack.

    ``train``, ``valid`` and ``base_seed`` are one group: a split's training
    rows, its validation copy (or None) and its base seed.  Equal-length
    lists of them, one entry per group, train every group's members in the
    same stack; the groups must hold equally many training and validation
    rows.  The training rows are read a batch at a time, as
    ``train.features[idx]`` and ``train.targets[idx]`` for a (members,
    batch) index array ``idx``, so ``train`` may be a ``Dataset`` or a
    ``NormalizedRows``, which standardizes each batch as it gathers it;
    ``valid`` is scored whole.

    One group gives one stacked model, whose (ensemble_size, n_params)
    buffer holds member j's best-validation parameters in row j, and each
    member's history.  With no validation set the epoch-mean training loss
    drives early stopping instead.  patience=0 stops at the first epoch
    that fails to improve.  A list of groups gives a list with one entry
    per group: that (stack, histories) pair, or the ``TrainingDiverged``
    the group raises when trained alone.

    If member j of a group diverges, the group's members j and above leave
    the stack and the rest train on; j's error is the group's once they
    finish, unless a lower member of the group diverges too.  That is the
    error the group's members would raise trained one after another.
    """
    grouped = isinstance(train, (list, tuple))
    if grouped and not len(train) == len(valid) == len(base_seed):
        raise ShapeError(f"{len(train)} training sets, {len(valid)} validation sets "
                         f"and {len(base_seed)} base seeds")
    outcomes = _train_groups(config, list(zip(train, valid, base_seed)) if grouped
                             else [(train, valid, base_seed)])
    if grouped:
        return outcomes
    if isinstance(outcomes[0], TrainingDiverged):
        raise outcomes[0]
    return outcomes[0]


def _train_groups(config, groups):
    opt, size = config.optimizer, config.ensemble_size
    trains = [t for t, _, _ in groups]
    valids = [None if v is None or v.n == 0 else v for _, v, _ in groups]
    shapes = {(t.n, t.dim, 0 if v is None else v.n) for t, v in zip(trains, valids)}
    if len(shapes) > 1:
        raise ShapeError(f"groups of unequal (rows, features, validation rows) {sorted(shapes)}")
    n, dim, n_valid = shapes.pop()
    seeds = [base_seed + j for _, _, base_seed in groups for j in range(size)]
    members = [build_model(config, dim, seed) for seed in seeds]
    stack = FeedForwardModel(members[0].layer_sizes, np.stack([m.flat for m in members]))
    state = init_adam(stack, opt)
    shuffles = [np.random.default_rng([seed, 1]) for seed in seeds]
    histories = [TrainingHistory() for _ in seeds]
    best_flat = stack.flat.copy()
    best = [np.inf] * len(seeds)
    bad = [0] * len(seeds)
    active = list(range(len(seeds)))  # the member in each stack row
    blocks = _blocks(active, size)
    failures = [None] * len(groups)

    starts = range(0, n, opt.batch_size)
    perm = np.empty((len(seeds), n), dtype=np.intp)
    # Every loss, gradient and validation score is checked for non-finite
    # values below, so numpy's own warnings about them would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, opt.max_epochs + 1):
            if not active:
                break
            # Shuffling arange(n) in place is Generator.permutation(n), draw for draw.
            perm[:len(active)] = np.arange(n)
            for k, j in enumerate(active):
                shuffles[j].shuffle(perm[k])
            # One contiguous row of batch losses per member, so each member's
            # epoch mean sums in the order a lone model's would.
            losses = np.empty((len(active), len(starts)))
            for batch_index, start in enumerate(starts):
                while active:
                    idx = perm[:len(active), start:start + opt.batch_size]
                    try:
                        x = _stacked([trains[s].features[idx[lo:hi]] for s, lo, hi in blocks])
                        y = _stacked([trains[s].targets[idx[lo:hi]] for s, lo, hi in blocks])
                        loss, grads = backward(stack, x, y, config.loss)
                        adam_step(state, stack, grads)
                    except TrainingDiverged as exc:
                        member = active[exc.member]
                        group = member // size
                        failures[group] = _diverged(
                            member % size, f"diverged at epoch {epoch}, batch {batch_index}: "
                            f"{exc}", exc, epoch, batch_index)
                        rows = [k for k, m in enumerate(active) if m // size != group or m < member]
                        perm[:len(rows)] = perm[rows]
                        losses = losses[rows]
                        active = [active[k] for k in rows]
                        blocks = _blocks(active, size)
                        stack = _keep(stack, state, rows)
                        continue
                    losses[:, batch_index] = loss
                    break
            if not active:
                break
            epoch_loss = losses.sum(axis=-1) / len(starts)

            if n_valid:
                score = _validation_loss(stack, blocks, valids, config.loss)
            else:
                score = epoch_loss
            finite = np.isfinite(score)
            stays = np.ones(len(active), dtype=bool)
            for group, lo, hi in blocks:
                if not finite[lo:hi].all():
                    k = lo + _first_bad(finite[lo:hi])
                    failures[group] = _diverged(
                        active[k] % size, f"non-finite validation loss {float(score[k])!r} "
                        f"at epoch {epoch}", None, epoch)
                    stays[k:hi] = False

            rows = []
            epoch_losses, scores = epoch_loss.tolist(), score.tolist()
            for k in np.flatnonzero(stays).tolist():
                j = active[k]
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
                blocks = _blocks(active, size)
                stack = _keep(stack, state, rows)
            state.learning_rate *= opt.decay

    return [failures[s] if failures[s] is not None else
            (FeedForwardModel(stack.layer_sizes, best_flat[s * size:(s + 1) * size]),
             histories[s * size:(s + 1) * size])
            for s in range(len(groups))]


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
