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
the batches, then scores the validation set in one ``loss_value`` call,
each member reading its own group's copy; ``network.forward`` alone
decides whether the stack meets those rows in one pass or member by
member.  The best-validation parameters are kept and restored at the end,
so each member's row of the returned stack is its early-stopping winner,
not its last iterate.  A member whose batch loss, gradient or validation
score is non-finite fails by one rule: its group records the error with
the member/epoch/batch context attached, it and the group's higher
members leave the stack, and everyone else trains on.

Several groups spread over the CPUs this process may use: they split into
contiguous chunks of near-equal size, one per CPU, and the calling process
trains the first chunk while a forked child trains each other one through
the same code.  Since a group trains alike in any stack, the outcomes are
the ones one stack gives, bit for bit.  Training stays in process for one
group, for one CPU (a platform without os.sched_getaffinity, which every
platform that cannot fork lacks, counts as one), with other Python threads
alive, and when forking would not pay: work below FORK_MIN_WORK, or
a matrix product above FORK_MAX_PRODUCT, where BLAS threads contend.  The
children assume a BLAS that survives a fork, which was checked with
pthreads OpenBLAS only; ``taskset -c 0`` keeps every group in process.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import ExperimentConfig
from .data import Dataset, NormalizedRows
from .errors import ShapeError, TrainingDiverged
from .losses import initial_head
from .network import FeedForwardModel, backward, init_model, loss_value
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


# The one failure rule: a failing member's group records its error, and the
# member and the group's higher members leave.  Lower members train on, and
# a failure of one of them becomes the group's error.
def _fail(failures, size, member, message, cause, epoch, batch_index=None):
    error = TrainingDiverged(f"member {member % size}: {message}", epoch=epoch,
                             batch_index=batch_index, member=member % size)
    error.__cause__ = cause
    failures[member // size] = error


def _failed(failures, size, member):
    error = failures[member // size]
    return error is not None and member % size >= error.member


def _keep(stack, state, active, rows):
    # The members at the given stack rows, and the stack and its optimizer
    # state restricted to them.
    state.first_moment = state.first_moment[rows]
    state.second_moment = state.second_moment[rows]
    return [active[k] for k in rows], FeedForwardModel(stack.layer_sizes, stack.flat[rows])


def _batch(trains, active, idx, size):
    # The stack's (features, targets) batch for the (rows, batch) index
    # array ``idx``: each group's run of stack rows gathers its members' rows
    # from the group's training set in one call.  Member s * size + j is
    # group s's member j, and rows keep member order.
    parts, lo = [], 0
    for group, run in itertools.groupby(active, lambda member: member // size):
        hi = lo + len(list(run))
        parts.append((trains[group].features[idx[lo:hi]], trains[group].targets[idx[lo:hi]]))
        lo = hi
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


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

    If member j of a group diverges, on a batch or on its validation score,
    the group's members j and above leave the stack and the rest train on;
    j's error is the group's once they finish, unless a lower member of the
    group diverges too.  That is the error the group's members would raise
    trained one after another.

    Groups may train in forked workers (see the module docstring).  Any
    other exception a worker raises is raised here, as a ``RuntimeError``
    holding the worker's traceback when it does not pickle, and no worker
    outlives the call.
    """
    grouped = isinstance(train, (list, tuple))
    if grouped and not len(train) == len(valid) == len(base_seed):
        raise ShapeError(f"{len(train)} training sets, {len(valid)} validation sets "
                         f"and {len(base_seed)} base seeds")
    groups = list(zip(train, valid, base_seed)) if grouped else [(train, valid, base_seed)]
    shape = _shape(groups)
    k = _workers(config, len(groups), shape)
    if k == 1:
        outcomes = _train_groups(config, groups, shape)
    else:
        outcomes = _train_forked(config, shape, [
            groups[len(groups) * i // k:len(groups) * (i + 1) // k] for i in range(k)])
    if grouped:
        return outcomes
    if isinstance(outcomes[0], TrainingDiverged):
        raise outcomes[0]
    return outcomes[0]


# Forking pays only above this much work, in members x max_epochs x training
# rows.  Five groups of five members on 81 rows of sine (one hidden layer of
# 100, validation every epoch, no early stop), forked over 2 cores against in
# process, medians of 15 per set: +10.6 ms at 10,125 (5 epochs) and +16.6 ms
# at 50,625; at 101,250 +20.4 and -26.0 ms, at 151,875 +11.8, -24.7 and
# -35.9 ms in three sets; -60 to -98 ms at 202,500.
FORK_MIN_WORK = 150_000
# Forking stops paying once BLAS runs a member's largest matrix product (rows
# x fan-in x fan-out, the rows being a batch or the validation rows) on
# several threads, since the two processes' threads then contend for the same
# cores.  Two groups of five members, each on 2,700 training and validation
# rows of a table, forked over 2 cores against in process (scipy-openblas
# 0.3.31, AVX-512), medians of 5-7: with hidden layers of 100 and 100, -278
# and -450 ms at 520,000 multiply-adds, +95 and +304 ms at 530,000 and +0.2 to
# +7.4 s from 550,000 to 800,000; with one hidden layer of 100 on 11 features,
# -8 to -85 ms from 440,000 to 990,000 and +0.2 to +1.1 s from 1,017,500 to
# 1,100,000.  Under OPENBLAS_NUM_THREADS=1 forking won at 530,000 and 800,000
# (100 x 100) and at 1,100,000 (11 x 100).  The bound sits at the lower of the
# two crossovers; other BLAS builds, layer shapes and CPU counts are untested.
FORK_MAX_PRODUCT = 2 ** 19


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _workers(config, count, shape):
    # How many processes train ``count`` groups of the given _shape: one per
    # CPU this process may use, at most one per group, and only one when
    # forking cannot pay or is unsafe.
    n, dim, n_valid = shape
    widths = [dim, *config.model.hidden_sizes,
              len(initial_head(config.loss.variant, config.model.head_bias))]
    product = max(min(n, config.optimizer.batch_size), n_valid) * max(
        a * b for a, b in zip(widths, widths[1:]))
    work = count * config.ensemble_size * config.optimizer.max_epochs * n
    if (count < 2 or work < FORK_MIN_WORK or product > FORK_MAX_PRODUCT
            or threading.active_count() > 1):
        return 1
    return min(count, _cpus())


def _train_forked(config, shape, chunks):
    # The first chunk trains here while a forked child trains each other one;
    # the outcomes come back in group order.  No child outlives this call.
    # multiprocessing is imported here, so that only a run that forks pays for
    # it (about 9 ms).
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for chunk in chunks[1:]:
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_train_child, args=(send, config, chunk, shape))
            child.start()
            send.close()  # so that a child that dies without sending ends recv
            children.append((child, receive))
        outcomes = _train_groups(config, chunks[0], shape)
        for child, receive in children:
            try:
                got, error = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a training worker exited with code {child.exitcode} "
                                   f"before sending its outcomes") from None
            if error is not None:
                raise error
            outcomes += got
        return outcomes
    finally:
        for child, receive in children:
            child.terminate()
            child.join()
            receive.close()


def _train_child(send, config, groups, shape):
    # A forked child's body: send back (outcomes, None), or (None, the
    # exception), carried as its traceback text when it does not pickle.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = (_train_groups(config, groups, shape), None)
    except BaseException as exc:  # raised again in the parent
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError("a training worker raised:\n" + traceback.format_exc())
        reply = (None, exc)
    send.send(reply)
    send.close()


def _shape(groups):
    # The (training rows, features, validation rows) that every group shares.
    shapes = {(t.n, t.dim, 0 if v is None else v.n) for t, v, _ in groups}
    if len(shapes) > 1:
        raise ShapeError(f"groups of unequal (rows, features, validation rows) {sorted(shapes)}")
    return shapes.pop()


def _train_groups(config, groups, shape):
    opt, size = config.optimizer, config.ensemble_size
    n, dim, n_valid = shape
    trains = [t for t, _, _ in groups]
    valids = [None if v is None or v.n == 0 else v for _, v, _ in groups]
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
    failures = [None] * len(groups)

    starts = range(0, n, opt.batch_size)
    # Row j holds member j's shuffle, and its batch losses in one contiguous
    # row, so its epoch mean sums in the order a lone model's would.
    perm = np.empty((len(seeds), n), dtype=np.intp)
    losses = np.empty((len(seeds), len(starts)))
    # Every loss, gradient and validation score is checked for non-finite
    # values below, so numpy's own warnings about them would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, opt.max_epochs + 1):
            # Shuffling arange(n) in place is Generator.permutation(n), draw for draw.
            perm[active] = np.arange(n)
            for j in active:
                shuffles[j].shuffle(perm[j])
            for batch_index, start in enumerate(starts):
                while active:
                    try:
                        x, y = _batch(trains, active, perm[active, start:start + opt.batch_size],
                                      size)
                        loss, grads = backward(stack, x, y, config.loss)
                        adam_step(state, stack, grads)
                    except TrainingDiverged as exc:
                        _fail(failures, size, active[exc.member], f"diverged at epoch {epoch}, "
                              f"batch {batch_index}: {exc}", exc, epoch, batch_index)
                        rows = [k for k, j in enumerate(active) if not _failed(failures, size, j)]
                        active, stack = _keep(stack, state, active, rows)
                        continue
                    losses[active, batch_index] = loss
                    break
            if not active:
                break
            epoch_loss = losses[active].sum(axis=-1) / len(starts)

            if n_valid:
                own = [valids[j // size] for j in active]
                score = loss_value(stack, [v.features for v in own], [v.targets for v in own],
                                   config.loss)
            else:
                score = epoch_loss
            rows = []
            epoch_losses, scores = epoch_loss.tolist(), score.tolist()
            for k, j in enumerate(active):
                if _failed(failures, size, j):
                    continue
                if not math.isfinite(scores[k]):
                    _fail(failures, size, j, f"non-finite validation loss {scores[k]!r} "
                          f"at epoch {epoch}", None, epoch)
                    continue
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
                active, stack = _keep(stack, state, active, rows)
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
