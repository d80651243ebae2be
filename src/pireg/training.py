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

A stack's members, every group's in group order, spread over the CPUs
this process may use: they split into contiguous chunks of near-equal
member count, one per CPU, and the calling process trains the first chunk
while a forked child trains each other one through the same code.  A group
may be split between chunks; each chunk trains its piece of the group,
members keeping their index j in the group, and the pieces join in member
order.  Since a member trains alike in any stack, the outcomes are the
ones one stack gives, bit for bit, and a group whose pieces fail takes the
error of its lowest failing member, as in one stack.

Every call trains at one BLAS thread in every process, and the caller
gets its own thread count back once every child has been joined.  Two
processes each running OpenBLAS's own threads on 1,000-row batches
contend for the same cores (unpinned, a forked run lost up to 7.4 s on 2
cores), and the number of threads that ran a product moves its last bits,
so a pinned run has the same bits on any CPU count.  The pin calls,
through ctypes, the thread controls of the OpenBLAS this process has
loaded; forked children inherit it.  Training forks when its work reaches
FORK_MIN_WORK, the stack has more than one member, more than one CPU is
allowed (a platform without os.sched_getaffinity, which every platform
that cannot fork lacks, counts as one), no other Python thread is alive,
and the controls were found in an OpenBLAS built with pthreads or without
threads, which survives a fork.  Anything else trains in process, as
``taskset -c 0`` does, and unpinned where no controls were found.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
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
# a failure of one of them becomes the group's error.  ``piece`` indexes the
# member's piece (its group's share of this stack), ``j`` is its index in
# the group.
def _fail(failures, piece, j, message, cause, epoch, batch_index=None):
    error = TrainingDiverged(f"member {j}: {message}", epoch=epoch,
                             batch_index=batch_index, member=j)
    error.__cause__ = cause
    failures[piece] = error


def _failed(failures, piece, j):
    error = failures[piece]
    return error is not None and j >= error.member


def _keep(stack, state, active, rows):
    # The members at the given stack rows, and the stack and its optimizer
    # state restricted to them.
    state.first_moment = state.first_moment[rows]
    state.second_moment = state.second_moment[rows]
    return [active[k] for k in rows], FeedForwardModel(stack.layer_sizes, stack.flat[rows])


def _batch(trains, members, active, idx):
    # The stack's (features, targets) batch for the (rows, batch) index
    # array ``idx``: each piece's run of stack rows gathers its members' rows
    # from the piece's training set in one call.  Stack member m belongs to
    # piece members[m][0], and rows keep member order.
    parts, lo = [], 0
    for piece, run in itertools.groupby(active, lambda m: members[m][0]):
        hi = lo + len(list(run))
        parts.append((trains[piece].features[idx[lo:hi]], trains[piece].targets[idx[lo:hi]]))
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

    Members may train in forked workers, a group's members split between
    two of them or more (see the module docstring), with the same outcomes.
    BLAS runs at one thread during the call, in every process, and the
    caller's thread count is back when it returns or raises.
    Any other exception a worker raises is raised here, as a
    ``RuntimeError`` holding the worker's traceback when it does not
    pickle, and no worker outlives the call.
    """
    grouped = isinstance(train, (list, tuple))
    if grouped and not len(train) == len(valid) == len(base_seed):
        raise ShapeError(f"{len(train)} training sets, {len(valid)} validation sets "
                         f"and {len(base_seed)} base seeds")
    groups = list(zip(train, valid, base_seed)) if grouped else [(train, valid, base_seed)]
    shape = _shape(groups)
    size = config.ensemble_size
    total = len(groups) * size
    k = _workers(config, total, shape[0])
    # k contiguous runs of near-equal member count over every group's
    # members in group order; each run holds one piece per group it meets:
    # the group's index and the range of member indices j it trains there.
    bounds = [total * i // k for i in range(k + 1)]
    owned = [[(g, range(max(lo - g * size, 0), min(hi - g * size, size)))
              for g in range(lo // size, (hi - 1) // size + 1)]
             for lo, hi in zip(bounds, bounds[1:])]
    chunks = [[(*groups[g], js) for g, js in chunk] for chunk in owned]
    with _one_blas_thread():
        pieces = (_train_groups(config, chunks[0], shape) if k == 1
                  else _train_forked(config, shape, chunks))
    parts = [[] for _ in groups]
    for (g, _), piece in zip(itertools.chain(*owned), pieces):
        parts[g].append(piece)
    outcomes = [_join(part) for part in parts]
    if grouped:
        return outcomes
    if isinstance(outcomes[0], TrainingDiverged):
        raise outcomes[0]
    return outcomes[0]


def _join(pieces):
    # One group's outcome from its pieces' outcomes in member order.  Each
    # piece's error is its lowest failing member's, so the first error is the
    # group's; otherwise the pieces' stacks and histories join end to end.
    for piece in pieces:
        if isinstance(piece, TrainingDiverged):
            return piece
    stacks, histories = zip(*pieces)
    return (FeedForwardModel(stacks[0].layer_sizes, np.concatenate([s.flat for s in stacks])),
            [h for part in histories for h in part])


# Forking pays only above this much work, in members x max_epochs x training
# rows.  Five groups of five members on 81 rows of sine (one hidden layer of
# 100, validation every epoch, no early stop), forked over 2 cores against in
# process, medians of 15 per set: +10.6 ms at 10,125 (5 epochs) and +16.6 ms
# at 50,625; at 101,250 +20.4 and -26.0 ms, at 151,875 +11.8, -24.7 and
# -35.9 ms in three sets; -60 to -98 ms at 202,500.  One group of 2 members
# (chunks of 1 + 1) and of 5 (2 + 3) on the same rows, 9 validation rows,
# medians of paired differences over 15 and then 25 alternating pairs: 2
# members -45.8 and +1.4 ms at 99,954, -27.8 and -22.9 at 150,012, -14.4 and
# -65.3 at 200,070; 5 members -18.5 and -5.0 at 100,035, -4.9 and -25.9 at
# 149,850, -11.7 and -70.4 at 200,070.  Forking wins clearly only above the
# bound, and no smaller one was better in both sets.
FORK_MIN_WORK = 150_000


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.cache
def _blas_threads():
    # The (get, set) thread-count calls of the OpenBLAS this process has
    # loaded, if it is built with pthreads or without threads (its
    # get_parallel reads 1 or 0, where OpenMP reads 2); otherwise None.
    # Builds prefix and suffix the names differently: numpy's wheel calls
    # them scipy_openblas_get_num_threads64_ and so on.
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
            try:
                get, put, parallel = (getattr(lib, f"{prefix}_{name}{suffix}") for name in
                                      ("get_num_threads", "set_num_threads", "get_parallel"))
            except AttributeError:
                continue
            if parallel() in (0, 1):
                return get, put
    return None


# How many train_ensemble calls run pinned now, and the thread count the
# last of them to finish gives back, so that calls from several threads
# keep one thread until all are done.
_pin_lock = threading.Lock()
_pins = [0, None]


@contextlib.contextmanager
def _one_blas_thread():
    # BLAS runs on one thread inside the block, where its controls were found.
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _pin_lock:
        if not _pins[0]:
            _pins[1] = get()
            put(1)
        _pins[0] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins[0] -= 1
            if not _pins[0]:
                put(_pins[1])


def _workers(config, members, rows):
    # How many processes train ``members`` members on ``rows`` training rows
    # each: one per CPU this process may use, at most one per member, and
    # only one when forking cannot pay or is unsafe.  At one BLAS thread per
    # process (_one_blas_thread) the matrix products' size does not matter.
    work = members * config.optimizer.max_epochs * rows
    if (members < 2 or work < FORK_MIN_WORK or threading.active_count() > 1
            or _blas_threads() is None):
        return 1
    return min(members, _cpus())


def _train_forked(config, shape, chunks):
    # The first chunk trains here while a forked child trains each other one;
    # the pieces' outcomes come back in member order.  No child outlives this
    # call.
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


def _train_child(send, config, pieces, shape):
    # A forked child's body: send back (outcomes, None), or (None, the
    # exception), carried as its traceback text when it does not pickle.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = (_train_groups(config, pieces, shape), None)
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


def _train_groups(config, pieces, shape):
    # Trains pieces (training rows, validation rows, base seed, range of
    # member indices j) as one stack: one outcome per piece, its stack and
    # histories or the error of its lowest failing member.
    opt = config.optimizer
    n, dim, n_valid = shape
    trains = [t for t, _, _, _ in pieces]
    valids = [None if v is None or v.n == 0 else v for _, v, _, _ in pieces]
    members = [(p, j) for p, (*_, js) in enumerate(pieces) for j in js]  # (piece, j) of each
    seeds = [pieces[p][2] + j for p, j in members]
    models = [build_model(config, dim, seed) for seed in seeds]
    stack = FeedForwardModel(models[0].layer_sizes, np.stack([m.flat for m in models]))
    state = init_adam(stack, opt)
    shuffles = [np.random.default_rng([seed, 1]) for seed in seeds]
    histories = [TrainingHistory() for _ in seeds]
    best_flat = stack.flat.copy()
    best = [np.inf] * len(seeds)
    bad = [0] * len(seeds)
    active = list(range(len(seeds)))  # the member in each stack row
    failures = [None] * len(pieces)

    starts = range(0, n, opt.batch_size)
    # Row m holds stack member m's shuffle, and its batch losses in one
    # contiguous row, so its epoch mean sums in the order a lone model's would.
    perm = np.empty((len(seeds), n), dtype=np.intp)
    losses = np.empty((len(seeds), len(starts)))
    # Every loss, gradient and validation score is checked for non-finite
    # values below, so numpy's own warnings about them would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, opt.max_epochs + 1):
            # Shuffling arange(n) in place is Generator.permutation(n), draw for draw.
            perm[active] = np.arange(n)
            for m in active:
                shuffles[m].shuffle(perm[m])
            for batch_index, start in enumerate(starts):
                while active:
                    try:
                        x, y = _batch(trains, members, active,
                                      perm[active, start:start + opt.batch_size])
                        loss, grads = backward(stack, x, y, config.loss)
                        adam_step(state, stack, grads)
                    except TrainingDiverged as exc:
                        _fail(failures, *members[active[exc.member]], f"diverged at epoch "
                              f"{epoch}, batch {batch_index}: {exc}", exc, epoch, batch_index)
                        rows = [k for k, m in enumerate(active)
                                if not _failed(failures, *members[m])]
                        active, stack = _keep(stack, state, active, rows)
                        continue
                    losses[active, batch_index] = loss
                    break
            if not active:
                break
            epoch_loss = losses[active].sum(axis=-1) / len(starts)

            if n_valid:
                own = [valids[members[m][0]] for m in active]
                score = loss_value(stack, [v.features for v in own], [v.targets for v in own],
                                   config.loss)
            else:
                score = epoch_loss
            rows = []
            epoch_losses, scores = epoch_loss.tolist(), score.tolist()
            for k, m in enumerate(active):
                if _failed(failures, *members[m]):
                    continue
                if not math.isfinite(scores[k]):
                    _fail(failures, *members[m], f"non-finite validation loss {scores[k]!r} "
                          f"at epoch {epoch}", None, epoch)
                    continue
                history = histories[m]
                history.train_loss.append(epoch_losses[k])
                history.val_loss.append(scores[k])
                history.epochs_run = epoch
                if scores[k] < best[m]:
                    best[m] = scores[k]
                    best_flat[m] = stack.flat[k]
                    bad[m] = 0
                else:
                    bad[m] += 1
                    if bad[m] > opt.patience:
                        continue
                rows.append(k)
            if len(rows) < len(active):
                active, stack = _keep(stack, state, active, rows)
            state.learning_rate *= opt.decay

    edges = list(itertools.accumulate((len(js) for *_, js in pieces), initial=0))
    return [failures[p] if failures[p] is not None else
            (FeedForwardModel(stack.layer_sizes, best_flat[lo:hi]), histories[lo:hi])
            for p, (lo, hi) in enumerate(zip(edges, edges[1:]))]


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
