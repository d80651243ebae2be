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
score is non-finite fails alone: it records its own error with the
member/epoch/batch context attached, leaves the stack, and everyone else
trains on.  A group's error is its lowest failing member's, the one its
members raise trained one after another, since no member's bits depend on
the rest of the stack.

A stack's members, every group's in group order, form one list, and that
list spreads over the CPUs this process may use: it splits into contiguous
chunks of near-equal member count, one per CPU, and the calling process
trains the first chunk while a forked child trains each other one through
the same code.  A heavy stack, whose members' steps reach HEAVY_STEP_WORK,
splits into chunks of at most members // CPUs members instead, so 5 on 2
CPUs train as 1 + 2 + 2 in three processes that the CPUs time-slice, and
neither CPU idles while the other finishes a larger chunk.  Each chunk
gives one outcome per member, and the outcomes, in member order, are the
ones one stack gives, bit for bit, since a member trains alike in any stack.

Every call trains at one BLAS thread in every process, and the caller
gets its own thread count back once every child has been joined.  Two
processes each running OpenBLAS's own threads on 1,000-row batches
contend for the same cores (unpinned, a forked run lost up to 7.4 s on 2
cores), and the number of threads that ran a product moves its last bits,
so a pinned run has the same bits on any CPU count.  The pin calls,
through ctypes, the thread controls of the OpenBLAS this process has
loaded; forked children inherit it.  Training forks when its work reaches
FORK_MIN_WORK, the stack has more than one member, forking is safe by the
check the loader makes too (``data._fork_safe``: more than one CPU allowed,
os.fork present, no other Python thread alive), and the controls were found
in an OpenBLAS built with pthreads or without threads, which survives a
fork.  Anything else trains in process, as ``taskset -c 0`` does, and
unpinned where no controls were found; so does a call whose pipe or fork
the system refuses, once the children already started are reaped.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import pickle
import threading
import traceback
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import ExperimentConfig
from .data import Dataset, NormalizedRows, _cpus, _fork_safe, _forked
from .errors import ShapeError, TrainingDiverged
from .losses import initial_head
from .network import FeedForwardModel, _parameter_count, backward, init_model, loss_value
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


def _keep(stack, state, active, rows):
    # The members at the given stack rows, and the stack and its optimizer
    # state restricted to them.
    state.first_moment = state.first_moment[rows]
    state.second_moment = state.second_moment[rows]
    return [active[k] for k in rows], FeedForwardModel(stack.layer_sizes, stack.flat[rows])


def _batch(members, active, idx):
    # The stack's (features, targets) batch for the (rows, batch) index
    # array ``idx``: each group's run of stack rows gathers its members' rows
    # from the group's training set in one call.  Stack member m belongs to
    # group members[m][0], and rows keep member order.
    parts, lo = [], 0
    for _, run in itertools.groupby(active, lambda m: members[m][0]):
        run = list(run)
        train, hi = members[run[0]][1], lo + len(run)
        parts.append((train.features[idx[lo:hi]], train.targets[idx[lo:hi]]))
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
    j alone leaves the stack and the rest train on; the group's error is
    that of its lowest diverging member, the error its members raise
    trained one after another.  A call with no groups gives no outcomes.

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
    if not groups:
        return []
    shape = _shape(groups)
    size = config.ensemble_size
    members = [(g, t, v, seed + j, j) for g, (t, v, seed) in enumerate(groups)
               for j in range(size)]
    k = _workers(config, len(members), *shape[:2])
    bounds = [len(members) * i // k for i in range(k + 1)]
    chunks = [members[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with _one_blas_thread():
        results = (_train_members(config, members, shape) if k == 1
                   else _train_forked(config, shape, chunks))
    outcomes = [_group(results[lo:lo + size]) for lo in range(0, len(results), size)]
    if grouped:
        return outcomes
    if isinstance(outcomes[0], TrainingDiverged):
        raise outcomes[0]
    return outcomes[0]


def _group(results):
    # One group's outcome from its members' outcomes in member order: the
    # first error, else the members' stacked rows and histories.
    for result in results:
        if isinstance(result, TrainingDiverged):
            return result
    models, histories = zip(*results)
    return (FeedForwardModel(models[0].layer_sizes, np.concatenate([m.flat for m in models])),
            list(histories))


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
# A stack is heavy, and trains in chunks of at most members // cpus members,
# when one member's step, batch rows x parameters, reaches this.  Five
# members on 2 CPUs in chunks of 1 + 2 + 2 against 2 + 3, one hidden layer,
# 10 batches an epoch, medians of 8 alternating pairs: 90 features and 100
# units +13.4% at 1.88M, -4.5% at 3.76M, -10.6% at 6.58M, -16.5% at 9.40M
# (msd); 10 features and 200 units +10.7% at 0.56M, -6.7% at 0.84M, -17.4%
# at 1.40M, -13.0% at 2.80M.  The bound sits at the first shape's crossover;
# a light stack, as every sine stack is (about 50,000), loses by more chunks.
# Measured on 2 CPUs only: more CPUs, where 5 heavy members on 4 train in 5
# processes of some 80 MB resident each, are untested in time and memory.
HEAVY_STEP_WORK = 2_000_000


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


def _workers(config, members, rows, dim):
    # How many processes train ``members`` members on ``rows`` training rows
    # of ``dim`` features each: one per CPU this process may use, at most one
    # per member, and only one when forking cannot pay or is unsafe.  A heavy
    # stack splits into chunks of at most members // cpus members, which
    # the CPUs time-slice, so that an uneven split leaves no CPU idle while
    # the larger chunk finishes.  At one BLAS thread per process
    # (_one_blas_thread) the matrix products' size does not matter otherwise.
    work = members * config.optimizer.max_epochs * rows
    cpus = _cpus()
    if (members < 2 or work < FORK_MIN_WORK or not _fork_safe(cpus)
            or _blas_threads() is None):
        return 1
    head = initial_head(config.loss.variant, config.model.head_bias)
    step = min(config.optimizer.batch_size, rows) * _parameter_count(
        [dim, *config.model.hidden_sizes, len(head)])
    if step >= HEAVY_STEP_WORK:
        return -(-members // max(members // cpus, 1))
    return min(members, cpus)


def _train_forked(config, shape, chunks):
    # The first chunk trains here while a forked child (data._forked) trains
    # each other one; the members' outcomes come back in member order.  No
    # child outlives this call.  A refused pipe or fork (EAGAIN, ENOMEM)
    # kills and reaps the children already started and trains every member
    # here, with the same outcomes: a member trains alike in any chunk.
    with contextlib.ExitStack() as stack:
        try:
            children = [stack.enter_context(_forked(_train_child, config, chunk, shape))
                        for chunk in chunks[1:]]
        except OSError:
            stack.close()
            return _train_members(config, [m for chunk in chunks for m in chunk], shape)
        outcomes = _train_members(config, chunks[0], shape)
        for receive, wait in children:
            try:
                with open(receive, "rb", closefd=False) as pipe:
                    got, error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"a training worker exited with code {wait()} "
                                   f"before sending its outcomes") from None
            if error is not None:
                raise error
            outcomes += got
        return outcomes


def _train_child(send, config, members, shape):
    # A forked child's body: send back (outcomes, None), or (None, the
    # exception), carried as its traceback text when it does not pickle.
    try:
        reply = (_train_members(config, members, shape), None)
    except BaseException as exc:  # raised again in the parent
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError("a training worker raised:\n" + traceback.format_exc())
        reply = (None, exc)
    with open(send, "wb") as pipe:
        pickle.dump(reply, pipe)


def _shape(groups):
    # The (training rows, features, validation rows) that every group shares.
    shapes = {(t.n, t.dim, 0 if v is None else v.n) for t, v, _ in groups}
    if len(shapes) > 1:
        raise ShapeError(f"groups of unequal (rows, features, validation rows) {sorted(shapes)}")
    return shapes.pop()


def _train_members(config, members, shape):
    # Trains members (group, training rows, validation rows, seed, index j
    # in the group) as one stack: one outcome per member, its best model (a
    # one-member stack) and history, or its own error.
    opt = config.optimizer
    n, dim, n_valid = shape
    models = [build_model(config, dim, seed) for *_, seed, _ in members]
    stack = FeedForwardModel(models[0].layer_sizes, np.stack([m.flat for m in models]))
    state = init_adam(stack, opt)
    shuffles = [np.random.default_rng([seed, 1]) for *_, seed, _ in members]
    histories = [TrainingHistory() for _ in members]
    best_flat = stack.flat.copy()
    best = [np.inf] * len(members)
    bad = [0] * len(members)
    active = list(range(len(members)))  # the member in each stack row
    errors = [None] * len(members)

    def fail(m, message, epoch, batch_index=None):
        j = members[m][4]
        errors[m] = TrainingDiverged(f"member {j}: {message}", epoch=epoch,
                                     batch_index=batch_index, member=j)

    starts = range(0, n, opt.batch_size)
    # Row m holds stack member m's shuffle, and its batch losses in one
    # contiguous row, so its epoch mean sums in the order a lone model's would.
    perm = np.empty((len(members), n), dtype=np.intp)
    losses = np.empty((len(members), len(starts)))
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
                        x, y = _batch(members, active,
                                      perm[active, start:start + opt.batch_size])
                        loss, grads = backward(stack, x, y, config.loss)
                        adam_step(state, stack, grads)
                    except TrainingDiverged as exc:
                        fail(active[exc.member], f"diverged at epoch {epoch}, batch "
                             f"{batch_index}: {exc}", epoch, batch_index)
                        active, stack = _keep(stack, state, active,
                                              [k for k in range(len(active)) if k != exc.member])
                        continue
                    losses[active, batch_index] = loss
                    break
            if not active:
                break
            epoch_loss = losses[active].sum(axis=-1) / len(starts)

            if n_valid:
                own = [members[m][2] for m in active]
                score = loss_value(stack, [v.features for v in own], [v.targets for v in own],
                                   config.loss)
            else:
                score = epoch_loss
            rows = []
            epoch_losses, scores = epoch_loss.tolist(), score.tolist()
            for k, m in enumerate(active):
                if not math.isfinite(scores[k]):
                    fail(m, f"non-finite validation loss {scores[k]!r} at epoch {epoch}", epoch)
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

    return [errors[m] if errors[m] is not None else
            (FeedForwardModel(stack.layer_sizes, best_flat[m:m + 1]), histories[m])
            for m in range(len(members))]


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
