"""Tests for the mini-batch trainer: early stopping, determinism, divergence
diagnostics, ensemble fan-out, and validation carving.

The stacked trainer's oracle is ``sequential_ensemble`` below: it trains
the members one after another, each alone through the single-model path of
``backward``, ``adam_step`` and ``loss_value``.  ``check_layout`` trains a
``Layout`` through ``train_ensemble`` and requires of every group what the
oracle gives, bit for bit; a Hypothesis property draws 80 layouts, and a
table pins 46 hand-picked ones, each with its own extra checks.
"""

import dataclasses
import errno
import math
import operator
import os
import re
import signal
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import pireg.training as training
from pireg.bench import ensemble_predict
from pireg.config import (CATALOG, DataSpec, ExperimentConfig, ModelSpec, OptimizerSpec,
                          SplitPlan, default_config)
from pireg.data import Dataset, NormalizedRows, apply_normalize, fit_normalize, generate, split
from pireg.errors import ShapeError, TrainingDiverged
from pireg.losses import (VARIANTS, LossConfig, hard_capture, head_loss_and_grad, initial_head,
                          interval_link)
from pireg.network import STACK_FORWARD_BYTES, FeedForwardModel, backward, forward, loss_value
from pireg.optim import adam_step, init_adam
from pireg.training import TrainingHistory, build_model, carve_validation, train_ensemble

from conftest import assert_no_child_left, fork_over, open_descriptors


def train_single(config, train, valid, seed):
    """Train one model: a one-member ensemble whose base seed is ``seed``."""
    stack, histories = train_ensemble(dataclasses.replace(config, ensemble_size=1),
                                      train, valid, seed)
    return FeedForwardModel(stack.layer_sizes, stack.flat[0]), histories[0]


def small_config(**optimizer_overrides):
    opt = dict(learning_rate=0.02, decay=0.999, batch_size=10, max_epochs=40,
               patience=40, validation_fraction=0.0)
    opt.update(optimizer_overrides)
    return ExperimentConfig(
        name="unit",
        data=DataSpec(kind="sine", n=40),
        model=ModelSpec(hidden_sizes=(8,)),
        optimizer=OptimizerSpec(**opt),
    )


def sine_train(n=40, seed=3):
    data = generate(DataSpec(n=n), seed)
    return apply_normalize(data, fit_normalize(data))


def carve(data, fraction, seed, split_index):
    """``carve_validation`` on every row of ``data``, as (train, valid) datasets."""
    train, valid = carve_validation(np.arange(data.n), fraction, seed, split_index)
    return (Dataset(data.features[train], data.targets[train]),
            Dataset(data.features[valid], data.targets[valid]))


def test_build_model_head_shapes():
    cfg = small_config()
    model = build_model(cfg, input_dim=1, seed=0)
    assert model.weights[-1].shape == (8, 3)
    assert np.array_equal(model.biases[-1], [3.0, -3.0, 0.0])  # default head bias
    gauss = ExperimentConfig(loss=LossConfig(variant="gaussian_nll"),
                             model=ModelSpec(hidden_sizes=(8,)))
    gmodel = build_model(gauss, input_dim=2, seed=0)
    assert gmodel.weights[0].shape == (2, 8)
    assert gmodel.weights[-1].shape == (8, 2)


def _readme_head_widths():
    # variant -> head width from README's "Loss variants" table.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return {name: int(units)
            for name, units in re.findall(r"^\| `(\w+)` \| (\d+) units \|", readme, re.M)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_build_model_head_follows_the_variant(variant):
    head_bias = (2.0, -1.5)
    config = ExperimentConfig(model=ModelSpec(hidden_sizes=(4,), head_bias=head_bias),
                              loss=LossConfig(variant=variant))
    model = build_model(config, input_dim=2, seed=5)
    width = _readme_head_widths()[variant]
    assert model.layer_sizes == (2, 4, width)
    want = (0.0, 0.0) if variant == "gaussian_nll" else (*head_bias, 0.0)
    assert model.biases[-1].tolist() == list(want)
    assert initial_head(variant, head_bias) == want and len(want) == width

    x = np.random.default_rng(6).normal(size=(9, 2))
    y = np.random.default_rng(7).normal(size=9)
    loss, grad = head_loss_and_grad(forward(model, x), y, config.loss)
    assert np.isfinite(loss) and grad.shape == (9, width)
    twins = FeedForwardModel(model.layer_sizes, np.stack([model.flat, model.flat]))
    out = ensemble_predict(twins, x, variant, config.loss.alpha)
    for column in (out.lower, out.upper, out.value):
        assert column.shape == (9,) and np.all(np.isfinite(column))


def test_two_runs_same_seed_are_bit_identical():
    cfg = small_config()
    data = sine_train()
    model_a, hist_a = train_single(cfg, data, None, seed=7)
    model_b, hist_b = train_single(cfg, data, None, seed=7)
    assert hist_a.train_loss == hist_b.train_loss
    assert hist_a.val_loss == hist_b.val_loss
    for wa, wb in zip(model_a.weights, model_b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(model_a.biases, model_b.biases):
        assert np.array_equal(ba, bb)


def test_different_seeds_differ():
    cfg = small_config(max_epochs=10)
    data = sine_train()
    model_a, _ = train_single(cfg, data, None, seed=1)
    model_b, _ = train_single(cfg, data, None, seed=2)
    assert not np.array_equal(model_a.weights[0], model_b.weights[0])


def test_patience_zero_stops_at_first_non_improvement():
    # Reference run with patience disabled gives the full score series; the
    # patience=0 run must stop exactly where that series first fails to improve.
    data = sine_train()
    full_cfg = small_config(learning_rate=0.05, max_epochs=60, patience=60)
    _, full_hist = train_single(full_cfg, data, None, seed=11)
    series = full_hist.val_loss
    best = np.inf
    first_bad = None
    for i, score in enumerate(series, start=1):
        if score < best:
            best = score
        else:
            first_bad = i
            break
    assert first_bad is not None, "needs a non-improving epoch within the budget"

    short_cfg = small_config(learning_rate=0.05, max_epochs=60, patience=0)
    _, short_hist = train_single(short_cfg, data, None, seed=11)
    assert short_hist.epochs_run == first_bad
    assert short_hist.val_loss == series[:first_bad]
    assert int(np.argmin(short_hist.val_loss)) + 1 < first_bad


def test_patience_counts_consecutive_failures():
    data = sine_train()
    full_cfg = small_config(learning_rate=0.05, max_epochs=60, patience=60)
    _, full_hist = train_single(full_cfg, data, None, seed=11)
    series = full_hist.val_loss
    best = np.inf
    bad = 0
    stop = None
    for i, score in enumerate(series, start=1):
        if score < best:
            best, bad = score, 0
        else:
            bad += 1
            if bad > 2:
                stop = i
                break
    if stop is None:
        pytest.skip("series never accumulates 3 consecutive non-improvements")
    _, hist = train_single(small_config(learning_rate=0.05, max_epochs=60, patience=2),
                           data, None, seed=11)
    assert hist.epochs_run == stop


def test_best_validation_parameters_are_restored():
    data = sine_train(n=60)
    train, valid = carve(data, 0.25, seed=5, split_index=0)
    cfg = small_config(max_epochs=30)
    model, hist = train_single(cfg, train, valid, seed=9)
    recomputed = loss_value(model, valid.features, valid.targets, cfg.loss)
    assert recomputed == min(hist.val_loss)


def test_carve_validation_fraction_zero_is_identity():
    rows = np.arange(20)
    train, valid = carve_validation(rows, 0.0, seed=1, split_index=0)
    assert valid is None
    assert train is rows


def test_carve_validation_sizes_and_determinism():
    rows = np.arange(100, 120)
    train_a, val_a = carve_validation(rows, 0.25, seed=6, split_index=1)
    train_b, val_b = carve_validation(rows, 0.25, seed=6, split_index=1)
    assert len(val_a) == 5 and len(train_a) == 15
    assert np.array_equal(val_a, val_b)
    assert np.array_equal(train_a, train_b)
    assert np.array_equal(np.sort(np.concatenate([train_a, val_a])), rows)
    _, val_other = carve_validation(rows, 0.25, seed=6, split_index=2)
    assert not np.array_equal(np.sort(val_a), np.sort(val_other))


def test_carve_validation_clamps_to_leave_training_rows():
    train, valid = carve_validation(np.arange(4), 0.9, seed=0, split_index=0)
    assert len(train) == 1 and len(valid) == 3
    train, valid = carve_validation(np.arange(1), 0.5, seed=0, split_index=0)
    assert valid is None and len(train) == 1


def test_sine_smoke_reaches_high_train_coverage():
    # End-to-end sanity: defaults on the noisy sine task capture >= 90% of the
    # training rows within the epoch budget.
    data = sine_train(n=100, seed=0)
    cfg = ExperimentConfig(
        name="smoke",
        model=ModelSpec(hidden_sizes=(100,)),
        optimizer=OptimizerSpec(learning_rate=0.01, decay=0.999, batch_size=100,
                                max_epochs=2000, patience=2000, validation_fraction=0.0),
    )
    model, hist = train_single(cfg, data, None, seed=1)
    upper, lower, _ = interval_link(forward(model, data.features), "joint")
    coverage = float(np.mean(hard_capture(data.targets, lower, upper)))
    assert coverage >= 0.9
    assert hist.epochs_run <= 2000


# ---------------------------------------------------------------------------
# The stacked trainer against the per-member loop it replaced.
# ---------------------------------------------------------------------------


def sequential_member(config, train, valid, seed):
    opt = config.optimizer
    model = build_model(config, train.dim, seed)
    state = init_adam(model, opt)
    shuffle_rng = np.random.default_rng([seed, 1])

    x, y = train.features, train.targets
    n = train.n
    history = TrainingHistory()
    best = np.inf
    best_flat = None
    bad = 0

    for epoch in range(1, opt.max_epochs + 1):
        perm = shuffle_rng.permutation(n)
        batch_losses = []
        for batch_index, start in enumerate(range(0, n, opt.batch_size)):
            idx = perm[start:start + opt.batch_size]
            try:
                loss, grads = backward(model, x[idx], y[idx], config.loss)
                adam_step(state, model, grads)
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"diverged at epoch {epoch}, batch {batch_index}: {exc}",
                    epoch=epoch, batch_index=batch_index) from exc
            batch_losses.append(loss)
        epoch_loss = float(np.mean(batch_losses))

        if valid is not None and valid.n > 0:
            score = loss_value(model, valid.features, valid.targets, config.loss)
        else:
            score = epoch_loss
        if not np.isfinite(score):
            raise TrainingDiverged(
                f"non-finite validation loss {float(score)!r} at epoch {epoch}", epoch=epoch)

        history.train_loss.append(epoch_loss)
        history.val_loss.append(float(score))
        history.epochs_run = epoch

        if score < best:
            best = score
            best_flat = model.flat.copy()
            bad = 0
        else:
            bad += 1
            if bad > opt.patience:
                break
        state.learning_rate *= opt.decay

    if best_flat is not None:
        model = FeedForwardModel(model.layer_sizes, best_flat)
    return model, history


def sequential_ensemble(config, train, valid, base_seed):
    """Each member's outcome trained alone, one after another: its model
    and history, or its error as its group reports it."""
    outcomes = []
    for j in range(config.ensemble_size):
        try:
            outcomes.append(sequential_member(config, train, valid, base_seed + j))
        except TrainingDiverged as exc:
            outcomes.append(TrainingDiverged(f"member {j}: {exc}", epoch=exc.epoch,
                                             batch_index=exc.batch_index, member=j))
    return outcomes


def stack_config(variant="joint", hidden=(12,), members=4, **optimizer):
    opt = dict(learning_rate=0.02, decay=0.999, batch_size=10, max_epochs=40,
               patience=40, validation_fraction=0.0)
    opt.update(optimizer)
    return ExperimentConfig(name="stack", model=ModelSpec(hidden_sizes=hidden),
                            loss=LossConfig(variant=variant),
                            optimizer=OptimizerSpec(**opt), ensemble_size=members)


def group_rows(seed, n=70, width=2, fraction=0.25):
    # One group's (train, valid) rows: sine targets beside noise columns,
    # carved like a split, or all training rows at fraction 0.
    data = sine_train(n=n, seed=seed)
    noise = np.random.default_rng(seed).normal(size=(n, width - 1))
    data = Dataset(np.column_stack([data.features, noise]), data.targets)
    return carve(data, fraction, seed=seed, split_index=0) if fraction else (data, None)


def strided_table(n=90, width=5, seed=4):
    # Features as load_delimited returns them: a row-major view of a matrix
    # whose last column is the target, on scales far from unit.
    rng = np.random.default_rng(seed)
    scales = np.geomspace(1e-2, 1e3, width)
    matrix = np.column_stack([rng.standard_normal((n, width)) * scales + 3.0 * scales,
                              np.zeros(n)])
    x = matrix[:, :-1]
    matrix[:, -1] = np.sin(x[:, 0] / scales[0]) + 0.1 * rng.standard_normal(n)
    return Dataset(x, matrix[:, -1].copy())


@dataclasses.dataclass(frozen=True)
class Layout:
    """One ``train_ensemble`` call: its configuration, a (data seed, base
    seed) pair per group, the groups' rows and how the trainer reads them,
    the ``STACK_FORWARD_BYTES`` side of validation, and the worker count."""
    config: ExperimentConfig
    seeds: tuple = (3,)
    base_seeds: tuple = (11,)
    rows: int = 40
    features: int = 1
    valid: float = 0.0  # the share of each group's rows carved for validation
    member_by_member: bool = False
    workers: int | None = 1  # None: as many as the trainer picks unpatched
    heavy: bool = False  # HEAVY_STEP_WORK patched to 0, so that the stack is heavy
    normalized: bool = False  # rows of a strided_table read through NormalizedRows
    overflow: tuple = ()  # (group, "train" or "valid"): sine rows scaled by 1e300

    def groups(self):
        # Each group's (rows the trainer reads, the oracle's copy, validation rows, base seed).
        for g, (seed, base_seed) in enumerate(zip(self.seeds, self.base_seeds, strict=True)):
            if self.normalized:  # as bench._prepare_split hands a split to the trainer
                table = strided_table(self.rows, self.features, seed)
                stats = fit_normalize(table)
                rows, valid = carve_validation(np.arange(self.rows), self.valid, seed, 0)
                rows = np.random.default_rng(seed).permutation(rows)
                valid = None if valid is None else apply_normalize(table, stats, valid)
                yield (NormalizedRows(table, stats, rows), apply_normalize(table, stats, rows),
                       valid, base_seed)
                continue
            train, valid = group_rows(seed, self.rows, self.features, self.valid)
            if (g, "train") in self.overflow:
                train = Dataset(train.features * 1e300, train.targets)
            if (g, "valid") in self.overflow:
                valid = Dataset(valid.features * 1e300, valid.targets)
            yield train, train, valid, base_seed


located = operator.attrgetter("member", "epoch", "batch_index", "args")


def check_layout(layout):
    """Train ``layout`` through ``train_ensemble``, one group in the
    one-group form, and require of each group what ``sequential_ensemble``
    gives: equal stack bytes and histories, or its lowest failing member's
    error, located alike and with no cause.  Returns the outcomes, each
    fork's chunk sizes (None where nothing forks) and the members alone."""
    config, groups = layout.config, list(layout.groups())
    rows, copies, valids, base_seeds = map(list, zip(*groups))
    side = 0 if layout.member_by_member else STACK_FORWARD_BYTES
    heavy = 0 if layout.heavy else training.HEAVY_STEP_WORK
    total = len(groups) * config.ensemble_size
    with fork_over(layout.workers) as chunks, np.errstate(over="ignore", invalid="ignore"), \
            mock.patch("pireg.network.STACK_FORWARD_BYTES", side), \
            mock.patch.object(training, "HEAVY_STEP_WORK", heavy):
        try:
            outcomes = (train_ensemble(config, rows, valids, base_seeds) if len(groups) > 1
                        else [train_ensemble(config, rows[0], valids[0], base_seeds[0])])
        except TrainingDiverged as exc:  # the one-group form raises its group's error
            outcomes = [exc]
        wants = [sequential_ensemble(config, *group) for group in zip(copies, valids, base_seeds)]
    for got, want in zip(outcomes, wants, strict=True):
        errors = [o for o in want if isinstance(o, TrainingDiverged)]
        if errors:
            assert isinstance(got, TrainingDiverged) and got.__cause__ is None, got
            assert located(got) == located(errors[0])
        else:
            (stack, histories), (models, want_histories) = got, zip(*want)
            want_flat = np.stack([m.flat for m in models])
            assert stack.flat.shape == want_flat.shape
            assert stack.flat.tobytes() == want_flat.tobytes()
            assert histories == list(want_histories)
    if training._blas_threads() is None:
        return outcomes, None, wants
    if layout.workers is None:  # as many as the trainer picks unpatched
        with mock.patch.object(training, "HEAVY_STEP_WORK", heavy):
            k = training._workers(config, total, copies[0].n, copies[0].dim)
    elif layout.heavy:  # chunks of at most total // workers members
        k = -(-total // max(total // layout.workers, 1))
    else:
        k = min(layout.workers, total)
    assert chunks == ([] if k == 1 else [np.diff([total * i // k for i in range(k + 1)]).tolist()])
    return outcomes, chunks, wants


@st.composite
def layouts(draw):
    groups, rows = draw(st.integers(1, 4)), draw(st.integers(8, 30))
    seeds = st.lists(st.integers(0, 99), min_size=groups, max_size=groups).map(tuple)
    # Joint members at these rates, with no early stop, diverge after a
    # number of epochs that depends on their seeds, so that a higher member
    # often diverges first; at 1e74 some gaussian_nll members fail at once.
    diverge = draw(st.booleans())
    config = stack_config(
        "joint" if diverge else draw(st.sampled_from(VARIANTS)), (8,),
        draw(st.integers(3 if diverge else 1, 5)), batch_size=draw(st.integers(4, rows)),
        max_epochs=draw(st.integers(8, 15) if diverge else st.integers(1, 12)),
        patience=15 if diverge else draw(st.integers(0, 3)),
        learning_rate=draw(st.sampled_from([1e53, 1.5e53, 8e52] if diverge else [0.05, 1e74])))
    return Layout(config, seeds=draw(seeds), base_seeds=draw(seeds), rows=rows,
                  features=draw(st.integers(1, 3)), valid=draw(st.sampled_from([0.0, 0.25])),
                  member_by_member=draw(st.booleans()), workers=draw(st.integers(1, 3)),
                  normalized=draw(st.booleans()))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(layouts())
def test_any_layout_trains_like_its_members_one_after_another(layout):
    for want in check_layout(layout)[2]:
        struck = [(o.epoch, math.inf if o.batch_index is None else o.batch_index)
                  for o in want if isinstance(o, TrainingDiverged)]
        if struck and min(struck) < struck[0]:
            event("a higher member diverges first")


def pinned(name, expect=None, **fields):
    # A table row: fields of Layout, and stack_config's keywords for the rest.
    layout = {k: fields.pop(k) for k in list(fields) if k in Layout.__dataclass_fields__}
    return pytest.param(Layout(stack_config(**fields), **layout), expect or {}, id=name)


# At 8e52 a member's steps overflow its network after a number of epochs
# that depends on its seed.
DIVERGES = dict(hidden=(8,), members=5, max_epochs=15, patience=15, learning_rate=8e52, decay=1.0)
# Carved splits of sine rows beside a noise column.
SPLITS = dict(rows=70, features=2, valid=0.25, hidden=(16,), batch_size=12, patience=3,
              learning_rate=0.05)
# (workers, id suffix, checks) for four groups of three members.
WORKERS = [(None, "", {}), (1, "-over-1", {}), (3, "-over-3", {"chunks": [4, 4, 4]})]
# Each row's checks beyond check_layout: "chunks", the chunk sizes of its
# one fork; "epochs", each returned member's epochs_run; "stops", at least
# this many distinct stop epochs, all before max_epochs; "differ", members
# all distinct; "last_batch", an epoch's last batch size; "diverge", the
# epoch each member of group 0 diverges at alone (None: never), the lowest
# such member failing the group; "fails", failing groups and message parts.
PINNED = [
    pinned("one-member", hidden=(8,), members=1, max_epochs=10, base_seeds=(100,)),
    pinned("offset-seeds", {"differ": True}, hidden=(8,), members=3, max_epochs=8,
           base_seeds=(50,)),
    pinned("history-without-validation", {"epochs": [15]}, hidden=(8,), members=1,
           max_epochs=15, base_seeds=(4,)),
    # Rows that overflow the first product at once.
    pinned("epoch-and-batch", {"fails": {0: "member 0: diverged at epoch 1, batch 0"}},
           rows=12, overflow=((0, "train"),), hidden=(8,), members=1, base_seeds=(0,)),
    pinned("member-index", {"fails": {0: "member 0: diverged at epoch 1, batch 0"}}, rows=12,
           overflow=((0, "train"),), hidden=(4,), members=2, batch_size=4, max_epochs=5,
           learning_rate=0.01, base_seeds=(0,)),
    pinned("full-batch", {"epochs": [80] * 3}, hidden=(32,), members=3, batch_size=40,
           max_epochs=80, patience=80),
    # Nine batch losses an epoch take numpy's unrolled pairwise summation,
    # which a mean over anything but a contiguous row would reorder.
    pinned("uneven-stops", {"last_batch": 4, "stops": 2}, rows=70, valid=0.25, hidden=(16, 8),
           members=5, batch_size=6, max_epochs=150, patience=3, learning_rate=0.05),
    *(pinned(variant, variant=variant, rows=60, features=3, valid=0.2, members=3,
             batch_size=17, max_epochs=50, patience=5)
      for variant in ["gaussian_nll", "decoupled", "midpoint", "interval_only"]),
    # Members 3, 2 and 4 leave the stack in that order.
    pinned("diverge-8e+52", {"diverge": [None, None, 8, 5, 10]}, **DIVERGES),
    # The loss itself turns non-finite.
    pinned("diverge-3.5e+53", {"diverge": [1, 2, 1, 1, 1]},
           **dict(DIVERGES, learning_rate=3.5e53)),
    pinned("validation-diverges", {"fails": {0: "member 0: non-finite validation loss"}},
           valid=0.25, overflow=((0, "valid"),), members=3),
    # Four groups whose members stop at uneven epochs, so that the stack's
    # groups shrink at different times, on each of WORKERS.
    *(pinned(f"groups-{side}{over}", dict(chunks, stops=4), seeds=(3, 4, 5, 6),
             base_seeds=(30, 40, 50, 60), member_by_member=side == "member_by_member",
             workers=workers, members=3, max_epochs=120, **SPLITS)
      for workers, over, chunks in WORKERS
      for side in ["one_call", "member_by_member"]),
    *(pinned(f"groups-no-validation-{variant}", seeds=(1, 2, 3), base_seeds=(1, 2, 3), rows=50,
             variant=variant, hidden=(8,), members=2, batch_size=25, max_epochs=30, patience=4)
      for variant in ["gaussian_nll", "interval_only"]),
    # Group 1's validation rows overflow every member's head, and group 3's
    # training rows overflow at the first batch.  Over 3 workers group 1
    # fails in the parent and in the first child, group 3 in the second.
    *(pinned(f"group-fails{over}", dict(chunks, fails={1: "non-finite validation loss",
                                                       3: "diverged at epoch 1, batch 0"}),
             seeds=(7, 8, 9, 10), base_seeds=(7, 8, 9, 10), rows=70, valid=0.25,
             overflow=((1, "valid"), (3, "train")), workers=workers, hidden=(8,), members=3,
             batch_size=20, max_epochs=25, patience=4)
      for workers, over, chunks in WORKERS),
    # A group split between chunks trains its members j in each chunk, with
    # no validation, with the stack validated in one call, or member by member.
    *(pinned(f"{side}-{count}x{members}-over-{workers}", {"chunks": chunks, "stops": 2},
             seeds=tuple(range(3, 3 + count)), base_seeds=tuple(range(30, 30 + 10 * count, 10)),
             member_by_member=side == "member_by_member", workers=workers, members=members,
             max_epochs=60, **dict(SPLITS, **no_validation))
      for side, no_validation in [("none", {"rows": 52, "valid": 0.0}), ("one_call", {}),
                                  ("member_by_member", {})]
      for (count, members, workers), chunks in [((1, 5, 2), [2, 3]), ((1, 5, 3), [1, 2, 2]),
                                                ((3, 2, 2), [3, 3])]),
    # A heavy stack of 5 members on 2 CPUs trains in chunks of at most
    # 5 // 2 members, three processes time-sliced over the two CPUs.
    *(pinned(f"heavy-{side}-1x5-over-2", {"chunks": [1, 2, 2], "stops": 2}, heavy=True,
             seeds=(3,), base_seeds=(30,), member_by_member=side == "member_by_member",
             workers=2, members=5, max_epochs=60, **dict(SPLITS, **no_validation))
      for side, no_validation in [("none", {"rows": 52, "valid": 0.0}), ("one_call", {}),
                                  ("member_by_member", {})]),
    # Two groups of 3 members make chunks of at most 6 // 2, as a light stack does.
    pinned("heavy-2x3-over-2", {"chunks": [3, 3], "stops": 2}, heavy=True, seeds=(3, 4),
           base_seeds=(30, 40), workers=2, members=3, max_epochs=60, **SPLITS),
    *(pinned(name, {"chunks": chunks, "diverge": epochs}, base_seeds=(base_seed,),
             workers=workers, heavy=heavy, **DIVERGES)
      for name, workers, heavy, base_seed, chunks, epochs in [
          # The parent's members train through; the child's fail, 3 before 2.
          ("child-fails", 2, False, 11, [2, 3], [None, None, 8, 5, 10]),
          ("parent-fails", 2, False, 27, [2, 3], [9, 8, None, None, None]),
          # Both fail, member 2 in the child three epochs before member 1.
          ("higher-member-fails-first", 2, False, 8, [2, 3], [None, 8, 5, None, None]),
          # Member 3 fails in the second child three epochs before member 2
          # in the first.
          ("two-children-fail", 3, False, 11, [1, 2, 2], [None, None, 8, 5, 10]),
          # The same on 2 CPUs, the stack heavy.
          ("heavy-two-children-fail", 2, True, 11, [1, 2, 2], [None, None, 8, 5, 10])]),
    # 68 training rows of batch 9: seven full batches and a partial one of 5.
    *(pinned(f"normalized-{variant}", {"last_batch": 5, "stops": 2}, normalized=True,
             seeds=(4,), base_seeds=(21,), rows=80, features=5, valid=0.15, variant=variant,
             hidden=(16,), members=4, batch_size=9, max_epochs=120, patience=2,
             learning_rate=0.05)
      for variant in ["joint", "gaussian_nll"]),
    pinned("normalized-no-validation", normalized=True, seeds=(4,), base_seeds=(21,), rows=50,
           features=2, hidden=(8,), members=2, batch_size=50, max_epochs=30, patience=30),
]


@pytest.mark.parametrize("layout, expect", PINNED)
def test_a_pinned_layout_trains_like_its_members_one_after_another(layout, expect):
    outcomes, chunks, wants = check_layout(layout)
    assert chunks is None or "chunks" not in expect or chunks == [expect["chunks"]]
    fails = expect.get("fails", {})
    if "diverge" in expect:
        assert [getattr(o, "epoch", None) for o in wants[0]] == expect["diverge"]
        j, epoch = next((j, e) for j, e in enumerate(expect["diverge"]) if e is not None)
        fails = {0: f"member {j}: diverged at epoch {epoch},"}
    errors = {g: str(o) for g, o in enumerate(outcomes) if isinstance(o, TrainingDiverged)}
    assert errors.keys() == fails.keys()
    assert all(fails[g] in errors[g] for g in fails)
    epochs = [h.epochs_run for g, o in enumerate(outcomes) if g not in errors for h in o[1]]
    assert epochs == expect.get("epochs", epochs)
    opt = layout.config.optimizer
    if "stops" in expect:
        assert len(set(epochs)) >= expect["stops"] and max(epochs) < opt.max_epochs
    if "differ" in expect:
        assert len({row.tobytes() for row in outcomes[0][0].flat}) == layout.config.ensemble_size
    if "last_batch" in expect:
        assert next(layout.groups())[1].n % opt.batch_size == expect["last_batch"]


@pytest.mark.parametrize("workers", [1, 2])
def test_histories_hold_python_numbers(workers):
    # A numpy scalar would compare and encode alike, but pickles to about
    # twice the bytes over a forked child's pipe.
    train, valid = group_rows(5)
    with fork_over(workers) as chunks:
        _, histories = train_ensemble(stack_config(members=3, max_epochs=8, patience=1),
                                      train, valid, 7)
    assert chunks == ([[1, 2]] if workers == 2 and training._blas_threads() else [])
    for history in histories:
        assert type(history.epochs_run) is int
        assert {type(v) for v in history.train_loss + history.val_loss} == {float}


def test_no_groups_train_to_no_outcomes():
    assert train_ensemble(stack_config(members=2), [], [], []) == []


def test_groups_must_hold_equally_many_rows():
    cfg = stack_config(members=2)
    (train, valid), (short, _) = group_rows(3), group_rows(4, n=60)
    with pytest.raises(ShapeError, match="unequal"):
        train_ensemble(cfg, [train, short], [None, None], [1, 2])
    with pytest.raises(ShapeError, match="unequal"):
        train_ensemble(cfg, [train, train], [valid, None], [1, 2])
    with pytest.raises(ShapeError, match="2 training sets, 1 validation sets"):
        train_ensemble(cfg, [train, train], [None], [1, 2])


# ---------------------------------------------------------------------------
# Training rows normalized batch by batch against a normalized copy.
# ---------------------------------------------------------------------------


def test_run_split_reports_like_a_normalized_training_copy(monkeypatch):
    # Every split, reports included, against the prepare phase handing the
    # trainer apply_normalize's copy of the training rows.
    import pireg.bench as bench_mod

    dataset = strided_table(n=120)
    cfg = dataclasses.replace(
        stack_config(hidden=(8,), members=3, batch_size=16, max_epochs=40, patience=3,
                     validation_fraction=0.2), splits=SplitPlan(count=3, test_fraction=0.1))
    got = bench_mod._run_splits(cfg, dataset, 0.0)
    monkeypatch.setattr(bench_mod, "NormalizedRows", apply_normalize)
    want = bench_mod._run_splits(cfg, dataset, 0.0)
    assert [dataclasses.replace(s, seconds=0.0) for s in got.splits] \
        == [dataclasses.replace(s, seconds=0.0) for s in want.splits]
    assert len(got.splits) == 3 and got.errors == []


# ---------------------------------------------------------------------------
# Members spread over forked workers.
# ---------------------------------------------------------------------------


def test_work_below_the_threshold_trains_in_process(forked_chunks):
    chunks = forked_chunks(2)
    cfg = stack_config(hidden=(8,), members=2, batch_size=25, max_epochs=10)
    data = [sine_train(n=50, seed=seed) for seed in (1, 2, 3)]
    runs = []
    for work in (3 * 2 * 10 * 50 + 1, 3 * 2 * 10 * 50):
        with mock.patch.object(training, "FORK_MIN_WORK", work):
            runs.append([(stack.flat.tobytes(), histories) for stack, histories
                         in train_ensemble(cfg, data, [None] * 3, [1, 2, 3])])
    assert chunks == [[3, 3]] and runs[0] == runs[1]


# The published (rows, features) of the catalogued UCI tables.
UCI_SHAPES = {"boston": (506, 13), "concrete": (1_030, 8), "energy": (768, 8),
              "kin8nm": (8_192, 8), "naval": (11_934, 16), "power": (9_568, 4),
              "protein": (45_730, 9), "wine": (1_599, 11), "yacht": (308, 6),
              "msd": (515_345, 90)}
# The chunk sizes a stack trains in on 1, 2, 3, 4 and 8 CPUs, by its member
# count and whether it is heavy.
CUTS = {
    (5, False): [[5], [2, 3], [1, 2, 2], [1, 1, 1, 2], [1] * 5],
    (5, True): [[5], [1, 2, 2], [1] * 5, [1] * 5, [1] * 5],
    (25, False): [[25], [12, 13], [8, 8, 9], [6, 6, 6, 7], [3] * 7 + [4]],
    (100, False): [[100], [50, 50], [33, 33, 34], [25] * 4, [12, 13] * 4],
}


def catalog_cuts():
    # Every catalogued run, a UCI table at its published shape, then
    # perfbench's workloads (perfbench/workloads.py): sine_bench is the sine
    # entry, sine_ensemble trains 5 members on 100 rows in full batches, and
    # table_ingest is msd on a 50,000-row table for 3 epochs.  Each as
    # (config, members, training rows of a split, features, heavy).
    for name in CATALOG:
        config = default_config(name)
        n, dim = UCI_SHAPES[name] if config.data.kind == "file" else (config.data.n, 1)
        rows, _ = split(Dataset(np.zeros((n, 1)), np.zeros(n)), config.splits.test_fraction,
                        config.seed, 0)
        rows, _ = carve_validation(rows, config.optimizer.validation_fraction, config.seed, 0)
        yield pytest.param(config, config.splits.count * config.ensemble_size, len(rows), dim,
                           name == "msd", id=name)
    yield pytest.param(stack_config(hidden=(100,), members=5, batch_size=100, max_epochs=2500),
                       5, 100, 1, False, id="sine_ensemble")
    msd = default_config("msd")
    yield pytest.param(dataclasses.replace(msd, optimizer=dataclasses.replace(
        msd.optimizer, max_epochs=3)), 5, 40_500, 90, True, id="table_ingest")


@pytest.mark.parametrize("config, members, rows, dim, heavy", catalog_cuts())
def test_every_catalogued_run_and_workload_is_cut_as_measured(monkeypatch, config, members,
                                                               rows, dim, heavy):
    # Cuts at 3 or more CPUs follow the rule but are unmeasured in time and memory.
    if training._blas_threads() is None:
        pytest.skip("training forks only with OpenBLAS thread controls, not found here")

    def cuts(step_work=training.HEAVY_STEP_WORK):
        monkeypatch.setattr(training, "HEAVY_STEP_WORK", step_work)
        sizes = []
        for cpus in (1, 2, 3, 4, 8):
            monkeypatch.setattr(training, "_cpus", lambda: cpus)
            k = training._workers(config, members, rows, dim)
            sizes.append(np.diff([members * i // k for i in range(k + 1)]).tolist())
        return sizes

    assert cuts() == CUTS[members, heavy]
    assert cuts(0 if heavy else math.inf) == CUTS[members, heavy] != cuts(
        math.inf if heavy else 0)


def test_a_stack_whose_products_threaded_blas_would_split_forks():
    # Batches of 300 rows through a 60 x 64 layer are 1,152,000 multiply-adds
    # a member, above the 2**19 at which two processes each running OpenBLAS
    # threads once lost seconds; at one thread a process, the stack, a heavy
    # one, forks and trains as its members do one after another.
    assert 300 * 4_099 >= training.HEAVY_STEP_WORK
    _, chunks, _ = check_layout(Layout(
        stack_config(hidden=(64,), members=3, batch_size=300, max_epochs=4),
        seeds=(5,), base_seeds=(9,), rows=600, features=60, valid=0.25, workers=2,
        heavy=True))
    assert chunks is None or chunks == [[1, 1, 1]]


@pytest.fixture
def blas_threads():
    """The getter of the BLAS thread count that ``train_ensemble`` pins, with
    the count at 2 for the test and given back after it."""
    if training._blas_threads() is None:
        pytest.skip("no OpenBLAS thread controls found in this process")
    get, put = training._blas_threads()
    before = get()
    put(2)
    yield get
    put(before)


def record_blas_threads(monkeypatch, get, log):
    """Make each ``_train_members`` call, in this process or a forked child,
    append its pid and BLAS thread count to file ``log``; return a reader
    of the (pid, count) pairs."""
    real = training._train_members

    def train_members(config, members, shape):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()} {get()}\n")
        return real(config, members, shape)

    monkeypatch.setattr(training, "_train_members", train_members)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_members_train_at_one_blas_thread_in_the_parent_and_in_children(
        monkeypatch, tmp_path, forked_chunks, blas_threads):
    chunks = forked_chunks(2)
    records = record_blas_threads(monkeypatch, blas_threads, tmp_path / "threads")
    train_ensemble(stack_config(hidden=(4,), members=2, batch_size=25, max_epochs=5),
                   sine_train(n=50), None, 1)
    assert chunks == [[1, 1]]
    threads = dict(records())  # by pid; the child may write first
    assert threads.pop(os.getpid()) == 1
    assert list(threads.values()) == [1]
    assert blas_threads() == 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("diverges", [False, True], ids=["returns", "diverges"])
def test_the_callers_blas_threads_are_back_after_training(blas_threads, workers, diverges):
    config = stack_config(**dict(DIVERGES, learning_rate=8e52 if diverges else 0.02))
    outcomes, _, _ = check_layout(Layout(config, workers=workers))
    assert getattr(outcomes[0], "member", None) == (2 if diverges else None)
    assert blas_threads() == 2


def test_the_callers_blas_threads_are_back_after_a_child_raises(monkeypatch, forked_chunks,
                                                                blas_threads):
    forked_chunks(3)
    with pytest.raises(KeyError, match="boom"):
        train_failing_chunk(monkeypatch, 3, lambda: KeyError("boom"))
    assert blas_threads() == 2


def test_threads_training_at_once_keep_one_blas_thread_until_the_last_returns(
        monkeypatch, blas_threads):
    # Call 1 is pinned first and returns first, while call 2 is pinned too;
    # call 2 must keep its one thread, and the count it found set must not
    # outlive it.
    entered, overlapped, returned = (threading.Event() for _ in range(3))
    seen = []
    real = training._train_members

    def train_members(config, members, shape):
        if members[0][3] == 1:
            entered.set()
            overlapped.wait(30)
        else:
            overlapped.set()
            returned.wait(30)
            seen.append(blas_threads())
        return real(config, members, shape)

    monkeypatch.setattr(training, "_train_members", train_members)
    cfg = stack_config(hidden=(4,), members=2, batch_size=25, max_epochs=5)
    calls = [threading.Thread(target=train_ensemble, args=(cfg, sine_train(n=50), None, seed))
             for seed in (1, 2)]
    calls[0].start()
    entered.wait(30)
    calls[1].start()
    calls[0].join()
    returned.set()
    calls[1].join()
    assert seen == [1]
    assert blas_threads() == 2


def test_without_blas_controls_a_stack_trains_in_process_unpinned(monkeypatch, tmp_path,
                                                                  forked_chunks, blas_threads):
    # Criterion 5's sine stack, shortened: its products are below OpenBLAS's
    # own threading sizes, so the pin moves none of its bits.
    cfg = stack_config(hidden=(100,), members=5, batch_size=100, max_epochs=40)
    data = sine_train(n=100)
    chunks = forked_chunks(2)
    want_stack, want_histories = train_ensemble(cfg, data, None, 100)
    assert chunks == [[2, 3]]
    monkeypatch.setattr(training, "_blas_threads", lambda: None)
    assert training._workers(cfg, 5, data.n, data.dim) == 1
    records = record_blas_threads(monkeypatch, blas_threads, tmp_path / "threads")
    stack, histories = train_ensemble(cfg, data, None, 100)
    assert chunks == [[2, 3]] and records() == [(os.getpid(), 2)]
    assert stack.flat.tobytes() == want_stack.flat.tobytes()
    assert histories == want_histories


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this error")


def train_failing_chunk(monkeypatch, fail, error, others=lambda: None):
    """train_ensemble on three groups of two members, base seeds 1, 2 and
    3, over three workers, where the chunk holding group ``fail`` raises
    ``error()`` and every other chunk calls ``others()`` first: group 1
    trains in the parent, groups 2 and 3 in the two children."""
    real = training._train_members

    def train_members(config, members, shape):
        if any(group + 1 == fail for group, *_ in members):
            raise error()
        others()
        return real(config, members, shape)

    monkeypatch.setattr(training, "_train_members", train_members)
    cfg = stack_config(hidden=(4,), members=2, batch_size=25, max_epochs=5)
    data = sine_train(n=50)
    return train_ensemble(cfg, [data] * 3, [None] * 3, [1, 2, 3])


@pytest.mark.parametrize("fail", [1, 3])
def test_no_worker_outlives_a_raising_train_ensemble(monkeypatch, forked_chunks, fail):
    # When the parent's own chunk raises, both children are still busy.
    chunks = forked_chunks(3)
    busy = (lambda: time.sleep(60)) if fail == 1 else (lambda: None)
    started = time.perf_counter()
    with pytest.raises(KeyError, match="boom"):
        train_failing_chunk(monkeypatch, fail, lambda: KeyError("boom"), busy)
    assert time.perf_counter() - started < 30
    assert chunks == [[2, 2, 2]]
    assert_no_child_left()


def test_a_child_raises_its_error_in_the_parent_with_sigint_ignored(monkeypatch, forked_chunks):
    forked_chunks(3)
    with pytest.raises(LookupError) as err:
        train_failing_chunk(monkeypatch, 2, lambda: LookupError(signal.getsignal(signal.SIGINT)))
    assert err.value.args == (signal.SIG_IGN,)
    assert signal.getsignal(signal.SIGINT) is not signal.SIG_IGN
    assert_no_child_left()


def test_an_unpicklable_child_error_comes_back_as_its_traceback(monkeypatch, forked_chunks):
    forked_chunks(3)
    with pytest.raises(RuntimeError, match="(?s)a training worker raised:.*"
                                           "_Unpicklable: lost in transit"):
        train_failing_chunk(monkeypatch, 3, lambda: _Unpicklable("lost in transit"))


def test_a_child_that_dies_without_an_answer_fails_the_call(monkeypatch, forked_chunks):
    # Group 3 trains in the last child forked, which the parent holds no
    # writing end of once it has started.
    forked_chunks(3)
    parent = os.getpid()
    with pytest.raises(RuntimeError, match="exited with code 7"):
        train_failing_chunk(monkeypatch, 3, lambda: os._exit(7) if os.getpid() != parent
                            else RuntimeError("trained in the parent"))
    assert_no_child_left()


def test_a_failed_fork_trains_in_process_and_leaves_no_worker_or_descriptor(monkeypatch,
                                                                           forked_chunks):
    # The second of two forks fails (EAGAIN, as under a process limit): the
    # first child is killed and reaped, no pipe stays open, and every member
    # trains in this process, with the outcomes it has there.
    with fork_over(1) as chunks:
        want = train_failing_chunk(monkeypatch, 0, None)
    assert chunks == []
    forked_chunks(3)
    real, forks = os.fork, []

    def fork():
        if forks:
            raise OSError(errno.EAGAIN, "no process for you")
        forks.append(os.getpid())
        return real()

    before = open_descriptors()
    monkeypatch.setattr(os, "fork", fork)
    got = train_failing_chunk(monkeypatch, 0, None)
    assert len(forks) == 1
    assert_no_child_left()
    assert open_descriptors() == before
    assert [(s.flat.tobytes(), h) for s, h in got] == [(s.flat.tobytes(), h) for s, h in want]


def test_a_forked_training_diverged_keeps_its_location(monkeypatch, forked_chunks):
    forked_chunks(3)
    with pytest.raises(TrainingDiverged) as err:
        train_failing_chunk(monkeypatch, 3, lambda: TrainingDiverged(
            "member 1: diverged", epoch=4, batch_index=2, member=1))
    exc = err.value
    assert (exc.member, exc.epoch, exc.batch_index, str(exc)) == (1, 4, 2, "member 1: diverged")
