"""Tests for the mini-batch trainer: early stopping, determinism, divergence
diagnostics, ensemble fan-out, and validation carving.

The stacked trainer's oracle is ``sequential_ensemble`` below: it trains
the members one after another, each alone through the single-model path of
``backward``, ``adam_step`` and ``loss_value``, and must agree bit for bit.
"""

import dataclasses
import multiprocessing
import os
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import pireg.training as training
from pireg.bench import ensemble_predict
from pireg.config import DataSpec, ExperimentConfig, ModelSpec, OptimizerSpec, SplitPlan
from pireg.data import Dataset, NormalizedRows, apply_normalize, fit_normalize, generate
from pireg.errors import ShapeError, TrainingDiverged
from pireg.losses import (VARIANTS, LossConfig, hard_capture, head_loss_and_grad, initial_head,
                          interval_link)
from pireg.network import FeedForwardModel, backward, forward, loss_value
from pireg.optim import adam_step, init_adam
from pireg.training import TrainingHistory, build_model, carve_validation, train_ensemble


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


def test_history_bookkeeping_without_validation():
    cfg = small_config(max_epochs=15)
    _, hist = train_single(cfg, sine_train(), None, seed=4)
    assert hist.epochs_run == 15
    assert len(hist.train_loss) == len(hist.val_loss) == 15
    # no validation set: the epoch-mean training loss drives selection
    assert hist.val_loss == hist.train_loss


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


def test_divergence_reports_epoch_and_batch():
    cfg = small_config(learning_rate=0.02)
    # feature magnitudes overflow the first matmul into inf immediately
    bad = Dataset(np.full((12, 1), 1e300), np.zeros(12))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as err:
        train_single(cfg, bad, None, seed=0)
    assert err.value.epoch == 1
    assert err.value.batch_index == 0
    assert "epoch 1" in str(err.value)


def test_ensemble_single_member_matches_train_single():
    cfg = ExperimentConfig(name="unit", data=DataSpec(kind="sine", n=40),
                           model=ModelSpec(hidden_sizes=(8,)),
                           optimizer=OptimizerSpec(learning_rate=0.02, max_epochs=10,
                                                   batch_size=10),
                           ensemble_size=1)
    data = sine_train()
    stack, hists = train_ensemble(cfg, data, None, base_seed=100)
    solo, solo_hist = train_single(cfg, data, None, seed=100)
    assert stack.flat.shape == (1,) + solo.flat.shape
    assert np.array_equal(stack.flat[0], solo.flat)
    assert hists[0].train_loss == solo_hist.train_loss


def test_ensemble_members_use_offset_seeds_and_differ():
    cfg = ExperimentConfig(name="unit", data=DataSpec(kind="sine", n=40),
                           model=ModelSpec(hidden_sizes=(8,)),
                           optimizer=OptimizerSpec(learning_rate=0.02, max_epochs=8,
                                                   batch_size=10),
                           ensemble_size=3)
    data = sine_train()
    stack, hists = train_ensemble(cfg, data, None, base_seed=50)
    assert stack.flat.shape[0] == len(hists) == 3
    member1, _ = train_single(cfg, data, None, seed=51)
    assert np.array_equal(stack.flat[1], member1.flat)
    assert not np.array_equal(stack.weights[0][0], stack.weights[0][2])


def test_ensemble_divergence_carries_member_index():
    cfg = ExperimentConfig(name="unit", data=DataSpec(kind="sine", n=12),
                           model=ModelSpec(hidden_sizes=(4,)),
                           optimizer=OptimizerSpec(max_epochs=5, batch_size=4),
                           ensemble_size=2)
    bad = Dataset(np.full((12, 1), 1e300), np.zeros(12))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as err:
        train_ensemble(cfg, bad, None, base_seed=0)
    assert err.value.member == 0
    assert "member 0" in str(err.value)


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
    models, histories = [], []
    for j in range(config.ensemble_size):
        try:
            model, history = sequential_member(config, train, valid, base_seed + j)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"member {j}: {exc}", epoch=exc.epoch,
                                   batch_index=exc.batch_index, member=j) from exc
        models.append(model)
        histories.append(history)
    return models, histories


def stack_config(variant="joint", hidden=(12,), members=4, **optimizer):
    opt = dict(learning_rate=0.02, decay=0.999, batch_size=10, max_epochs=40,
               patience=40, validation_fraction=0.0)
    opt.update(optimizer)
    return ExperimentConfig(name="stack", model=ModelSpec(hidden_sizes=hidden),
                            loss=LossConfig(variant=variant),
                            optimizer=OptimizerSpec(**opt), ensemble_size=members)


def assert_same_training(config, train, valid, base_seed=11):
    stack, histories = train_ensemble(config, train, valid, base_seed)
    want_models, want_histories = sequential_ensemble(config, train, valid, base_seed)
    assert len(histories) == config.ensemble_size
    assert all(stack.layer_sizes == want.layer_sizes for want in want_models)
    assert np.array_equal(stack.flat, np.stack([want.flat for want in want_models]))
    for history, want in zip(histories, want_histories):
        assert history.train_loss == want.train_loss
        assert history.val_loss == want.val_loss
        assert history.epochs_run == want.epochs_run
    return histories


def test_stacked_full_batch_joint_matches_sequential():
    histories = assert_same_training(
        stack_config(hidden=(32,), members=3, batch_size=40, max_epochs=80, patience=80),
        sine_train(), None)
    assert [h.epochs_run for h in histories] == [80, 80, 80]


def test_stacked_members_stopping_at_different_epochs_match_sequential():
    # 52 rows of batch 6: eight full batches and a partial one of 4.  Nine
    # batch losses per epoch take numpy's unrolled pairwise summation, which
    # a mean over anything but a contiguous row would reorder.
    train, valid = carve(sine_train(n=70), 0.25, seed=5, split_index=0)
    assert train.n % 6 == 4
    cfg = stack_config(hidden=(16, 8), members=5, batch_size=6, max_epochs=150,
                       patience=3, learning_rate=0.05)
    histories = assert_same_training(cfg, train, valid)
    assert len({h.epochs_run for h in histories}) > 1
    assert max(h.epochs_run for h in histories) < 150


@pytest.mark.parametrize("variant", ["gaussian_nll", "decoupled", "midpoint", "interval_only"])
def test_stacked_variants_match_sequential(variant):
    data = sine_train(n=60)
    rng = np.random.default_rng(2)
    wide = Dataset(np.column_stack([data.features, rng.normal(size=(data.n, 2))]), data.targets)
    train, valid = carve(wide, 0.2, seed=5, split_index=1)
    assert_same_training(stack_config(variant, members=3, batch_size=17, max_epochs=50,
                                      patience=5), train, valid)


def raised(train_fn, *args):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as err:
        train_fn(*args)
    exc = err.value
    return exc.member, exc.epoch, exc.batch_index, str(exc)


@pytest.mark.parametrize("learning_rate", [8e52, 3.5e53])
def test_stacked_divergence_raises_the_sequential_error(learning_rate):
    # Steps this large overflow a member's network after a number of epochs
    # that depends on its seed.  At 8e52 members 2, 3 and 4 diverge at epochs
    # 8, 5 and 10, so the stack drops 3 and 4 first, then 2, and must still
    # report member 2; at 3.5e53 the loss itself turns non-finite.
    data = sine_train()
    cfg = stack_config(hidden=(8,), members=5, max_epochs=15, patience=15,
                       learning_rate=learning_rate, decay=1.0)
    epochs = set()
    for j in range(cfg.ensemble_size):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                sequential_member(cfg, data, None, 11 + j)
            except TrainingDiverged as exc:
                epochs.add(exc.epoch)
    assert len(epochs) > 1
    got = raised(train_ensemble, cfg, data, None, 11)
    assert got == raised(sequential_ensemble, cfg, data, None, 11)


def assert_groups_train_like_each_alone(config, groups):
    outcomes = train_ensemble(config, *(list(parts) for parts in zip(*groups)))
    assert len(outcomes) == len(groups)
    for (train, valid, base_seed), got in zip(groups, outcomes):
        if isinstance(got, TrainingDiverged):
            want = raised(train_ensemble, config, train, valid, base_seed)
            assert (got.member, got.epoch, got.batch_index, str(got)) == want
            continue
        stack, histories = got
        want_stack, want_histories = train_ensemble(config, train, valid, base_seed)
        assert stack.flat.tobytes() == want_stack.flat.tobytes()
        assert histories == want_histories
    return outcomes


def group_rows(seed, n=70, width=2):
    # One group's rows: sine targets beside noise columns, carved like a split.
    data = sine_train(n=n, seed=seed)
    noise = np.random.default_rng(seed).normal(size=(n, width - 1))
    return carve(Dataset(np.column_stack([data.features, noise]), data.targets),
                 0.25, seed=seed, split_index=0)


@pytest.mark.parametrize("member_by_member", [False, True])
def test_groups_in_one_stack_train_like_each_group_alone(monkeypatch, member_by_member):
    # Four groups on their own rows, members stopping at uneven epochs, so
    # the stack's groups shrink at different times.  Validation forwards the
    # stack in one call on its members' rows stacked, or, with no stack
    # fitting STACK_FORWARD_BYTES, member by member on its group's own copy.
    if member_by_member:
        monkeypatch.setattr("pireg.network.STACK_FORWARD_BYTES", 0)
    cfg = stack_config(hidden=(16,), members=3, batch_size=12, max_epochs=120, patience=3,
                       learning_rate=0.05)
    groups = [(*group_rows(seed), 10 * seed) for seed in (3, 4, 5, 6)]
    outcomes = assert_groups_train_like_each_alone(cfg, groups)
    epochs = [h.epochs_run for _, histories in outcomes for h in histories]
    assert len(set(epochs)) > 3 and max(epochs) < 120


@pytest.mark.parametrize("variant", ["gaussian_nll", "interval_only"])
def test_groups_without_validation_train_like_each_group_alone(variant):
    cfg = stack_config(variant, hidden=(8,), members=2, batch_size=25, max_epochs=30,
                       patience=4)
    groups = [(sine_train(n=50, seed=seed), None, seed) for seed in (1, 2, 3)]
    assert_groups_train_like_each_alone(cfg, groups)


def test_a_diverging_group_fails_alone():
    # Group 1's validation rows overflow every member's head, and group 3's
    # training rows overflow at the first batch; groups 0 and 2 train on as
    # if alone, and each failing group reports the error it raises alone.
    cfg = stack_config(hidden=(8,), members=3, batch_size=20, max_epochs=25, patience=4)
    groups = [(*group_rows(seed, width=1), seed) for seed in (7, 8, 9, 10)]
    train, valid, base = groups[1]
    groups[1] = (train, Dataset(valid.features * 1e300, valid.targets), base)
    train, valid, base = groups[3]
    groups[3] = (Dataset(train.features * 1e300, train.targets), valid, base)
    outcomes = assert_groups_train_like_each_alone(cfg, groups)
    assert [isinstance(o, TrainingDiverged) for o in outcomes] == [False, True, False, True]
    assert "non-finite validation loss" in str(outcomes[1])
    assert "diverged at epoch 1, batch 0" in str(outcomes[3])


def test_groups_must_hold_equally_many_rows():
    cfg = stack_config(members=2)
    (train, valid), (short, _) = group_rows(3), group_rows(4, n=60)
    with pytest.raises(ShapeError, match="unequal"):
        train_ensemble(cfg, [train, short], [None, None], [1, 2])
    with pytest.raises(ShapeError, match="unequal"):
        train_ensemble(cfg, [train, train], [valid, None], [1, 2])
    with pytest.raises(ShapeError, match="2 training sets, 1 validation sets"):
        train_ensemble(cfg, [train, train], [None], [1, 2])


def test_stacked_validation_divergence_raises_the_sequential_error():
    data = sine_train()
    valid = Dataset(data.features * 1e300, data.targets)
    cfg = stack_config(members=3)
    got = raised(train_ensemble, cfg, data, valid, 11)
    assert got == raised(sequential_ensemble, cfg, data, valid, 11)
    assert got[0] == 0 and got[2] is None
    assert "non-finite validation loss" in got[3]


# ---------------------------------------------------------------------------
# Training rows normalized batch by batch against a normalized copy.
# ---------------------------------------------------------------------------


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


def assert_rows_train_like_the_copy(config, dataset, fit_rows, valid_fraction):
    stats = fit_normalize(dataset, fit_rows)
    train_rows, valid_rows = carve_validation(fit_rows, valid_fraction, 7, 0)
    valid = None if valid_rows is None else apply_normalize(dataset, stats, valid_rows)
    rows = NormalizedRows(dataset, stats, train_rows)
    copy = apply_normalize(dataset, stats, train_rows)
    stack, histories = train_ensemble(config, rows, valid, 21)
    want_stack, want_histories = train_ensemble(config, copy, valid, 21)
    assert stack.flat.tobytes() == want_stack.flat.tobytes()
    assert histories == want_histories
    return histories


@pytest.mark.parametrize("variant", ["joint", "gaussian_nll"])
def test_normalized_rows_train_like_a_normalized_copy(variant):
    # 68 training rows of batch 9: seven full batches and a partial one of 5;
    # validation scored every epoch, members stopping at different epochs.
    dataset = strided_table()
    fit_rows = np.random.default_rng(1).permutation(dataset.n)[:80]
    cfg = stack_config(variant, hidden=(16,), members=4, batch_size=9, max_epochs=120,
                       patience=2, learning_rate=0.05)
    assert len(carve_validation(fit_rows, 0.15, 7, 0)[0]) == 68
    histories = assert_rows_train_like_the_copy(cfg, dataset, fit_rows, 0.15)
    assert len({h.epochs_run for h in histories}) > 1
    assert max(h.epochs_run for h in histories) < 120


def test_normalized_rows_without_validation_train_like_a_normalized_copy():
    dataset = strided_table(n=50, width=2)
    cfg = stack_config(hidden=(8,), members=2, batch_size=50, max_epochs=30, patience=30)
    assert_rows_train_like_the_copy(cfg, dataset, np.arange(50)[::-1], 0.0)


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
# Groups spread over forked workers.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("member_by_member", [False, True])
def test_forked_groups_train_like_each_group_alone(monkeypatch, forked_chunks, workers,
                                                   member_by_member):
    chunks = forked_chunks(workers)
    test_groups_in_one_stack_train_like_each_group_alone(monkeypatch, member_by_member)
    assert chunks == ([] if workers == 1 else [[1, 1, 2]])


@pytest.mark.parametrize("workers", [1, 3])
def test_a_forked_diverging_group_fails_alone(forked_chunks, workers):
    # Groups 1 and 3 fail; at 3 workers (chunks [0], [1], [2, 3]) both fail
    # in children, so their errors come back through the pipes.
    chunks = forked_chunks(workers)
    test_a_diverging_group_fails_alone()
    assert chunks == ([] if workers == 1 else [[1, 1, 2]])


def test_work_below_the_threshold_trains_in_process(monkeypatch, forked_chunks):
    chunks = forked_chunks(2)
    cfg = stack_config(hidden=(8,), members=2, batch_size=25, max_epochs=10)
    groups = [(sine_train(n=50, seed=seed), None, seed) for seed in (1, 2, 3)]
    monkeypatch.setattr(training, "FORK_MIN_WORK", 3 * 2 * 10 * 50 + 1)
    assert_groups_train_like_each_alone(cfg, groups)
    monkeypatch.setattr(training, "FORK_MIN_WORK", 3 * 2 * 10 * 50)
    assert_groups_train_like_each_alone(cfg, groups)
    assert chunks == [[1, 2]]


def test_a_product_large_enough_for_threaded_blas_trains_in_process(monkeypatch,
                                                                    forked_chunks):
    chunks = forked_chunks(2)
    cfg = stack_config(hidden=(8,), members=2, batch_size=25, max_epochs=10)
    groups = [(sine_train(n=50, seed=seed), None, seed) for seed in (1, 2)]
    # The widest product is a batch of 25 rows through the 8 x 3 head.
    monkeypatch.setattr(training, "FORK_MAX_PRODUCT", 25 * 8 * 3 - 1)
    assert_groups_train_like_each_alone(cfg, groups)
    monkeypatch.setattr(training, "FORK_MAX_PRODUCT", 25 * 8 * 3)
    assert_groups_train_like_each_alone(cfg, groups)
    assert chunks == [[1, 1]]


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this error")


def train_failing_chunk(monkeypatch, fail, error, others=lambda: None):
    """train_ensemble on three groups of base seeds 1, 2 and 3 over three
    workers, where the chunk holding group ``fail`` raises ``error()`` and
    every other chunk calls ``others()`` first: group 1 trains in the
    parent, groups 2 and 3 in the two children."""
    real = training._train_groups

    def train_groups(config, groups, shape):
        if any(seed == fail for _, _, seed in groups):
            raise error()
        others()
        return real(config, groups, shape)

    monkeypatch.setattr(training, "_train_groups", train_groups)
    cfg = stack_config(hidden=(4,), members=2, batch_size=25, max_epochs=5)
    data = sine_train(n=50)
    train_ensemble(cfg, [data] * 3, [None] * 3, [1, 2, 3])


@pytest.mark.parametrize("fail", [1, 3])
def test_no_worker_outlives_a_raising_train_ensemble(monkeypatch, forked_chunks, fail):
    # When the parent's own chunk raises, both children are still busy.
    chunks = forked_chunks(3)
    busy = (lambda: time.sleep(60)) if fail == 1 else (lambda: None)
    started = time.perf_counter()
    with pytest.raises(KeyError, match="boom"):
        train_failing_chunk(monkeypatch, fail, lambda: KeyError("boom"), busy)
    assert time.perf_counter() - started < 30
    assert chunks == [[1, 1, 1]]
    assert multiprocessing.active_children() == []


def test_a_child_raises_its_error_in_the_parent_with_sigint_ignored(monkeypatch, forked_chunks):
    forked_chunks(3)
    with pytest.raises(LookupError) as err:
        train_failing_chunk(monkeypatch, 2, lambda: LookupError(signal.getsignal(signal.SIGINT)))
    assert err.value.args == (signal.SIG_IGN,)
    assert signal.getsignal(signal.SIGINT) is not signal.SIG_IGN
    assert multiprocessing.active_children() == []


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
    assert multiprocessing.active_children() == []


def test_a_forked_training_diverged_keeps_its_location(monkeypatch, forked_chunks):
    forked_chunks(3)
    with pytest.raises(TrainingDiverged) as err:
        train_failing_chunk(monkeypatch, 3, lambda: TrainingDiverged(
            "member 1: diverged", epoch=4, batch_index=2, member=1))
    exc = err.value
    assert (exc.member, exc.epoch, exc.batch_index, str(exc)) == (1, 4, 2, "member 1: diverged")
