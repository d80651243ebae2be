"""Tests for the benchmark harness: split orchestration, aggregate consistency,
report emission/parsing round-trips, sweeps, and failure accounting."""

import dataclasses
import errno
import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from pireg.bench import (
    CURVE_SAMPLE_CAP,
    ensemble_predict,
    load_dataset,
    run_alpha_sweep,
    run_benchmark,
    run_hyperparam_sweep,
)
from pireg.config import (DataSpec, ExperimentConfig, ModelSpec, OptimizerSpec,
                          SplitPlan, config_to_dict)
from pireg.data import (Dataset, NormalizedRows, apply_normalize, denormalize_targets,
                        fit_normalize, split)
from pireg.ensemble import z_score
from pireg.errors import ConfigError, DataError, PiregError, TrainingDiverged
from pireg.losses import MIX_EPS, VARIANCE_FLOOR, VARIANTS, LossConfig
from pireg.metrics import METRIC_NAMES, aggregate_splits, metrics_record
from pireg.network import FeedForwardModel, init_model
from pireg.report import (REPORT_VERSION, RunReport, SplitResult, emit_report, format_report,
                          load_report)
from pireg.training import carve_validation, train_ensemble


def tiny_config(**kwargs):
    base = dict(
        name="tiny",
        data=DataSpec(kind="sine", n=60),
        model=ModelSpec(hidden_sizes=(8,)),
        optimizer=OptimizerSpec(learning_rate=0.02, batch_size=15, max_epochs=25,
                                patience=25, validation_fraction=0.1),
        splits=SplitPlan(count=2, test_fraction=0.2),
        ensemble_size=2,
        seed=3,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_report():
    return run_benchmark(tiny_config())


def test_report_shape_contract(tiny_report):
    r = tiny_report
    assert r.kind == "benchmark" and r.version == REPORT_VERSION
    assert r.name == "tiny"
    assert [s.split_index for s in r.splits] == [0, 1]
    assert not r.partial and r.errors == []
    assert r.config == config_to_dict(tiny_config())
    for s in r.splits:
        assert len(s.member_epochs) == 2
        assert all(1 <= e <= 25 for e in s.member_epochs)
        assert s.normalized.n == 12  # 20% of 60
        assert len(s.loss_curve) <= CURVE_SAMPLE_CAP
        assert all(len(point) == 3 for point in s.loss_curve)
    for agg in (r.aggregate_normalized, r.aggregate_denormalized):
        assert set(agg) == set(METRIC_NAMES)


def test_aggregate_reproducible_from_split_rows(tiny_report):
    r = tiny_report
    assert aggregate_splits([s.normalized for s in r.splits]) == r.aggregate_normalized
    assert aggregate_splits([s.denormalized for s in r.splits]) == r.aggregate_denormalized
    picps = [s.normalized.picp for s in r.splits]
    assert r.aggregate_normalized["picp"].mean == pytest.approx(
        statistics.fmean(picps), rel=1e-12)
    assert r.aggregate_normalized["picp"].stderr == pytest.approx(
        statistics.stdev(picps) / len(picps) ** 0.5, rel=1e-12)


def test_split_metrics_recomputable_from_persisted_predictions(tiny_report):
    for s in tiny_report.splits:
        rows = np.asarray(s.predictions)
        y, lower, upper, value = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        assert float(np.mean((y >= lower) & (y <= upper))) == s.normalized.picp
        assert float(np.mean(upper - lower)) == pytest.approx(s.normalized.mpiw, rel=1e-12)
        assert float(np.sqrt(np.mean((value - y) ** 2))) == pytest.approx(
            s.normalized.rmse, rel=1e-12)


def test_benchmark_is_deterministic(tiny_report):
    again = run_benchmark(tiny_config())
    for a, b in zip(tiny_report.splits, again.splits):
        assert a.normalized == b.normalized
        assert a.denormalized == b.denormalized
        assert a.predictions == b.predictions
        assert a.member_epochs == b.member_epochs
    assert tiny_report.aggregate_normalized == again.aggregate_normalized


def test_store_predictions_off(tmp_path):
    cfg = tiny_config(store_predictions=False,
                      splits=SplitPlan(count=1, test_fraction=0.2))
    report = run_benchmark(cfg)
    assert report.splits[0].predictions is None
    written = emit_report(report, tmp_path / "nopred.json")
    assert not any(p.endswith("_predictions.csv") for p in written)


def test_emit_then_load_round_trips_exactly(tiny_report, tmp_path):
    written = emit_report(tiny_report, tmp_path / "tiny.json")
    assert written[0].endswith("tiny.json")
    loaded = load_report(written[0])
    assert loaded == tiny_report  # dataclass equality, float-exact


def test_emitted_csv_tables(tiny_report, tmp_path):
    written = emit_report(tiny_report, tmp_path / "tiny")
    by_suffix = {p.split("tiny")[-1]: p for p in written}
    assert set(by_suffix) == {".json", "_metrics.csv", "_aggregate.csv",
                              "_predictions.csv"}

    metric_lines = open(by_suffix["_metrics.csv"]).read().strip().splitlines()
    assert metric_lines[0] == "split_index,mode,picp,mpiw,rmse,mae,n"
    assert len(metric_lines) == 1 + 2 * len(tiny_report.splits)
    first = metric_lines[1].split(",")
    assert float(first[2]) == tiny_report.splits[0].normalized.picp  # repr round-trip

    agg_lines = open(by_suffix["_aggregate.csv"]).read().strip().splitlines()
    assert len(agg_lines) == 1 + 2 * len(METRIC_NAMES)

    pred_lines = open(by_suffix["_predictions.csv"]).read().strip().splitlines()
    total_rows = sum(len(s.predictions) for s in tiny_report.splits)
    assert len(pred_lines) == 1 + total_rows


def test_load_report_rejects_bad_files(tiny_report, tmp_path):
    with pytest.raises(DataError, match="no such report"):
        load_report(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(DataError, match="invalid report JSON"):
        load_report(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(DataError, match="latin1.json: invalid report JSON"):
        load_report(latin1)

    emit_report(tiny_report, tmp_path / "v.json")
    blob = json.loads((tmp_path / "v.json").read_text())
    blob["version"] = 99
    (tmp_path / "v.json").write_text(json.dumps(blob), encoding="utf-8")
    with pytest.raises(DataError, match="unsupported report version"):
        load_report(tmp_path / "v.json")

    blob["version"] = REPORT_VERSION
    blob["kind"] = "mystery"
    (tmp_path / "v.json").write_text(json.dumps(blob), encoding="utf-8")
    with pytest.raises(DataError, match="unknown report kind"):
        load_report(tmp_path / "v.json")

    # Well-formed JSON with missing fields, the wrong shape, or an invalid
    # record is a data error located at the file.
    zero_n = json.loads(json.dumps(blob))
    zero_n["kind"] = "benchmark"
    zero_n["splits"][0]["normalized"]["n"] = 0
    cell = {"params": {"alpha": 0.1}, "denormalized": blob["splits"][0]["denormalized"]}
    surplus = json.loads(json.dumps(zero_n))
    surplus["splits"][0]["normalized"] = {**blob["splits"][0]["normalized"], "coverage": 1.0}
    record_list = json.loads(json.dumps(surplus))
    record_list["splits"][0]["normalized"] = [1.0, 0.5, 0.1, 0.1, 3]
    malformed = {
        "header_only.json": {"kind": "benchmark", "version": REPORT_VERSION},
        "list.json": [1, 2],
        "cell.json": {"kind": "alpha_sweep", "version": REPORT_VERSION, "name": "s",
                      "config": {}, "cells": [cell], "series": {}, "total_seconds": 0.0},
        "zero_n.json": zero_n,
        "surplus.json": surplus,
        "record_list.json": record_list,
        "params_list.json": {"kind": "alpha_sweep", "version": REPORT_VERSION, "name": "s",
                             "config": {}, "cells": [{**cell, "params": ["alpha"],
                                                      "normalized": cell["denormalized"]}],
                             "series": {}, "total_seconds": 0.0},
    }
    for name, content in malformed.items():
        (tmp_path / name).write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(DataError, match="malformed report") as info:
            load_report(tmp_path / name)
        assert name in str(info.value)

    # A field declared as a number that holds a string is refused, not
    # coerced, and the error names the file and the field.
    mistyped = [
        (("aggregate_normalized", "picp", "mean"), "high", "aggregate_normalized.picp.mean"),
        (("splits", 0, "normalized", "picp"), "x", "splits.0.normalized.picp"),
        (("splits", 0, "member_epochs"), "many", "splits.0.member_epochs"),
    ]
    for keys, value, field in mistyped:
        report = json.loads(json.dumps(blob))
        report["kind"] = "benchmark"
        target = report
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        (tmp_path / "typed.json").write_text(json.dumps(report), encoding="utf-8")
        with pytest.raises(DataError, match="malformed report") as info:
            load_report(tmp_path / "typed.json")
        assert "typed.json" in str(info.value) and field in str(info.value)


def test_format_report_mentions_the_essentials(tiny_report):
    text = format_report(tiny_report)
    assert "benchmark tiny" in text
    assert "picp" in text and "normalized" in text
    assert "[partial]" not in text
    with pytest.raises(AttributeError):  # a non-record is no report kind
        format_report({"not": "a report"})


def test_failed_splits_are_recorded_partial(monkeypatch):
    # A split whose score phase fails, after the stack trained.
    import pireg.bench as bench_mod
    real = bench_mod.run_split

    def flaky(config, dataset, prepared, trained, train_seconds):
        if prepared.index == 0:
            raise TrainingDiverged("synthetic failure", epoch=1)
        return real(config, dataset, prepared, trained, train_seconds)

    monkeypatch.setattr(bench_mod, "run_split", flaky)
    report = bench_mod.run_benchmark(tiny_config())
    assert report.partial
    assert len(report.splits) == 1 and report.splits[0].split_index == 1
    assert report.errors and "split 0" in report.errors[0]
    assert "[partial]" in format_report(report)


def test_all_splits_failing_raises(monkeypatch):
    # Every split's prepare phase fails, so nothing trains.
    import pireg.bench as bench_mod

    def doomed(config, dataset, split_index):
        raise TrainingDiverged("synthetic failure", epoch=1)

    monkeypatch.setattr(bench_mod, "_prepare_split", doomed)
    monkeypatch.setattr(bench_mod, "train_ensemble", None)
    with pytest.raises(TrainingDiverged, match="every split failed"):
        bench_mod.run_benchmark(tiny_config())


def test_split_whose_normalized_rows_overflow_is_recorded(monkeypatch):
    # Two -1.7e308 cells in one column sum to -inf, so a split that trains on
    # both rows normalizes them to non-finite values and fails; split 2 holds
    # one of them out, and its mean and std stay usable.
    import pireg.bench as bench_mod
    from pireg.data import split

    rng = np.random.default_rng(5)
    features = rng.standard_normal((40, 2))
    features[[3, 17], 1] = -1.7e308
    dataset = Dataset(features, rng.standard_normal(40), source_tag="overflow")
    cfg = tiny_config(splits=SplitPlan(count=4, test_fraction=0.2))
    holds_both = [{3, 17} <= set(split(dataset, 0.2, cfg.seed, i)[0].tolist())
                  for i in range(4)]
    assert holds_both == [True, True, False, True]
    monkeypatch.setattr(bench_mod, "load_dataset", lambda spec, seed: dataset)
    with np.errstate(over="ignore", invalid="ignore"):
        report = bench_mod.run_benchmark(cfg)
    assert report.partial and [s.split_index for s in report.splits] == [2]
    assert report.errors == [f"split {i}: non-finite values in dataset 'overflow'"
                             for i in (0, 1, 3)]


def test_run_split_seeds_members_by_split(tiny_report):
    a, b = tiny_report.splits
    assert a.normalized != b.normalized  # different membership and member seeds


def test_run_split_holds_no_copy_of_the_training_rows():
    # Allocations traced during one split, beyond the caller's dataset: the
    # trainer gathers and normalizes one batch at a time, so what is left is
    # the normalized validation (0.08x here) and held-out (0.2x) rows, one
    # column block of the training rows while the statistics are fit, and
    # small temporaries.  Measured 0.49x, peaking in the held-out prediction;
    # the bound adds 0.06x of margin.  One normalized copy of the training
    # rows (0.72x) measured 1.21x.
    import pireg.bench as bench_mod

    rng = np.random.default_rng(11)
    dataset = Dataset(rng.standard_normal((20_000, 40)), rng.standard_normal(20_000))
    cfg = tiny_config(model=ModelSpec(hidden_sizes=(8,)), ensemble_size=2,
                      optimizer=OptimizerSpec(batch_size=1000, max_epochs=1, patience=1,
                                              validation_fraction=0.1))
    cfg = dataclasses.replace(cfg, splits=SplitPlan(count=1, test_fraction=0.2))
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        bench_mod._run_splits(cfg, dataset, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 0.55 * dataset.features.nbytes


def _table_in_layout(values, layout):
    # Row-major, a row-major view beside a target column (as load_delimited
    # returns), or column-major.
    if layout == "strided":
        return np.column_stack([values, np.zeros(len(values))])[:, :-1]
    if layout == "column_major":
        return np.asfortranarray(values)
    return np.ascontiguousarray(values)


@pytest.mark.parametrize("layout", ["contiguous", "strided", "column_major"])
def test_run_split_rows_match_a_copy_per_stage_bitwise(monkeypatch, layout):
    # The split's rows, statistics and their order, against the pipeline that
    # copied the rows at every stage: gather the training rows, fit np.mean
    # and np.std on them whole, normalize, then carve validation off.  The
    # training rows are read back through the trainer's own batch gather.
    import pireg.bench as bench_mod

    rng = np.random.default_rng(12)
    scales = np.geomspace(1e-3, 1e4, 17)
    dataset = Dataset(_table_in_layout(rng.standard_normal((900, 17)) * scales + scales, layout),
                      rng.normal(30.0, 5.0, 900))
    assert dataset.features.flags["C_CONTIGUOUS"] == (layout == "contiguous")
    cfg = tiny_config(model=ModelSpec(hidden_sizes=(8,)), optimizer=OptimizerSpec(
        batch_size=100, max_epochs=1, patience=1, validation_fraction=0.15))
    seen = {}
    real_train = bench_mod.train_ensemble
    real_predict = bench_mod.ensemble_predict

    def train_spy(config, train, valid, base_seed):
        seen["train"], seen["valid"] = train[1], valid[1]
        return real_train(config, train, valid, base_seed)

    def predict_spy(stack, features, variant, alpha):
        seen["test"] = features
        return real_predict(stack, features, variant, alpha)

    monkeypatch.setattr(bench_mod, "train_ensemble", train_spy)
    monkeypatch.setattr(bench_mod, "ensemble_predict", predict_spy)
    bench_mod._run_splits(cfg, dataset, 0.0)  # splits 0 and 1; split 1 is scored last

    perm = np.random.default_rng([cfg.seed, 1]).permutation(900)
    train_rows, test_rows = perm[:720], perm[720:]
    x, y = dataset.features[train_rows], dataset.targets[train_rows]
    mean, std = np.mean(x, axis=0), np.std(x, axis=0)
    tmean, tstd = float(np.mean(y)), float(np.std(y))
    carve = np.random.default_rng([cfg.seed, 1, 101]).permutation(720)
    n_val = round(0.15 * 720)
    train = seen["train"]
    every = np.arange(train.n)
    batches = np.stack([every, every[::-1]])  # the (members, batch) shape the trainer asks for
    got = {"train": (train.features[batches][0], train.targets[batches][0]),
           "valid": (seen["valid"].features, seen["valid"].targets)}
    assert train.features[batches][1].tobytes() == got["train"][0][::-1].tobytes()
    for name, rows in (("train", carve[n_val:]), ("valid", carve[:n_val])):
        assert got[name][0].tobytes() == ((x[rows] - mean) / std).tobytes()
        assert got[name][1].tobytes() == ((y[rows] - tmean) / tstd).tobytes()
    assert seen["test"].tobytes() == ((dataset.features[test_rows] - mean) / std).tobytes()


# ---------------------------------------------------------------------------
# The stacked run against the per-split composition it replaced: one split
# after another is split, fit, carved, trained as its own stack, predicted
# and scored.
# ---------------------------------------------------------------------------


def _oracle_curve(history, cap=CURVE_SAMPLE_CAP):
    total = len(history.train_loss)
    idxs = (range(total) if total <= cap
            else sorted(set(np.linspace(0, total - 1, cap).astype(int).tolist())))
    return [[float(i + 1), history.train_loss[i], history.val_loss[i]] for i in idxs]


def oracle_split(config, dataset, split_index):
    """One split alone: its (stack, histories) and its SplitResult (seconds 0)."""
    train_rows, test_rows = split(dataset, config.splits.test_fraction, config.seed,
                                  split_index)
    stats = fit_normalize(dataset, train_rows)
    train_rows, valid_rows = carve_validation(train_rows, config.optimizer.validation_fraction,
                                              config.seed, split_index)
    valid = None if valid_rows is None else apply_normalize(dataset, stats, valid_rows)
    train = NormalizedRows(dataset, stats, train_rows)
    stack, histories = train_ensemble(config, train, valid, config.seed + 1000 * split_index)

    test = apply_normalize(dataset, stats, test_rows)
    ens = ensemble_predict(stack, test.features, config.loss.variant, config.loss.alpha)
    columns = (test.targets, ens.lower, ens.upper, ens.value)
    predictions = None
    if config.store_predictions:
        predictions = [[float(v) for v in row] for row in zip(*columns)]
    return (stack, histories), SplitResult(
        split_index=split_index,
        seconds=0.0,
        member_epochs=[h.epochs_run for h in histories],
        normalized=metrics_record(*columns),
        denormalized=metrics_record(*(denormalize_targets(a, stats) for a in columns)),
        loss_curve=_oracle_curve(histories[0]),
        predictions=predictions,
    )


def oracle_run(config, dataset):
    """Every split one after another: ({split: (stack, histories)}, report)."""
    trained, splits, errors = {}, [], []
    for i in range(config.splits.count):
        try:
            trained[i], result = oracle_split(config, dataset, i)
        except PiregError as exc:
            errors.append(f"split {i}: {exc}")
            continue
        splits.append(result)
    report = RunReport(
        kind="benchmark", version=REPORT_VERSION, name=config.name,
        config=config_to_dict(config), splits=splits,
        aggregate_normalized=aggregate_splits([s.normalized for s in splits]),
        aggregate_denormalized=aggregate_splits([s.denormalized for s in splits]),
        partial=bool(errors), errors=errors, total_seconds=0.0)
    return trained, report


def stacked_run(monkeypatch, config, dataset):
    """The run as pireg.bench does it: ({split: outcome}, report with timing zeroed)."""
    import pireg.bench as bench_mod

    real_train = bench_mod.train_ensemble
    outcomes = {}

    def train_spy(config, train, valid, base_seeds):
        got = real_train(config, train, valid, base_seeds)
        outcomes.update(((seed - config.seed) // 1000, o) for seed, o in zip(base_seeds, got))
        return got

    monkeypatch.setattr(bench_mod, "train_ensemble", train_spy)
    report = bench_mod._run_splits(config, dataset, 0.0)
    return outcomes, dataclasses.replace(
        report, total_seconds=0.0,
        splits=[dataclasses.replace(s, seconds=0.0) for s in report.splits])


def assert_stacked_run_matches_the_oracle(monkeypatch, config, dataset):
    trained, want = oracle_run(config, dataset)
    outcomes, got = stacked_run(monkeypatch, config, dataset)
    assert got == want
    assert set(trained) <= set(outcomes)
    for i, (want_stack, want_histories) in trained.items():
        stack, histories = outcomes[i]
        assert stack.flat.tobytes() == want_stack.flat.tobytes()
        assert histories == want_histories
    return outcomes, got


def _middle_target_table(tmp_path):
    # Three features around the target column "y", which loads as a copy.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(70, 3)) * [1.0, 50.0, 0.01]
    y = np.sin(x[:, 0]) + x[:, 1] / 50.0 + rng.normal(0.0, 0.1, 70)
    rows = [f"{a!r},{b!r},{t!r},{c!r}" for (a, b, c), t in zip(x.tolist(), y.tolist())]
    path = tmp_path / "middle.csv"
    path.write_text("a,b,y,c\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return DataSpec(kind="file", path=str(path), target_column="y")


def uneven_config(**kwargs):
    # Three splits of three members with validation and short patience, so
    # members stop early at uneven epochs.
    base = dict(optimizer=OptimizerSpec(learning_rate=0.03, batch_size=15, max_epochs=80,
                                        patience=3, validation_fraction=0.15),
                splits=SplitPlan(count=3, test_fraction=0.2), ensemble_size=3)
    base.update(kwargs)
    return tiny_config(**base)


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_splits_match_the_per_split_run(monkeypatch, variant):
    cfg = uneven_config(loss=LossConfig(variant=variant))
    _, report = assert_stacked_run_matches_the_oracle(
        monkeypatch, cfg, load_dataset(cfg.data, cfg.seed))
    epochs = [e for s in report.splits for e in s.member_epochs]
    assert len(report.splits) == 3 and len(set(epochs)) > 2 and max(epochs) < 80


@pytest.mark.parametrize("case", ["middle_target", "no_validation", "one_split",
                                  "no_predictions"])
def test_stacked_splits_match_the_per_split_run_on_each_layout(monkeypatch, tmp_path, case):
    # A table whose target is a middle column, --validation-fraction 0,
    # --splits 1 and --no-predictions.
    cfg = uneven_config()
    if case == "middle_target":
        cfg = dataclasses.replace(cfg, data=_middle_target_table(tmp_path))
    elif case == "no_validation":
        cfg = dataclasses.replace(cfg, optimizer=dataclasses.replace(
            cfg.optimizer, validation_fraction=0.0))
    elif case == "one_split":
        cfg = dataclasses.replace(cfg, splits=SplitPlan(count=1, test_fraction=0.2))
    else:
        cfg = dataclasses.replace(cfg, store_predictions=False)
    _, report = assert_stacked_run_matches_the_oracle(
        monkeypatch, cfg, load_dataset(cfg.data, cfg.seed))
    assert len(report.splits) == cfg.splits.count


class _PoisonedRows:
    """A split's training rows whose ``call``-th batch gather turns one
    member's batch to NaN, so that member's loss does too."""

    def __init__(self, rows, call, member):
        self.n, self.dim, self.targets = rows.n, rows.dim, rows.targets
        self.features = self
        self._rows, self._call, self._member, self._calls = rows, call, member, 0

    def __getitem__(self, idx):
        batch = self._rows.features[idx]
        self._calls += 1
        if self._calls == self._call:
            batch[self._member] = np.nan
        return batch


def test_a_member_diverging_mid_training_fails_only_its_split(monkeypatch):
    # Member 1 of split 1 gets a NaN batch at the first batch of epoch 5
    # (41 training rows, three batches an epoch).  Its split fails with the
    # error it raises alone, and splits 0 and 2 report exactly what an
    # undisturbed run reports.
    import pireg.bench as bench_mod

    cfg = uneven_config(optimizer=OptimizerSpec(learning_rate=0.03, batch_size=20,
                                                max_epochs=40, patience=10,
                                                validation_fraction=0.15))
    dataset = load_dataset(cfg.data, cfg.seed)
    _, clean = oracle_run(cfg, dataset)
    built = []

    def poisoned_rows(dataset, stats, rows, real=NormalizedRows):
        # Both runs build their splits' rows in split order, so split 1's
        # are the second of every three.
        built.append(real(dataset, stats, rows))
        return _PoisonedRows(built[-1], 13, 1) if len(built) % 3 == 2 else built[-1]

    monkeypatch.setattr(bench_mod, "NormalizedRows", poisoned_rows)
    monkeypatch.setitem(globals(), "NormalizedRows", poisoned_rows)
    _, report = assert_stacked_run_matches_the_oracle(monkeypatch, cfg, dataset)
    assert report.errors == ["split 1: member 1: diverged at epoch 5, batch 0: "
                             "non-finite loss nan"]
    assert report.partial and report.splits == [clean.splits[0], clean.splits[2]]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_forked_splits_match_the_per_split_run(monkeypatch, forked_chunks, workers, variant):
    chunks = forked_chunks(workers)
    test_stacked_splits_match_the_per_split_run(monkeypatch, variant)
    assert chunks == ([] if workers == 1 else [[1, 1, 1]])


@pytest.mark.parametrize("workers", [1, 3])
def test_a_forked_member_diverging_mid_training_fails_only_its_split(monkeypatch, forked_chunks,
                                                                     workers):
    # At 3 workers, split 1 and its poisoned member train in a child.
    chunks = forked_chunks(workers)
    test_a_member_diverging_mid_training_fails_only_its_split(monkeypatch)
    assert chunks == ([] if workers == 1 else [[1, 1, 1]])


def test_load_dataset_kinds(tmp_path):
    sine = load_dataset(DataSpec(kind="sine", n=30), seed=1)
    assert sine.n == 30 and sine.dim == 1
    flat = load_dataset(DataSpec(kind="flat_skew", n=20), seed=1)
    assert flat.n == 20
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("1,2\n3,4\n5,6\n", encoding="utf-8")
    table = load_dataset(DataSpec(kind="file", path=str(csv_path)), seed=1)
    assert table.n == 3 and table.dim == 1


def test_benchmark_on_file_dataset(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    y = x @ [1.0, -2.0] + rng.normal(0, 0.1, size=40)
    lines = [",".join(repr(float(v)) for v in row) + f",{float(y[i])!r}"
             for i, row in enumerate(x)]
    path = tmp_path / "lin.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tiny_config(name="filetask", data=DataSpec(kind="file", path=str(path)),
                      splits=SplitPlan(count=3, test_fraction=0.2))
    report = run_benchmark(cfg)
    assert len(report.splits) == 3
    assert report.splits[0].normalized.n == 8


def test_gaussian_variant_through_the_pipeline():
    cfg = tiny_config(loss=LossConfig(variant="gaussian_nll"),
                      splits=SplitPlan(count=1, test_fraction=0.2),
                      optimizer=OptimizerSpec(learning_rate=0.02, batch_size=15,
                                              max_epochs=15, patience=15))
    report = run_benchmark(cfg)
    rec = report.splits[0].normalized
    assert 0.0 <= rec.picp <= 1.0 and rec.mpiw > 0.0


def test_alpha_sweep_cells_and_series(tmp_path, monkeypatch):
    import pireg.bench as bench_mod
    loads = []

    def counted(spec, seed):
        loads.append(spec)
        return load_dataset(spec, seed)

    monkeypatch.setattr(bench_mod, "load_dataset", counted)
    cfg = tiny_config(splits=SplitPlan(count=1, test_fraction=0.2),
                      optimizer=OptimizerSpec(learning_rate=0.02, batch_size=15,
                                              max_epochs=15, patience=15))
    sweep = run_alpha_sweep(cfg, [0.1, 0.3])
    assert len(loads) == 1  # one load serves all four grid points
    assert sweep.kind == "alpha_sweep" and sweep.version == REPORT_VERSION
    assert len(sweep.cells) == 4  # 2 alphas x 2 variants
    variants = {c.params["variant"] for c in sweep.cells}
    assert variants == {"joint", "interval_only"}
    expected_series = {"joint_picp", "joint_mpiw", "joint_rmse",
                       "interval_only_picp", "interval_only_mpiw",
                       "interval_only_rmse", "mpiw_improvement_pct"}
    assert set(sweep.series) == expected_series
    for points in sweep.series.values():
        assert [p[0] for p in points] == [0.1, 0.3]

    written = emit_report(sweep, tmp_path / "sweep.json")
    loaded = load_report(written[0])
    assert loaded == sweep
    assert any("_cells.csv" in p for p in written)
    assert any("mpiw_improvement_pct" in p for p in written)
    text = format_report(sweep)
    assert "alpha_sweep" in text and "4 cell(s)" in text


def test_hyperparam_sweep_grid(tmp_path):
    cfg = tiny_config(splits=SplitPlan(count=1, test_fraction=0.2),
                      optimizer=OptimizerSpec(learning_rate=0.02, batch_size=15,
                                              max_epochs=15, patience=15))
    sweep = run_hyperparam_sweep(cfg, [0.3, 0.7], [5.0, 15.0])
    assert sweep.kind == "hparam_sweep"
    assert len(sweep.cells) == 4
    for cell in sweep.cells:
        assert set(cell.params) == {"interval_weight", "coverage_penalty"}
        assert cell.normalized.mpiw >= 0.0
        assert cell.denormalized.rmse >= 0.0
    assert "picp@interval_weight=0.3" in sweep.series
    assert "rmse@interval_weight=0.7" in sweep.series
    written = emit_report(sweep, tmp_path / "hp.json")
    safe_names = [p for p in written if "_series_" in p]
    assert any("picp_at_interval_weight_0.3" in p for p in safe_names)
    assert load_report(written[0]) == sweep


def test_sweeps_reject_empty_grids():
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        run_alpha_sweep(cfg, [])
    with pytest.raises(ConfigError):
        run_hyperparam_sweep(cfg, [], [1.0])
    with pytest.raises(ConfigError):
        run_hyperparam_sweep(cfg, [0.5], [])


def _member_head(model, x):
    # One member's raw head: affine layers, rectifier on the hidden ones.
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if i < len(model.weights) - 1:
            a = np.maximum(a, 0.0)
    return a


def _mean(values):
    return sum(values) / len(values)


def _std(values):
    # Sample std across members; one member carries no spread.
    if len(values) == 1:
        return 0.0
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def _oracle_row(heads, variant, alpha):
    """(upper, lower, value) for one sample's member heads."""
    z = z_score(alpha)
    if variant == "gaussian_nll":
        means = [h[0] for h in heads]
        variances = [math.log1p(math.exp(-abs(h[1]))) + max(h[1], 0.0) + VARIANCE_FLOOR
                     for h in heads]
        mu = _mean(means)
        sigma = math.sqrt(_mean(variances) + _mean([(m - mu) ** 2 for m in means]))
        return mu + z * sigma, mu - z * sigma, mu
    uppers = [h[0] for h in heads]
    lowers = [h[1] for h in heads]
    if variant == "joint":
        mixes = [min(max(1.0 / (1.0 + math.exp(-h[2])), MIX_EPS), 1.0 - MIX_EPS) for h in heads]
        values = [lo + m * (up - lo) for up, lo, m in zip(uppers, lowers, mixes)]
    elif variant in ("interval_only", "midpoint"):
        values = [lo + 0.5 * (up - lo) for up, lo in zip(uppers, lowers)]
    else:
        assert variant == "decoupled"
        values = [h[2] for h in heads]
    return (_mean(uppers) + z * _std(uppers), _mean(lowers) - z * _std(lowers),
            _mean(values))


def test_ensemble_predict_matches_member_forward():
    x = np.random.default_rng(3).normal(size=(7, 2))
    alpha = 0.1
    for variant in ("joint", "interval_only", "midpoint", "decoupled", "gaussian_nll"):
        for size in (1, 3):
            if variant == "gaussian_nll":
                models = [init_model([2, 5, 2], seed=s, head_bias=(0.0, 0.0)) for s in range(size)]
            else:
                models = [init_model([2, 5, 3], seed=s, head_bias=(3.0, -3.0, 0.0)) for s in range(size)]
                for s, model in enumerate(models):
                    # Spread the head so bounds and mixing weights differ by member.
                    model.biases[-1][...] += np.random.default_rng(10 + s).normal(size=3)
            heads = [_member_head(m, x) for m in models]
            want = np.array([_oracle_row([h[i] for h in heads], variant, alpha)
                             for i in range(x.shape[0])])
            stack = FeedForwardModel(models[0].layer_sizes, np.stack([m.flat for m in models]))
            out = ensemble_predict(stack, x, variant, alpha)
            got = np.column_stack([out.upper, out.lower, out.value])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                       err_msg=f"{variant}, {size} member(s)")


def test_ensemble_predict_holds_one_members_activations_at_a_time():
    # A forward of the whole stack would hold all five members' (4000, 100)
    # hidden activations at once, 16 MB; prediction needs one member's.
    members = [init_model([1, 100, 3], seed=s, head_bias=(3.0, -3.0, 0.0)) for s in range(5)]
    stack = FeedForwardModel(members[0].layer_sizes, np.stack([m.flat for m in members]))
    x = np.random.default_rng(0).normal(size=(4000, 1))
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        ensemble_predict(stack, x, "joint", 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 2 * 4000 * 100 * 8


def test_failed_emit_leaves_no_partial_or_temp_file(tiny_report, tmp_path, monkeypatch):
    emit_report(tiny_report, tmp_path / "old.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"kind": ')
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    for name in ("new.json", "old.json"):
        with pytest.raises(OSError, match="No space left"):
            emit_report(tiny_report, tmp_path / name)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
