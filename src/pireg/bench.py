"""Benchmark harness: multi-split runs and parameter sweeps.

A benchmark run draws `splits.count` shuffled train/test splits and runs
them in three phases: it prepares each split (its rows, normalization fit
on the training portion, a carved validation copy), trains the ensembles
of every prepared split as one stack, then scores each split from its own
rows of that stack on its held-out rows, in both normalized and original
units, as the records of ``pireg.report``.  A split that fails in any
phase is recorded and the others go on.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .config import DataSpec, ExperimentConfig, config_to_dict
from .data import (Dataset, NormalizedRows, NormStats, apply_normalize, denormalize_targets,
                   fit_normalize, generate, load_delimited, split)
from .ensemble import EnsembleOutput, aggregate_gaussian, aggregate_pi
from .errors import ConfigError, DataError, PiregError, TrainingDiverged
from .losses import gaussian_link, interval_link
from .metrics import METRIC_NAMES, MetricsRecord, aggregate_splits, metrics_record
from .network import forward
from .report import (REPORT_VERSION, RunReport, SplitResult, SweepCell, SweepReport,
                     load_report)  # perfbench's report checks call pireg.bench.load_report
from .training import carve_validation, train_ensemble

CURVE_SAMPLE_CAP = 50

# The variants each sweep trains and the loss fields its grid sets, whatever
# the config's own values.
ALPHA_SWEEP_VARIANTS = ("joint", "interval_only")
ALPHA_SWEEP_FIELDS = ("alpha", "variant")
HPARAM_SWEEP_VARIANTS = ("joint",)
HPARAM_SWEEP_FIELDS = ("interval_weight", "coverage_penalty", "variant")


def load_dataset(spec: DataSpec, seed) -> Dataset:
    """Materialize a dataset from its spec (file loaded, generator seeded)."""
    if spec.kind == "file":
        return load_delimited(spec.path, spec.target_column, spec.delimiter)
    return generate(spec, seed)


def ensemble_predict(stack, features, variant: str, alpha: float) -> EnsembleOutput:
    """Aggregate an ensemble's predictions on a feature matrix.

    ``stack`` is the (M, n_params) model that ``train_ensemble`` returns.  One
    ``forward`` gives its (M, n, k) raw heads, member by member on many rows
    (see ``network.forward``), which one reader and one aggregator consume.
    """
    heads = forward(stack, features)
    if variant == "gaussian_nll":
        return aggregate_gaussian(*gaussian_link(heads), alpha)
    return aggregate_pi(*interval_link(heads, variant), alpha)


def _curve_samples(history, cap=CURVE_SAMPLE_CAP):
    """Up to ``cap`` evenly spaced epochs of a history, first and last included."""
    total = len(history.train_loss)
    # Not np.unique, whose first call imports numpy.ma (about 1 MB of peak RSS).
    idxs = sorted(set(np.linspace(0, total - 1, min(total, cap)).astype(int).tolist()))
    return [[float(i + 1), history.train_loss[i], history.val_loss[i]] for i in idxs]


@dataclass
class _Prepared:
    """A split between its prepare and score phases."""

    index: int
    stats: NormStats
    train: NormalizedRows
    valid: Optional[Dataset]
    test_rows: np.ndarray
    seconds: float


def _prepare_split(config: ExperimentConfig, dataset: Dataset, split_index: int) -> _Prepared:
    """A split's rows, their statistics and its validation copy."""
    started = time.perf_counter()
    # Split and carve pick row indices, and the split holds no table-sized
    # copy beside the dataset: the trainer reads its rows through a
    # NormalizedRows, which standardizes each batch as it gathers it.  The
    # validation rows are one normalized copy; the held-out rows are copied
    # only once training is done.
    train_rows, test_rows = split(dataset, config.splits.test_fraction, config.seed,
                                  split_index)
    stats = fit_normalize(dataset, train_rows)
    train_rows, valid_rows = carve_validation(train_rows, config.optimizer.validation_fraction,
                                              config.seed, split_index)
    valid = None if valid_rows is None else apply_normalize(dataset, stats, valid_rows)
    return _Prepared(split_index, stats, NormalizedRows(dataset, stats, train_rows), valid,
                     test_rows, time.perf_counter() - started)


def run_split(config: ExperimentConfig, dataset: Dataset, prepared: _Prepared, trained,
              train_seconds: float) -> SplitResult:
    """Score a prepared split's trained (stack, histories) on its held-out rows.

    ``seconds`` is the split's own prepare and score time plus
    ``train_seconds``, its share of the stack's training time.
    """
    started = time.perf_counter()
    stack, histories = trained
    stats = prepared.stats
    # Every score is checked for non-finite values below, so numpy's own
    # overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        test = apply_normalize(dataset, stats, prepared.test_rows)
        ens = ensemble_predict(stack, test.features, config.loss.variant, config.loss.alpha)
        normalized = metrics_record(test.targets, ens.lower, ens.upper, ens.value)
        denormalized = metrics_record(*(denormalize_targets(a, stats) for a in
                                        (test.targets, ens.lower, ens.upper, ens.value)))
    # A held-out row far outside the training rows' range can overflow the
    # network or an error's square; the split then has no scores.
    if not all(math.isfinite(getattr(record, name)) for record in (normalized, denormalized)
               for name in METRIC_NAMES):
        raise DataError(f"non-finite held-out predictions or scores in dataset "
                        f"{dataset.source_tag!r}")

    predictions = None
    if config.store_predictions:
        predictions = [[float(yy), float(ll), float(uu), float(vv)]
                       for yy, ll, uu, vv in zip(test.targets, ens.lower,
                                                 ens.upper, ens.value)]
    return SplitResult(
        split_index=prepared.index,
        seconds=prepared.seconds + train_seconds + time.perf_counter() - started,
        member_epochs=[h.epochs_run for h in histories],
        normalized=normalized,
        denormalized=denormalized,
        loss_curve=_curve_samples(histories[0]),
        predictions=predictions,
    )


def run_benchmark(config: ExperimentConfig) -> RunReport:
    """Full multi-split benchmark; failing splits are recorded, not fatal."""
    started = time.perf_counter()
    return _run_splits(config, load_dataset(config.data, config.seed), started)


def _run_splits(config: ExperimentConfig, dataset: Dataset, started: float) -> RunReport:
    """Every split of ``dataset``, in the three phases the module docstring
    names; total_seconds counts from ``started``."""
    failed: Dict[int, PiregError] = {}
    prepared: List[_Prepared] = []
    for i in range(config.splits.count):
        try:
            prepared.append(_prepare_split(config, dataset, i))
        except PiregError as exc:
            failed[i] = exc
    train_started = time.perf_counter()
    try:
        outcomes = train_ensemble(config, [p.train for p in prepared],
                                  [p.valid for p in prepared],
                                  [config.seed + 1000 * p.index for p in prepared])
    except PiregError as exc:
        outcomes = [exc] * len(prepared)
    train_share = (time.perf_counter() - train_started) / max(len(prepared), 1)
    splits: List[SplitResult] = []
    for p, outcome in zip(prepared, outcomes):
        if isinstance(outcome, PiregError):
            failed[p.index] = outcome
            continue
        try:
            splits.append(run_split(config, dataset, p, outcome, train_share))
        except PiregError as exc:
            failed[p.index] = exc
    errors = [f"split {i}: {failed[i]}" for i in sorted(failed)]
    if not splits:
        data_only = all(isinstance(exc, DataError) for exc in failed.values())
        raise (DataError if data_only else TrainingDiverged)(
            "every split failed: " + "; ".join(errors))
    return RunReport(
        kind="benchmark",
        version=REPORT_VERSION,
        name=config.name,
        config=config_to_dict(config),
        splits=splits,
        aggregate_normalized=aggregate_splits([s.normalized for s in splits]),
        aggregate_denormalized=aggregate_splits([s.denormalized for s in splits]),
        partial=bool(errors),
        errors=errors,
        total_seconds=time.perf_counter() - started,
    )


def _mean_record(report: RunReport, agg) -> MetricsRecord:
    return MetricsRecord(**{name: agg[name].mean for name in METRIC_NAMES},
                         n=sum(s.normalized.n for s in report.splits))


def _run_grid(config: ExperimentConfig, kind: str, points) -> SweepReport:
    """Benchmark one loss override per grid point, in order.

    Each point is (cell params, loss overrides, series key, x): the key is a
    format string completed with the metric name, and the cell's mean picp,
    mpiw (normalized) and rmse (original units) are appended at x.  Every
    point's loss config is built, and so validated, before any training.
    Points differ only in their loss, so the dataset is loaded once for all.
    """
    started = time.perf_counter()
    losses = [dataclasses.replace(config.loss, **overrides) for _, overrides, _, _ in points]
    dataset = load_dataset(config.data, config.seed)
    cells: List[SweepCell] = []
    series: Dict[str, List[List[float]]] = {}
    for (params, _, key, x), loss in zip(points, losses):
        report = _run_splits(dataclasses.replace(config, loss=loss), dataset,
                             time.perf_counter())
        norm = _mean_record(report, report.aggregate_normalized)
        denorm = _mean_record(report, report.aggregate_denormalized)
        cells.append(SweepCell(params=params, normalized=norm, denormalized=denorm))
        for metric, value in (("picp", norm.picp), ("mpiw", norm.mpiw), ("rmse", denorm.rmse)):
            series.setdefault(key.format(metric), []).append([x, value])
    return SweepReport(
        kind=kind,
        version=REPORT_VERSION,
        name=config.name,
        config=config_to_dict(config),
        cells=cells,
        series=series,
        total_seconds=time.perf_counter() - started,
    )


def run_alpha_sweep(config: ExperimentConfig, alphas: Sequence[float]) -> SweepReport:
    """Benchmark the joint and interval-only variants across miscoverage levels.

    Emits per-cell metrics plus plot-ready series, including the width
    improvement of the joint variant over the interval-only one, in percent
    of the interval-only width.
    """
    if not alphas:
        raise ConfigError("alpha grid must be non-empty")
    points = []
    for alpha in alphas:
        for variant in ALPHA_SWEEP_VARIANTS:
            params = {"alpha": float(alpha), "variant": variant}
            points.append((params, params, variant + "_{}", float(alpha)))
    report = _run_grid(config, "alpha_sweep", points)
    report.series["mpiw_improvement_pct"] = [
        [alpha, (base - joint) / base * 100.0 if base != 0.0 else 0.0]
        for (alpha, joint), (_, base) in zip(report.series["joint_mpiw"],
                                             report.series["interval_only_mpiw"])]
    return report


def run_hyperparam_sweep(config: ExperimentConfig, interval_weights: Sequence[float],
                         coverage_penalties: Sequence[float]) -> SweepReport:
    """Grid sweep of the loss mixing weight and the coverage penalty."""
    if not interval_weights or not coverage_penalties:
        raise ConfigError("sweep grids must be non-empty")
    points = []
    for weight in interval_weights:
        for penalty in coverage_penalties:
            params = {"interval_weight": float(weight), "coverage_penalty": float(penalty)}
            points.append((params, {**params, "variant": HPARAM_SWEEP_VARIANTS[0]},
                           "{}@interval_weight=" + f"{weight:g}", float(penalty)))
    return _run_grid(config, "hparam_sweep", points)
