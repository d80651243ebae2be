"""Benchmark harness: multi-split runs, parameter sweeps, report files.

A benchmark run draws `splits.count` shuffled train/test splits, fits
normalization on each training portion, trains an ensemble per split, and
scores the aggregated intervals on the held-out rows in both normalized and
original units.  Reports are plain dataclasses emitted as versioned JSON
(canonical, round-trippable) plus flat CSV tables for spreadsheets and
plotting.

Report format v1:
  {"kind": "benchmark" | "alpha_sweep" | "hparam_sweep", "version": 1, ...}
with per-split records, aggregate mean/stderr blocks, and for sweeps a
`series` mapping of plot-ready [x, y] pairs per method and metric.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import time
import typing
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .config import DataSpec, ExperimentConfig, config_to_dict
from .data import (Dataset, NormalizedRows, apply_normalize, denormalize_targets,
                   fit_normalize, generate, load_delimited, split)
from .ensemble import EnsembleOutput, aggregate_gaussian, aggregate_pi
from .errors import ConfigError, DataError, PiregError, ShapeError, TrainingDiverged
from .losses import gaussian_link, interval_link
from .metrics import MetricSummary, MetricsRecord, aggregate_splits, metrics_record
from .network import forward
from .training import carve_validation, train_ensemble

REPORT_VERSION = 1
CURVE_SAMPLE_CAP = 50

# The variants each sweep trains and the loss fields its grid sets, whatever
# the config's own values.
ALPHA_SWEEP_VARIANTS = ("joint", "interval_only")
ALPHA_SWEEP_FIELDS = ("alpha", "variant")
HPARAM_SWEEP_VARIANTS = ("joint",)
HPARAM_SWEEP_FIELDS = ("interval_weight", "coverage_penalty", "variant")


@dataclass
class SplitResult:
    split_index: int
    seconds: float
    member_epochs: List[int]
    normalized: MetricsRecord
    denormalized: MetricsRecord
    loss_curve: List[List[float]]
    predictions: Optional[List[List[float]]] = None


@dataclass
class RunReport:
    kind: str
    version: int
    name: str
    config: dict
    splits: List[SplitResult]
    aggregate_normalized: Dict[str, MetricSummary]
    aggregate_denormalized: Dict[str, MetricSummary]
    partial: bool
    errors: List[str]
    total_seconds: float


@dataclass
class SweepCell:
    params: dict
    normalized: MetricsRecord
    denormalized: MetricsRecord


@dataclass
class SweepReport:
    kind: str
    version: int
    name: str
    config: dict
    cells: List[SweepCell]
    series: Dict[str, List[List[float]]]
    total_seconds: float


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
    total = len(history.train_loss)
    if total <= cap:
        idxs = range(total)
    else:
        idxs = sorted(set(np.linspace(0, total - 1, cap).astype(int).tolist()))
    return [[float(i + 1), history.train_loss[i], history.val_loss[i]] for i in idxs]


def run_split(config: ExperimentConfig, dataset: Dataset, split_index: int) -> SplitResult:
    """Train and score one shuffled train/test split."""
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
    train = NormalizedRows(dataset, stats, train_rows)

    base_seed = config.seed + 1000 * split_index
    stack, histories = train_ensemble(config, train, valid, base_seed)

    test = apply_normalize(dataset, stats, test_rows)
    ens = ensemble_predict(stack, test.features, config.loss.variant, config.loss.alpha)
    normalized = metrics_record(test.targets, ens.lower, ens.upper, ens.value)
    denormalized = metrics_record(
        denormalize_targets(test.targets, stats),
        denormalize_targets(ens.lower, stats),
        denormalize_targets(ens.upper, stats),
        denormalize_targets(ens.value, stats),
    )

    predictions = None
    if config.store_predictions:
        predictions = [[float(yy), float(ll), float(uu), float(vv)]
                       for yy, ll, uu, vv in zip(test.targets, ens.lower,
                                                 ens.upper, ens.value)]
    return SplitResult(
        split_index=split_index,
        seconds=time.perf_counter() - started,
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
    """Every split of ``dataset``; total_seconds counts from ``started``."""
    splits: List[SplitResult] = []
    errors: List[str] = []
    for i in range(config.splits.count):
        try:
            splits.append(run_split(config, dataset, i))
        except PiregError as exc:
            errors.append(f"split {i}: {exc}")
    if not splits:
        raise TrainingDiverged("every split failed: " + "; ".join(errors))
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


def _mean_record(report: RunReport, mode: str) -> MetricsRecord:
    agg = report.aggregate_normalized if mode == "normalized" else report.aggregate_denormalized
    total_n = sum(s.normalized.n for s in report.splits)
    return MetricsRecord(picp=agg["picp"].mean, mpiw=agg["mpiw"].mean,
                         rmse=agg["rmse"].mean, mae=agg["mae"].mean, n=total_n)


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
        norm = _mean_record(report, "normalized")
        denorm = _mean_record(report, "denormalized")
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


# --------------------------------------------------------------------------
# Emission and parsing.  JSON is the canonical format; floats use Python's
# shortest round-trip repr, so parse(emit(report)) == report exactly.
# --------------------------------------------------------------------------


def _base_path(path) -> str:
    text = str(path)
    return text[:-5] if text.endswith(".json") else text


@contextlib.contextmanager
def _replacing(path, newline=None):
    """Write to a temp file beside ``path``, then rename it over ``path``.

    Readers see the old file or the whole new one, never a partial one; on
    any failure the temp file is removed and the error propagates.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def emit_report(report, path) -> List[str]:
    """Write the canonical JSON plus flat CSV tables; returns written paths.

    Each file is replaced whole, so a failed write leaves no partial or
    temp file.  Write failures propagate as OSError (an I/O category, not a
    data error) with the offending path attached.
    """
    base = _base_path(path)
    written = []
    payload = dataclasses.asdict(report)
    json_path = base + ".json"
    with _replacing(json_path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    written.append(json_path)
    if isinstance(report, RunReport):
        written.extend(_emit_run_tables(report, base))
    elif isinstance(report, SweepReport):
        written.extend(_emit_sweep_tables(report, base))
    else:
        raise ConfigError(f"cannot emit object of type {type(report).__name__}")
    return written


def _write_csv(path, header, rows) -> str:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


_RECORD_HEADER = ["mode", "picp", "mpiw", "rmse", "mae", "n"]


def _record_rows(normalized: MetricsRecord, denormalized: MetricsRecord):
    for mode, rec in (("normalized", normalized), ("denormalized", denormalized)):
        yield [mode, repr(rec.picp), repr(rec.mpiw), repr(rec.rmse), repr(rec.mae), rec.n]


def _emit_run_tables(report: RunReport, base: str) -> List[str]:
    records = [[s.split_index] + row for s in report.splits
               for row in _record_rows(s.normalized, s.denormalized)]
    summaries = [[mode, metric, repr(summary.mean),
                  "" if summary.stderr is None else repr(summary.stderr)]
                 for mode, agg in (("normalized", report.aggregate_normalized),
                                   ("denormalized", report.aggregate_denormalized))
                 for metric, summary in agg.items()]
    written = [_write_csv(base + "_metrics.csv", ["split_index"] + _RECORD_HEADER, records),
               _write_csv(base + "_aggregate.csv", ["mode", "metric", "mean", "stderr"],
                          summaries)]
    if any(s.predictions for s in report.splits):
        predictions = [[s.split_index] + [repr(v) for v in row]
                       for s in report.splits for row in s.predictions or []]
        written.append(_write_csv(base + "_predictions.csv",
                                  ["split_index", "y", "lower", "upper", "value"],
                                  predictions))
    return written


def _emit_sweep_tables(report: SweepReport, base: str) -> List[str]:
    param_names = sorted({k for cell in report.cells for k in cell.params})
    cells = [[cell.params.get(k, "") for k in param_names] + row for cell in report.cells
             for row in _record_rows(cell.normalized, cell.denormalized)]
    written = [_write_csv(base + "_cells.csv", param_names + _RECORD_HEADER, cells)]
    for name, points in report.series.items():
        safe = name.replace("@", "_at_").replace("=", "_")
        written.append(_write_csv(f"{base}_series_{safe}.csv", ["x", "y"],
                                  [[repr(x), repr(y)] for x, y in points]))
    return written


def _decoded(hint, value, where=""):
    # ``value``, as parsed from JSON, built into what ``hint`` declares: each
    # record from its fields' hints, and no field declared as a number holding
    # anything but an int or a float (a bool is not one); else a TypeError
    # naming the field.
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return None if value is None else _decoded(args[0], value, where)
    if hint in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise TypeError(f"{where} must be a number, got {value!r}")
    shape = dict if dataclasses.is_dataclass(hint) else origin or hint
    if shape in (list, dict) and not isinstance(value, shape):
        raise TypeError(f"{where or 'report'} must be a {shape.__name__}, got {value!r}")
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        # A surplus field keeps its value, for the constructor to refuse.
        return hint(**{name: _decoded(hints.get(name, object), item, f"{where}.{name}".lstrip("."))
                       for name, item in value.items()})
    if origin is dict:
        return {key: _decoded(args[1], item, f"{where}.{key}") for key, item in value.items()}
    if origin is list:
        return [_decoded(args[0], item, f"{where}.{i}") for i, item in enumerate(value)]
    return value


def load_report(path):
    """Parse a report JSON back into its dataclass form.

    Missing, mistyped or surplus fields are data errors located at the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"no such report: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: invalid report JSON ({exc})") from None

    try:
        version = raw.get("version")
        if version != REPORT_VERSION:
            raise DataError(f"{path}: unsupported report version {version!r}")
        kind = raw.get("kind")
        record = {"benchmark": RunReport, "alpha_sweep": SweepReport,
                  "hparam_sweep": SweepReport}.get(kind)
        if record is not None:
            return _decoded(record, raw)
    except (TypeError, AttributeError, ShapeError) as exc:
        raise DataError(f"{path}: malformed report ({type(exc).__name__}: {exc})") from None
    raise DataError(f"{path}: unknown report kind {kind!r}")


def format_report(report) -> str:
    """Human-readable table for terminals."""
    lines = []
    if isinstance(report, RunReport):
        lines.append(f"benchmark {report.name}: {len(report.splits)} split(s)"
                     + (" [partial]" if report.partial else ""))
        lines.append(f"{'mode':<13} {'metric':<6} {'mean':>10} {'stderr':>10}")
        for mode, agg in (("normalized", report.aggregate_normalized),
                          ("denormalized", report.aggregate_denormalized)):
            for metric, summary in agg.items():
                err = "n/a" if summary.stderr is None else f"{summary.stderr:.4f}"
                lines.append(f"{mode:<13} {metric:<6} {summary.mean:>10.4f} {err:>10}")
        for err in report.errors:
            lines.append(f"error: {err}")
    elif isinstance(report, SweepReport):
        lines.append(f"{report.kind} {report.name}: {len(report.cells)} cell(s)")
        param_names = sorted({k for cell in report.cells for k in cell.params})
        header = " ".join(f"{p:<16}" for p in param_names)
        lines.append(f"{header} {'picp':>8} {'mpiw':>8} {'rmse':>8}")
        for cell in report.cells:
            head = " ".join(f"{str(cell.params.get(p, '')):<16}" for p in param_names)
            lines.append(f"{head} {cell.normalized.picp:>8.4f} "
                         f"{cell.normalized.mpiw:>8.4f} {cell.denormalized.rmse:>8.4f}")
    else:
        raise ConfigError(f"cannot format object of type {type(report).__name__}")
    return "\n".join(lines)
