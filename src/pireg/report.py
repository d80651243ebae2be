"""Report records and their files: versioned JSON, CSV tables, terminal text.

Format v1 is {"kind": "benchmark" | "alpha_sweep" | "hparam_sweep",
"version": 1, ...} with per-split records, aggregate mean/stderr blocks and,
for sweeps, a `series` of plot-ready [x, y] pairs per method and metric.
JSON is canonical: floats use Python's shortest round-trip repr, so
load_report reads back exactly the records emit_report wrote.  The CSV
tables are flat copies for spreadsheets and plotting.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import typing
from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import DataError, ShapeError
from .metrics import MetricSummary, MetricsRecord

REPORT_VERSION = 1


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


def _base_path(path) -> str:
    text = str(path)
    return text[:-5] if text.endswith(".json") else text


@contextlib.contextmanager
def _replacing(path, newline=None):
    """Write to a temp file beside ``path``, then rename it over ``path``.

    Readers see the old file or the whole new one, never a partial one; on
    any failure the temp file is removed and the error propagates.  A
    symlink's target is replaced; a FIFO or other non-regular file is
    written in place.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        return
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


def _run_tables(report: RunReport, base: str) -> List[str]:
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


def _run_lines(report: RunReport) -> List[str]:
    lines = [f"benchmark {report.name}: {len(report.splits)} split(s)"
             + (" [partial]" if report.partial else ""),
             f"{'mode':<13} {'metric':<6} {'mean':>10} {'stderr':>10}"]
    for mode, agg in (("normalized", report.aggregate_normalized),
                      ("denormalized", report.aggregate_denormalized)):
        for metric, summary in agg.items():
            err = "n/a" if summary.stderr is None else f"{summary.stderr:.4f}"
            lines.append(f"{mode:<13} {metric:<6} {summary.mean:>10.4f} {err:>10}")
    return lines + [f"error: {err}" for err in report.errors]


def _sweep_tables(report: SweepReport, base: str) -> List[str]:
    names = sorted({k for cell in report.cells for k in cell.params})
    cells = [[cell.params.get(k, "") for k in names] + row for cell in report.cells
             for row in _record_rows(cell.normalized, cell.denormalized)]
    written = [_write_csv(base + "_cells.csv", names + _RECORD_HEADER, cells)]
    for name, points in report.series.items():
        safe = name.replace("@", "_at_").replace("=", "_")
        written.append(_write_csv(f"{base}_series_{safe}.csv", ["x", "y"],
                                  [[repr(x), repr(y)] for x, y in points]))
    return written


def _sweep_lines(report: SweepReport) -> List[str]:
    names = sorted({k for cell in report.cells for k in cell.params})
    header = " ".join(f"{p:<16}" for p in names)
    lines = [f"{report.kind} {report.name}: {len(report.cells)} cell(s)",
             f"{header} {'picp':>8} {'mpiw':>8} {'rmse':>8}"]
    for cell in report.cells:
        head = " ".join(f"{str(cell.params.get(p, '')):<16}" for p in names)
        lines.append(f"{head} {cell.normalized.picp:>8.4f} "
                     f"{cell.normalized.mpiw:>8.4f} {cell.denormalized.rmse:>8.4f}")
    return lines


# kind -> (record type, CSV table writer, terminal lines)
_KINDS = {"benchmark": (RunReport, _run_tables, _run_lines),
          "alpha_sweep": (SweepReport, _sweep_tables, _sweep_lines),
          "hparam_sweep": (SweepReport, _sweep_tables, _sweep_lines)}


def emit_report(report, path) -> List[str]:
    """Write the canonical JSON plus flat CSV tables; returns written paths.

    Each file is replaced whole, so a failed write leaves no partial or
    temp file.  Write failures propagate as OSError (an I/O category, not a
    data error) with the offending path attached.
    """
    base = _base_path(path)
    json_path = base + ".json"
    with _replacing(json_path) as fh:
        # Each record encodes as its attributes, which are its fields in order.
        json.dump(report, fh, indent=1, default=vars)
        fh.write("\n")
    return [json_path] + _KINDS[report.kind][1](report, base)


# The JSON types each declared shape accepts: a float takes an int too, and
# a bool is neither an int nor a float.
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,), bool: (bool,),
               list: (list,), dict: (dict,)}


def _decoded(hint, value, where=""):
    # ``value``, as parsed from JSON, built into what ``hint`` declares: each
    # record from its fields' hints, and every value of a declared shape of
    # one of its _JSON_TYPES; else a TypeError naming the field.
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return None if value is None else _decoded(args[0], value, where)
    shape = dict if dataclasses.is_dataclass(hint) else origin or hint
    if shape in _JSON_TYPES and type(value) not in _JSON_TYPES[shape]:
        raise TypeError(f"{where or 'report'} must be {shape.__name__}, got {value!r}")
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
        if raw.get("version") != REPORT_VERSION:
            raise DataError(f"{path}: unsupported report version {raw.get('version')!r}")
        if raw.get("kind") in _KINDS:
            return _decoded(_KINDS[raw["kind"]][0], raw)
    except (TypeError, AttributeError, ShapeError) as exc:
        raise DataError(f"{path}: malformed report ({type(exc).__name__}: {exc})") from None
    raise DataError(f"{path}: unknown report kind {raw.get('kind')!r}")


def format_report(report) -> str:
    """Human-readable table for terminals."""
    return "\n".join(_KINDS[report.kind][2](report))
