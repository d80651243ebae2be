"""Evaluation metrics for interval and point predictions.

Coverage (picp) always uses the hard capture vector; width (mpiw) is a plain
mean.  Reports carry both normalized and denormalized variants of every
record: coverage is invariant under the affine denormalization while width
and the point errors scale by the target standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import ShapeError
from .losses import hard_capture

METRIC_NAMES = ("picp", "mpiw", "rmse", "mae")


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation pass: coverage, width, point errors, sample count."""

    picp: float
    mpiw: float
    rmse: float
    mae: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError(f"metrics need at least one sample, got n={self.n}")


@dataclass(frozen=True)
class MetricSummary:
    """Across-split mean with the standard error of the mean.

    stderr is None when only a single value was aggregated (no dispersion
    estimate exists).
    """

    mean: float
    stderr: Optional[float]


def _nonempty(*arrays):
    out = [np.asarray(a, dtype=float) for a in arrays]
    first = out[0].shape
    for a in out[1:]:
        if a.shape != first:
            raise ShapeError(f"length mismatch: {first} vs {a.shape}")
    if out[0].size == 0:
        raise ShapeError("empty input")
    return out


def picp(y, lower, upper) -> float:
    """Fraction of targets inside their interval (closed at both ends)."""
    y, lower, upper = _nonempty(y, lower, upper)
    return float(np.mean(hard_capture(y, lower, upper)))


def mpiw(lower, upper) -> float:
    """Mean interval width."""
    lower, upper = _nonempty(lower, upper)
    return float(np.mean(upper - lower))


def metrics_record(y, lower, upper, value) -> MetricsRecord:
    """All four metrics for one prediction set."""
    y, lower, upper, value = _nonempty(y, lower, upper, value)
    error = value - y
    return MetricsRecord(
        picp=picp(y, lower, upper),
        mpiw=mpiw(lower, upper),
        rmse=float(np.sqrt(np.mean(error ** 2))),
        mae=float(np.mean(np.abs(error))),
        n=int(y.shape[0]),
    )


def aggregate_splits(records: Sequence[MetricsRecord]) -> Dict[str, MetricSummary]:
    """Mean and standard error of each metric across split records.

    Standard error is the sample standard deviation (divisor m - 1) over
    sqrt(m); a single record yields stderr None.
    """
    if len(records) < 1:
        raise ShapeError("need at least one record to aggregate")
    out = {}
    for name in METRIC_NAMES:
        values = np.array([getattr(r, name) for r in records], dtype=float)
        m = values.shape[0]
        if m == 1:
            out[name] = MetricSummary(mean=float(values[0]), stderr=None)
        else:
            sd = float(np.std(values, ddof=1))
            out[name] = MetricSummary(mean=float(np.mean(values)), stderr=sd / math.sqrt(m))
    return out
