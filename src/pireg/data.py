"""Datasets: synthetic generators, delimited-text loading, standardization.

Synthetic tasks follow the classic noisy-sine setup: targets are
1.5 * sin(x) with additive skew-normal noise, so the optimal point
prediction does not sit at the center of the optimal interval.
``generate`` reads its settings from a ``pireg.config.DataSpec``, which
validates them.  Tabular ingestion reads plain delimited numeric text (one
row per sample, optional header) which covers the usual regression
benchmark files once exported to CSV.  A clean numeric table is parsed by
one vectorized ``np.loadtxt`` read; input that read refuses (quoted cells,
all-empty rows, ``float``-only spellings such as ``1_0``, or any faulty
cell) takes a cell-by-cell csv parse that accepts it or raises a located
error.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DataError, ShapeError


@dataclass
class Dataset:
    features: np.ndarray
    targets: np.ndarray
    feature_names: Optional[List[str]] = None
    source_tag: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {self.features.shape}")
        if self.targets.ndim != 1:
            raise ShapeError(f"targets must be 1-D, got shape {self.targets.shape}")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ShapeError(
                f"{self.features.shape[0]} feature rows but {self.targets.shape[0]} targets")
        if not np.all(np.isfinite(self.features)) or not np.all(np.isfinite(self.targets)):
            raise DataError(f"non-finite values in dataset {self.source_tag!r}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        return Dataset(self.features[indices], self.targets[indices],
                       self.feature_names, self.source_tag)


@dataclass(frozen=True)
class NormStats:
    """Standardization statistics fit on a training portion only."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float
    target_std: float


def sample_skew_normal(skew_alpha, rng, size):
    """Draw ``size`` skew-normal samples, density 2 * phi(x) * Phi(skew_alpha * x).

    Uses the two-Gaussian construction: with delta = a / sqrt(1 + a^2),
    the draw is delta * |z0| + sqrt(1 - delta^2) * z1 for independent
    standard normals z0, z1, the whole z0 batch drawn before z1.
    """
    skew_alpha = float(skew_alpha)
    if not math.isfinite(skew_alpha):
        raise ConfigError(f"skew_alpha must be finite, got {skew_alpha}")
    delta = skew_alpha / math.sqrt(1.0 + skew_alpha * skew_alpha)
    z0 = rng.standard_normal(size)
    z1 = rng.standard_normal(size)
    return delta * np.abs(z0) + math.sqrt(1.0 - delta * delta) * z1


def _skew_normal_mean_std(skew_alpha):
    # Closed-form moments of the unit skew-normal used to standardize noise.
    delta = skew_alpha / math.sqrt(1.0 + skew_alpha * skew_alpha)
    mean = delta * math.sqrt(2.0 / math.pi)
    std = math.sqrt(1.0 - 2.0 * delta * delta / math.pi)
    return mean, std


def generate(spec, seed) -> Dataset:
    """The table a sine or flat_skew ``DataSpec`` describes, x uniform on its range.

    Sine: 1.5 sin(x) plus noise_scale times a standardized skew-normal draw
    (none when noise_scale is 0).  Flat_skew: noise_scale times raw draws.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(spec.x_low, spec.x_high, size=spec.n)
    if spec.kind == "sine":
        y = 1.5 * np.sin(x)
        if spec.noise_scale != 0.0:
            mean, std = _skew_normal_mean_std(spec.skew_alpha)
            noise = (sample_skew_normal(spec.skew_alpha, rng, size=spec.n) - mean) / std
            y = y + spec.noise_scale * noise
    elif spec.kind == "flat_skew":
        y = spec.noise_scale * sample_skew_normal(spec.skew_alpha, rng, size=spec.n)
    else:
        raise ConfigError(f"no generator for data kind {spec.kind!r}")
    return Dataset(x.reshape(-1, 1), y, feature_names=["x"], source_tag=spec.kind)


def _parse_cell(text, row, col, path):
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}: non-numeric cell {text!r} at row {row}, column {col}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: non-finite value {text!r} at row {row}, column {col}")
    return value


def _is_numeric_row(cells):
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def _header(path, delimiter):
    """The first csv record, stripped, when it is non-blank and not numeric."""
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [c.strip() for c in next(csv.reader(fh, delimiter=delimiter), [])]
    if any(cells) and not _is_numeric_row(cells):
        return cells
    return None


def _vectorized_read(path, delimiter, skiprows):
    """The whole table parsed by numpy, or None when numpy refuses it.

    A refusal (a cell numpy cannot convert, ragged or blank-but-not-empty
    lines, no rows, a non-finite value, or a newline delimiter, which numpy
    rejects with a TypeError) sends the caller to the cell-by-cell
    parse, which either locates the fault or accepts what only ``float``
    reads.  Undecodable text is an error on both paths, so it is raised here.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            matrix = np.loadtxt(path, delimiter=delimiter, comments=None, encoding="utf-8",
                                ndmin=2, skiprows=skiprows, dtype=float)
    except UnicodeDecodeError:
        raise
    except (ValueError, TypeError):
        return None
    if matrix.shape[0] == 0 or not np.isfinite(matrix).all():
        return None
    return matrix


def _check_width(path, width):
    if width < 2:
        raise DataError(f"{path}: need at least two columns, got {width}")


def _read_records(path, delimiter, skip):
    """Cell-by-cell read of the records after the first ``skip``, blank ones
    dropped: (record number, stripped cells) pairs, all of one width."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, cells in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            cells = [c.strip() for c in cells]
            if line_no > skip and any(cells):
                rows.append((line_no, cells))
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0][1])
    _check_width(path, width)
    for line_no, cells in rows:
        if len(cells) != width:
            raise DataError(f"{path}: row {line_no} has {len(cells)} cells, expected {width}")
    return rows


def load_delimited(path, target_column=-1, delimiter=","):
    """Load a delimited numeric table as (features, target) columns.

    The target column is selected by integer index (negative allowed) or by
    name when a header is present.  A header line is auto-detected when the
    first row has any non-numeric cell, and must have one name per column.

    A clean numeric table (plain ASCII numbers, blank lines allowed) is
    parsed by one ``np.loadtxt`` call.  Anything numpy refuses, or that
    gives no rows or a non-finite value, is parsed again cell by cell with
    ``csv`` and ``float``: that path accepts quoted cells, all-empty rows
    and ``float`` spellings such as ``1_0``, and rejects ragged rows,
    non-numeric cells and non-finite values with located errors.
    """
    rows = None
    try:
        header = _header(path, delimiter)
        skip = int(header is not None)
        matrix = _vectorized_read(path, delimiter, skip)
        if matrix is None:
            rows = _read_records(path, delimiter, skip)
    except FileNotFoundError:
        raise DataError(f"no such data file: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: "
                        f"{exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None

    if rows is None:
        width = matrix.shape[1]
        _check_width(path, width)
    else:
        width = len(rows[0][1])
    if header is not None and len(header) != width:
        raise DataError(f"{path}: header has {len(header)} names, rows have {width} cells")
    if isinstance(target_column, str):
        if header is None:
            raise DataError(f"{path}: target column {target_column!r} needs a header line")
        try:
            target_idx = header.index(target_column)
        except ValueError:
            raise DataError(f"{path}: no column named {target_column!r} in header {header}") from None
    else:
        target_idx = int(target_column)
        if target_idx < 0:
            target_idx += width
        if not 0 <= target_idx < width:
            raise DataError(f"{path}: target column {target_column} out of range for width {width}")
    if rows is not None:
        # Parsed only now, so that a bad target is reported before a bad cell.
        matrix = np.array([[_parse_cell(cell, line_no, j, path)
                            for j, cell in enumerate(cells)] for line_no, cells in rows])

    keep = [j for j in range(width) if j != target_idx]
    names = None
    if header is not None:
        names = [header[j] for j in keep]
    # A copy, so that the targets do not keep the whole parsed matrix alive.
    return Dataset(matrix[:, keep], matrix[:, target_idx].copy(), feature_names=names,
                   source_tag=str(path))


def fit_normalize(train: Dataset) -> NormStats:
    """Per-column mean/std from the training portion; constant columns get std 1."""
    fmean = np.mean(train.features, axis=0)
    fstd = np.std(train.features, axis=0)
    fstd = np.where(fstd == 0.0, 1.0, fstd)
    tstd = float(np.std(train.targets))
    if tstd == 0.0:
        tstd = 1.0
    return NormStats(fmean, fstd, float(np.mean(train.targets)), tstd)


def apply_normalize(dataset: Dataset, stats: NormStats) -> Dataset:
    return Dataset(
        (dataset.features - stats.feature_mean) / stats.feature_std,
        (dataset.targets - stats.target_mean) / stats.target_std,
        dataset.feature_names,
        dataset.source_tag,
    )


def denormalize_targets(values, stats: NormStats):
    """Map target-scale quantities (targets, bounds, predictions) back to
    original units."""
    return np.asarray(values, dtype=float) * stats.target_std + stats.target_mean


def split(dataset: Dataset, test_fraction: float, seed, split_index: int
          ) -> Tuple[Dataset, Dataset]:
    """Shuffled split fixed by (seed, split_index); the first ceil((1 - f) * n) rows train."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = dataset.n
    if n < 2:
        raise DataError(f"cannot split a dataset of {n} row(s)")
    rng = np.random.default_rng([seed, split_index])
    perm = rng.permutation(n)
    n_train = int(math.ceil((1.0 - test_fraction) * n))
    n_train = min(max(n_train, 1), n - 1)
    return dataset.take(perm[:n_train]), dataset.take(perm[n_train:])


def save_delimited(dataset: Dataset, path, delimiter=","):
    """Write features plus a final target column, with a header line."""
    names = dataset.feature_names or [f"x{j}" for j in range(dataset.dim)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(list(names) + ["y"])
        for row, target in zip(dataset.features, dataset.targets):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
