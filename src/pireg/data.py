"""Datasets: synthetic generators, delimited-text loading, standardization.

Synthetic tasks follow the classic noisy-sine setup: targets are
1.5 * sin(x) with additive skew-normal noise, so the optimal point
prediction does not sit at the center of the optimal interval.
``generate`` reads its settings from a ``pireg.config.DataSpec``, which
validates them.  Tabular ingestion reads plain delimited numeric text (one
row per sample, optional header) which covers the usual regression
benchmark files once exported to CSV.  A clean numeric table is parsed by
numpy in blocks, by this process alone or, from PARSE_SPLIT_BYTES on, by two
processes at once, one half each; input a block refuses (quoted cells,
all-empty rows, ``float``-only spellings such as ``1_0``, CR-only line ends,
or any faulty cell) takes a cell-by-cell csv parse that accepts it or raises
a located error.  The loaded features are row-major, a view of the parsed
matrix when the target is its first or last column.

Standardization is fit on a split's training rows (``fit_normalize``) and
applied by one arithmetic path, either as a copy of selected rows
(``apply_normalize``, for validation and held-out rows) or batch by batch as
the trainer gathers its rows (``NormalizedRows``), so a split holds no
table-sized copy beside the dataset.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import signal
import threading
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
            raise _non_finite(self.source_tag)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


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
    with open(path, newline="", encoding="utf-8-sig") as fh:
        cells = [c.strip() for c in next(csv.reader(fh, delimiter=delimiter), [])]
    if any(cells) and not _is_numeric_row(cells):
        return cells
    return None


def _vectorized_read(path, delimiter, skiprows):
    """The table parsed by numpy in blocks, or None when numpy refuses it.

    A refusal (a cell numpy cannot convert, ragged or blank-but-not-empty
    lines, more lines than newlines, no rows, or a newline delimiter, which
    numpy rejects with a TypeError) sends the caller to the cell-by-cell
    parse, which either locates the fault or accepts what only ``float``
    reads.  Undecodable text is an error on both paths, so it is raised here.

    Every part goes by ``_parse_part`` into one matrix, allocated once from
    the line counts.  From PARSE_SPLIT_BYTES on, where forking is safe
    (``_fork_safe``) and the system grants the pipe and the fork, a forked
    child parses the lines after the first line boundary past the middle
    byte; it sends its line count, then its (rows, width) and its rows,
    which are read into their place.  Otherwise this process parses it all.
    """
    cut = size = os.path.getsize(path)
    if size >= PARSE_SPLIT_BYTES and _fork_safe(_cpus()):
        with open(path, "rb") as fh:
            fh.seek(size // 2)
            fh.readline()
            cut = fh.tell()
    try:
        with warnings.catch_warnings(), contextlib.ExitStack() as stack:
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            if cut < size:
                try:
                    fd, _ = stack.enter_context(_forked(_parse_tail, path, delimiter, cut, size))
                    pipe = stack.enter_context(open(fd, "rb", closefd=False))
                except OSError:  # no pipe or fork
                    cut = size
            capacity = _line_count(path, 0, cut)
            if cut < size:  # 0 if the child died first; its (rows, width) is missing too
                capacity += int.from_bytes(pipe.read(8), "little")
            matrix, n = _parse_part(path, delimiter, 0, cut, skiprows, capacity)
            if cut < size:
                # Fewer than two numbers, as from a child that refused a
                # block, fail to unpack.  A buffered pipe's readinto fills
                # the rows unless the pipe ends.
                count, width = np.frombuffer(pipe.read(16), dtype=np.int64).tolist()
                if count:
                    if matrix is None:  # the head holds no rows
                        matrix = np.empty((capacity, width))
                    rows = matrix[n:n + count]
                    if (width != matrix.shape[1] or n + count > capacity
                            or pipe.readinto(rows) < rows.nbytes):
                        raise ValueError("the tail does not fit the head")
                    n += count
    except UnicodeDecodeError:
        raise
    except (ValueError, TypeError):
        return None
    return None if matrix is None else matrix[:n]


# Tables of at least this many bytes are parsed in two processes.  The
# loader alone on 2 CPUs, two processes against one whole-file read, medians
# of 15 alternating pairs: msd-shaped rows (91 columns, 5 decimals) +0.3 and
# +3.0 ms at 0.97 MB, +0.1 at 1.45 MB, -1.8, -1.5 and +2.4 at 1.94 MB, +1.3
# at 2.42 MB, -5.5 at 2.90 MB, -14.0 at 7.74 MB; rows of 12 columns at 17
# digits +1.1 and +0.5 ms at 0.47 MB, -0.5 at 0.71 MB, -1.7 and -1.9 at 0.94
# MB, -4.4 at 1.41 MB.  Narrower rows gain from about 0.7 MB; msd-shaped
# rows are mixed at 1.94 MB, still lose 1.3 ms at 2.42 MB and gain clearly
# from 2.90 MB.  The bound lies between the two shapes' crossovers, where
# either moves by a few ms at most.  Measured on 2 CPUs only.
PARSE_SPLIT_BYTES = 2 << 20
# Bytes of text parsed per np.loadtxt call: the parsing runs as fast as one
# whole-file call, and the temporaries stay a small part of the matrix.
PARSE_BLOCK_BYTES = 1 << 16


def _cpus():
    # The CPUs this process may use; 1 on a platform without
    # os.sched_getaffinity, which every platform that cannot fork lacks.
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_safe(cpus):
    # Whether work may be shared with forked children on ``cpus`` CPUs: more
    # than one, os.fork present, and no other Python thread alive, whose locks
    # a child would inherit held.  The loader and the trainer both ask.
    return cpus > 1 and hasattr(os, "fork") and threading.active_count() == 1


@contextlib.contextmanager
def _forked(body, *args):
    """A forked child that runs ``body(send, *args)``, SIGINT ignored, where
    ``send`` is the writing end of a pipe.  Yields the reading end and a
    function that waits for the child and gives its exit code (-N for signal
    N): 0 once ``body`` returns, 1 if it raises.  Leaving the block kills a
    child not yet waited for, reaps it and closes the pipe; an OSError from
    os.pipe or os.fork leaves nothing open.  The loader and the trainer both
    fork through it.
    """
    receive, send = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(receive)
        os.close(send)
        raise
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(receive)
            body(send, *args)
            code = 0
        finally:
            os._exit(code)
    os.close(send)
    codes = []

    def wait():
        if not codes:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        return codes[0]

    try:
        yield receive, wait
    finally:
        if not codes:
            os.kill(pid, signal.SIGKILL)
        wait()
        os.close(receive)


def _blocks(path, delimiter, start, stop, skiprows):
    # The lines of bytes [start, stop) of the table, stop a line boundary or
    # the end, parsed by np.loadtxt about PARSE_BLOCK_BYTES at a time: the
    # first block skips ``skiprows`` lines and, at the start of the file, a
    # byte-order mark.
    with open(path, "rb") as fh:
        fh.seek(start)
        pos, encoding = start, "utf-8-sig" if start == 0 else "utf-8"
        while pos < stop:
            text = fh.read(min(PARSE_BLOCK_BYTES, stop - pos))
            if not text:
                return
            if not text.endswith(b"\n"):
                text += fh.readline()
            pos += len(text)
            yield np.loadtxt(io.TextIOWrapper(io.BytesIO(text), encoding=encoding),
                             delimiter=delimiter, comments=None, ndmin=2, skiprows=skiprows,
                             dtype=float)
            encoding, skiprows = "utf-8", 0


def _line_count(path, start, stop):
    # An upper bound on the lines in bytes [start, stop): newlines plus one.
    lines, buffer = 1, bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh:
        fh.seek(start)
        while start < stop and (got := fh.readinto(buffer)):
            lines += buffer.count(b"\n", 0, min(got, stop - start))
            start += got
    return lines


def _parse_part(path, delimiter, start, stop, skiprows, capacity):
    # Bytes [start, stop) parsed by _blocks into the first rows of one matrix
    # of ``capacity`` rows, allocated at the first block that has rows:
    # (matrix, rows filled), the matrix None if no block has rows.  A block
    # that numpy refuses, or whose rows do not fit, raises a ValueError.
    matrix, n = None, 0
    for block in _blocks(path, delimiter, start, stop, skiprows):
        if not len(block):
            continue
        if matrix is None:
            matrix = np.empty((capacity, block.shape[1]))
        if block.shape[1] != matrix.shape[1] or n + len(block) > capacity:
            raise ValueError("a block does not fit the rows before it")
        matrix[n:n + len(block)] = block
        n += len(block)
    return matrix, n


def _parse_tail(send, path, delimiter, start, stop):
    # The forked child's part of _vectorized_read: sends its line count before
    # it parses, then its (rows, width), width 0 without rows, and its rows;
    # a block it refuses raises, which ends the pipe after the count.
    capacity = _line_count(path, start, stop)
    with open(send, "wb") as pipe:
        pipe.write(capacity.to_bytes(8, "little"))
        pipe.flush()
        part, n = _parse_part(path, delimiter, start, stop, 0, capacity)
        pipe.write(np.array([n, n and part.shape[1]], dtype=np.int64).tobytes())
        if n:
            pipe.write(part[:n].data)


def _check_width(path, width):
    if width < 2:
        raise DataError(f"{path}: need at least two columns, got {width}")


def _read_records(path, delimiter, skip):
    """Cell-by-cell read of the records after the first ``skip``, blank ones
    dropped: (record number, stripped cells) pairs, all of one width."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    parsed once by numpy, in blocks (``_vectorized_read``).  Anything numpy
    refuses, or that gives no rows or a non-finite value, is parsed again
    cell by cell with ``csv`` and ``float``: that path accepts quoted cells,
    all-empty rows, CR-only line ends and ``float`` spellings such as
    ``1_0``, and rejects ragged rows, non-numeric cells and non-finite
    values with located errors.
    """
    rows = None
    try:
        header = _header(path, delimiter)
        skip = int(header is not None)
        matrix = _vectorized_read(path, delimiter, skip)
        if matrix is None or not np.isfinite(matrix).all():
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

    names = None
    if header is not None:
        names = header[:target_idx] + header[target_idx + 1:]
    # Row-major features: a view of the parsed matrix when the target is at
    # either edge, else a copy without the target column.  The targets are a
    # contiguous copy of their column.
    if target_idx == width - 1:
        features = matrix[:, :-1]
    elif target_idx == 0:
        features = matrix[:, 1:]
    else:
        features = np.delete(matrix, target_idx, axis=1)
    return Dataset(features, matrix[:, target_idx].copy(), feature_names=names,
                   source_tag=str(path))


# Rows that fit_normalize gathers at a time.  Fitting 45,000 of a 50,000 x 91
# table's rows through its 90-feature view took 25 ms a call in chunks of
# 1,024 or 2,048 rows, 32 ms in chunks of 4,096, and 59 ms when each block of
# 8 columns was gathered on its own (medians of 21, 2 vCPU).
STAT_CHUNK_ROWS = 2048


def _non_finite(tag):
    return DataError(f"non-finite values in dataset {tag!r}")


def _standardized(values, rows, mean, std):
    """``values[rows]`` as a new standardized array: gathered, then centered
    and divided in place, the same IEEE operations per element as
    ``(x - mean) / std``.  Every normalized value, feature or target, whole
    table or training batch, comes from here.
    """
    # A fancy-index gather; np.take would first copy a strided or
    # column-major matrix whole into row-major order.
    out = values[rows]
    out -= mean
    out /= std
    return out


def _row_chunks(values, rows):
    # ``values[rows]``, STAT_CHUNK_ROWS rows at a time, each chunk a new
    # array led, after the first, by the row before it, free for a running
    # total.  A lone column, or the 1-D targets, is one chunk: numpy sums a
    # single column pairwise, so it must be reduced whole.  The gather
    # indexes; np.take would first copy a strided matrix whole.
    step = len(rows) if values.ndim == 1 or values.shape[1] == 1 else STAT_CHUNK_ROWS
    for start in range(0, len(rows), step):
        yield values[rows[max(start - 1, 0):start + step]]


def _column_sums(chunks):
    # Column sums over _row_chunks: each chunk's lead row takes the running
    # total, so the rows are added one after another, in the order of one
    # axis-0 reduction of the whole matrix, which adds rows sequentially
    # when there are two or more columns.
    total = None
    for chunk in chunks:
        if total is not None:
            chunk[0] = total
        total = np.add.reduce(chunk, axis=0)
    return total


def _moments(values, rows, tag):
    """Mean and std (1 where it is 0) of ``values[rows]`` over axis 0, bit for
    bit ``np.mean`` and ``np.std`` of the gathered rows, refused with a
    DataError when they would standardize any of them to a non-finite number.

    Every width is reduced by the same running sums over ``_row_chunks``, one
    pass per moment, so no copy of two or more selected columns exists
    whole; a lone column, or the targets, is a single chunk.

    With finite inputs a finite std implies finite standardized values: the
    mean is then finite too, no difference from it overflows (its square
    would make the std infinite), and none exceeds about sqrt(n) stds unless
    its square underflows, which leaves it tiny against any std.  An
    infinite std leaves a value non-finite exactly when its difference from
    the mean overflows, and rounding is monotone, so the column's least and
    greatest values, standardized, are the only ones to check.  Numpy's
    overflow warnings are silenced, since each outcome is checked here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _column_sums(_row_chunks(values, rows)) / len(rows)
        # Each chunk is a new gather, so it is centered and squared in place.
        squares = (np.square(np.subtract(chunk, mean, out=chunk), out=chunk)
                   for chunk in _row_chunks(values, rows))
        std = np.sqrt(_column_sums(squares) / len(rows))
        std = np.where(std == 0.0, 1.0, std)
        if not np.isfinite(std).all():
            chunks = _row_chunks(values, rows)
            lows, highs = zip(*((c.min(axis=0), c.max(axis=0)) for c in chunks))
            ends = np.array([np.min(lows, axis=0), np.max(highs, axis=0)])
            if not np.isfinite((ends - mean) / std).all():
                raise _non_finite(tag)
    return mean, std


def fit_normalize(dataset: Dataset, rows=None) -> NormStats:
    """Per-column mean/std of ``dataset``'s rows; constant columns get std 1.

    ``rows``, an index array, selects the rows (in that order) the statistics
    are fit on; by default every row.  The result is ``np.mean``/``np.std``
    of the selected rows, bit for bit; the targets and a lone feature column
    are gathered whole, wider features a chunk of rows at a time (see
    ``_moments``).  An empty selection raises a DataError.

    Statistics that would standardize one of the selected rows, features or
    target, to a non-finite value raise a DataError, as that normalized
    copy would: the trainer reads those rows batch by batch, never whole.
    """
    rows = np.arange(dataset.n) if rows is None else rows
    if not len(rows):
        raise DataError(f"no rows to fit standardization on in dataset {dataset.source_tag!r}")
    fmean, fstd = _moments(dataset.features, rows, dataset.source_tag)
    tmean, tstd = _moments(dataset.targets, rows, dataset.source_tag)
    return NormStats(fmean, fstd, float(tmean), float(tstd))


def apply_normalize(dataset: Dataset, stats: NormStats, rows=None) -> Dataset:
    """A standardized copy of ``dataset``'s rows; ``dataset`` is left unchanged.

    ``rows``, an index array, selects and orders the rows copied; by default
    every row.
    """
    rows = np.arange(dataset.n) if rows is None else rows
    return Dataset(
        _standardized(dataset.features, rows, stats.feature_mean, stats.feature_std),
        _standardized(dataset.targets, rows, stats.target_mean, stats.target_std),
        dataset.feature_names,
        dataset.source_tag,
    )


class NormalizedRows:
    """Rows of a dataset, standardized as they are read: what a split trains on.

    ``targets`` holds the rows' standardized targets, one float each, and
    ``features[idx]`` gathers ``dataset.features[rows[idx]]`` for any index
    array ``idx`` and standardizes that batch, bit for bit as
    ``apply_normalize(dataset, stats, rows).features[idx]``.  Nothing
    table-sized is held beside the dataset.  ``fit_normalize`` has already
    refused statistics that leave one of these rows non-finite.
    """

    def __init__(self, dataset: Dataset, stats: NormStats, rows):
        self.features = _BatchGather(dataset.features, rows, stats)
        self.targets = _standardized(dataset.targets, rows, stats.target_mean, stats.target_std)
        self.n, self.dim = len(rows), dataset.dim


class _BatchGather:
    # NormalizedRows.features: subscripting gathers and standardizes a batch.
    def __init__(self, features, rows, stats):
        self._features, self._rows, self._stats = features, rows, stats

    def __getitem__(self, idx):
        return _standardized(self._features, self._rows[idx], self._stats.feature_mean,
                             self._stats.feature_std)


def denormalize_targets(values, stats: NormStats):
    """Map target-scale quantities (targets, bounds, predictions) back to
    original units."""
    return np.asarray(values, dtype=float) * stats.target_std + stats.target_mean


def split(dataset: Dataset, test_fraction: float, seed, split_index: int
          ) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices of a shuffled split fixed by (seed, split_index).

    Returns (train, test) index arrays; the first ceil((1 - f) * n) rows of
    the shuffle train.  No row is copied.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = dataset.n
    if n < 2:
        raise DataError(f"cannot split a dataset of {n} row(s)")
    rng = np.random.default_rng([seed, split_index])
    perm = rng.permutation(n)
    n_train = int(math.ceil((1.0 - test_fraction) * n))
    n_train = min(max(n_train, 1), n - 1)
    return perm[:n_train], perm[n_train:]


def save_delimited(dataset: Dataset, path, delimiter=","):
    """Write features plus a final target column, with a header line."""
    names = dataset.feature_names or [f"x{j}" for j in range(dataset.dim)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(list(names) + ["y"])
        for row, target in zip(dataset.features, dataset.targets):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
