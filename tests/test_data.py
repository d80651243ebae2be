"""Tests for synthetic generators, delimited ingestion, standardization, splits.

Oracles here are independent of the implementation: the normal CDF comes from
math.erfc, skew-normal moments from their closed forms, normalization
statistics from the stdlib statistics module, and delimited tables from a
cell-by-cell csv parse kept here as it was before the vectorized loader.
"""

import contextlib
import csv
import errno
import io
import math
import os
import statistics
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pireg.data

from pireg.config import DataSpec
from pireg.data import (
    Dataset,
    NormStats,
    apply_normalize,
    denormalize_targets,
    fit_normalize,
    generate,
    load_delimited,
    sample_skew_normal,
    save_delimited,
    split,
)
from pireg.errors import ConfigError, DataError, ShapeError
from pireg.metrics import picp

from conftest import assert_no_child_left, open_descriptors


def phi(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_statistic(draws):
    """One-sample Kolmogorov-Smirnov distance to the standard normal CDF."""
    x = np.sort(np.asarray(draws))
    n = x.size
    cdf = np.array([phi(v) for v in x])
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return max(float(np.max(np.abs(ecdf_hi - cdf))), float(np.max(np.abs(ecdf_lo - cdf))))


def skew_normal_moments(alpha):
    """Closed-form mean, std, and skewness of the unit skew-normal."""
    delta = alpha / math.sqrt(1.0 + alpha * alpha)
    mu = delta * math.sqrt(2.0 / math.pi)
    var = 1.0 - 2.0 * delta * delta / math.pi
    gamma = (4.0 - math.pi) / 2.0 * mu**3 / var**1.5
    return mu, math.sqrt(var), gamma


def sample_skewness(x):
    x = np.asarray(x)
    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    return m3 / m2**1.5


# ---------------------------------------------------------------------------
# sample_skew_normal


def test_skew_zero_is_standard_normal_by_ks():
    draws = sample_skew_normal(0.0, np.random.default_rng(11), size=100_000)
    assert ks_statistic(draws) < 0.01


def test_skew_draw_matches_two_gaussian_construction():
    # Pins the RNG consumption order: z0 batch first, then z1 batch.
    alpha = 3.0
    delta = alpha / math.sqrt(1.0 + alpha * alpha)
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal(5)
    z1 = rng.standard_normal(5)
    expected = delta * np.abs(z0) + math.sqrt(1.0 - delta * delta) * z1
    got = sample_skew_normal(alpha, np.random.default_rng(7), size=5)
    assert np.array_equal(got, expected)


def test_skew_mean_at_alpha_100_matches_closed_form():
    mu, _, _ = skew_normal_moments(100.0)
    assert mu == pytest.approx(0.7978, abs=1e-3)  # delta ~ 1 at alpha=100
    draws = sample_skew_normal(100.0, np.random.default_rng(5), size=100_000)
    assert float(np.mean(draws)) == pytest.approx(mu, abs=0.01)


def test_skew_skewness_at_alpha_100_matches_closed_form():
    _, _, gamma = skew_normal_moments(100.0)
    draws = sample_skew_normal(100.0, np.random.default_rng(17), size=1_000_000)
    assert sample_skewness(draws) == pytest.approx(gamma, abs=0.01)


def test_skew_sign_flip_mirrors_the_distribution():
    pos = sample_skew_normal(8.0, np.random.default_rng(2), size=100_000)
    neg = sample_skew_normal(-8.0, np.random.default_rng(3), size=100_000)
    assert float(np.mean(neg)) == pytest.approx(-float(np.mean(pos)), abs=0.01)
    assert float(np.std(neg)) == pytest.approx(float(np.std(pos)), abs=0.01)
    assert sample_skewness(neg) == pytest.approx(-sample_skewness(pos), abs=0.05)


def test_skew_rejects_non_finite_alpha():
    with pytest.raises(ConfigError):
        sample_skew_normal(float("nan"), np.random.default_rng(0), size=3)
    with pytest.raises(ConfigError):
        sample_skew_normal(float("inf"), np.random.default_rng(0), size=3)


# ---------------------------------------------------------------------------
# generate: sine and flat_skew


def test_gen_sine_zero_noise_is_the_pure_curve():
    data = generate(DataSpec(n=200, noise_scale=0.0), seed=4)
    x = data.features[:, 0]
    assert np.array_equal(data.targets, 1.5 * np.sin(x))
    assert np.max(np.abs(data.targets)) <= 1.5


def test_gen_sine_defaults_match_contract():
    data = generate(DataSpec(), seed=0)
    assert data.n == 100 and data.dim == 1
    assert float(np.min(data.features)) >= -2.0
    assert float(np.max(data.features)) <= 2.0
    assert data.feature_names == ["x"] and data.source_tag == "sine"


def test_gen_sine_noise_is_standardized():
    # The skew draw is shifted/scaled to zero mean, unit variance before the
    # noise_scale multiplier, so residuals have std ~ noise_scale.
    data = generate(DataSpec(n=200_000, noise_scale=0.3, skew_alpha=100.0), seed=12)
    residual = data.targets - 1.5 * np.sin(data.features[:, 0])
    assert float(np.mean(residual)) == pytest.approx(0.0, abs=0.01)
    assert float(np.std(residual)) == pytest.approx(0.3, abs=0.01)


def test_gen_sine_determinism_and_validation():
    spec = DataSpec(n=50)
    a = generate(spec, seed=9)
    b = generate(spec, seed=9)
    c = generate(spec, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, c.targets)
    # Generator settings are validated by DataSpec (tests/test_config.py);
    # a file spec has no generator.
    with pytest.raises(ConfigError, match="no generator"):
        generate(DataSpec(kind="file", path="table.csv"), seed=0)


def test_gen_flat_skew_is_scaled_raw_draws():
    spec = DataSpec(kind="flat_skew", n=100_000, noise_scale=2.0, skew_alpha=100.0)
    data = generate(spec, seed=21)
    mu, sd, _ = skew_normal_moments(100.0)
    assert float(np.mean(data.targets)) == pytest.approx(2.0 * mu, abs=0.02)
    assert float(np.std(data.targets)) == pytest.approx(2.0 * sd, abs=0.02)
    again = generate(spec, seed=21)
    assert np.array_equal(data.targets, again.targets)
    assert data.source_tag == "flat_skew"


# ---------------------------------------------------------------------------
# load_delimited / save_delimited


def _write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_three_by_three_with_target_index(tmp_path):
    path = _write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n")
    data = load_delimited(path, target_column=2)
    assert data.features.shape == (3, 2)
    assert np.array_equal(data.features, [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]])
    assert np.array_equal(data.targets, [3.0, 6.0, 9.0])
    assert data.feature_names is None


def test_load_negative_index_selects_from_the_end(tmp_path):
    path = _write(tmp_path, "1,2,3\n4,5,6\n")
    data = load_delimited(path, target_column=-1)
    assert np.array_equal(data.targets, [3.0, 6.0])


def test_load_header_autodetect_and_target_by_name(tmp_path):
    path = _write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
    data = load_delimited(path, target_column="y")
    assert data.feature_names == ["a", "b"]
    assert np.array_equal(data.targets, [3.0, 6.0])
    # numeric first row is data, not header
    plain = load_delimited(_write(tmp_path, "1,2\n3,4\n", "p.csv"), target_column=-1)
    assert plain.n == 2 and plain.feature_names is None


def test_load_target_name_without_header_fails(tmp_path):
    path = _write(tmp_path, "1,2\n3,4\n")
    with pytest.raises(DataError, match="header"):
        load_delimited(path, target_column="y")


def test_load_unknown_target_name_fails(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="no column named"):
        load_delimited(path, target_column="z")


def test_load_target_index_out_of_range(tmp_path):
    path = _write(tmp_path, "1,2\n3,4\n")
    with pytest.raises(DataError, match="out of range"):
        load_delimited(path, target_column=5)


def test_load_missing_file():
    with pytest.raises(DataError, match="no such data file"):
        load_delimited("/nonexistent/never.csv")


def test_load_non_numeric_cell_reports_location(tmp_path):
    path = _write(tmp_path, "1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"row 2.*column 1"):
        load_delimited(path)


def test_load_non_finite_cell_rejected(tmp_path):
    path = _write(tmp_path, "1,2\n3,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        load_delimited(path)
    nan_path = _write(tmp_path, "1,nan\n3,4\n", "n.csv")
    with pytest.raises(DataError, match="non-finite"):
        load_delimited(nan_path)


def test_load_ragged_rows_report_line(tmp_path):
    path = _write(tmp_path, "1,2,3\n4,5\n")
    with pytest.raises(DataError, match="row 2"):
        load_delimited(path)


def test_load_single_column_rejected(tmp_path):
    path = _write(tmp_path, "1\n2\n")
    with pytest.raises(DataError, match="two columns"):
        load_delimited(path)


def test_load_empty_and_blank_files_rejected(tmp_path):
    with pytest.raises(DataError, match="no data rows"):
        load_delimited(_write(tmp_path, ""))
    with pytest.raises(DataError, match="no data rows"):
        load_delimited(_write(tmp_path, "\n\n  \n", "blank.csv"))


def test_load_blank_lines_skipped_and_custom_delimiter(tmp_path):
    path = _write(tmp_path, "1;2\n\n3;4\n")
    data = load_delimited(path, delimiter=";")
    assert data.n == 2
    assert np.array_equal(data.targets, [2.0, 4.0])


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(33)
    original = Dataset(rng.normal(size=(17, 3)), rng.normal(size=17),
                       feature_names=["u", "v", "w"])
    path = tmp_path / "saved.csv"
    save_delimited(original, path)
    loaded = load_delimited(path, target_column="y")
    assert np.array_equal(loaded.features, original.features)  # repr round-trips
    assert np.array_equal(loaded.targets, original.targets)
    assert loaded.feature_names == ["u", "v", "w"]


def test_loaded_targets_do_not_pin_the_parsed_matrix(tmp_path):
    # The vectorized read, then the cell-by-cell parse (quoted cells).
    for name, text in (("clean.csv", "1,2,3\n4,5,6\n"), ("quoted.csv", '"1",2,3\n4,5,6\n')):
        data = load_delimited(_write(tmp_path, text, name), target_column=1)
        assert np.array_equal(data.targets, [2.0, 5.0])
        assert data.targets.base is None, name


@pytest.mark.parametrize("target", [-1, 0, 2])
def test_loaded_features_are_row_major(tmp_path, target):
    # A view of the parsed matrix when the target sits at either edge, a
    # contiguous copy without the target column otherwise; row-major either
    # way, and the values of the columns left.
    values = np.arange(20.0).reshape(4, 5)
    path = tmp_path / "table.csv"
    np.savetxt(path, values, fmt="%.17g", delimiter=",")
    data = load_delimited(path, target_column=target)
    assert data.features.strides[1] == 8 and data.features.shape == (4, 4)
    assert (data.features.base is not None) == (target != 2)
    assert data.features.tobytes() == np.delete(values, target, axis=1).tobytes()
    assert data.targets.tobytes() == values[:, target].tobytes()


def test_load_holds_the_parsed_matrix_and_small_temporaries(tmp_path):
    # Traced allocations of a last-column-target load: the parsed matrix,
    # which the features view, its finiteness mask (1/8 of it) and the target
    # copy (1/31), and the reader's own buffers.  Measured 1.21x the matrix;
    # the bound adds 0.09x of margin.  A feature copy beside the matrix
    # measured 2.12x.
    import tracemalloc

    rng = np.random.default_rng(3)
    path = tmp_path / "wide.csv"
    np.savetxt(path, rng.standard_normal((10_000, 31)), fmt="%.17g", delimiter=",")
    matrix_bytes = 10_000 * 31 * 8
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        data = load_delimited(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.features.shape == (10_000, 30)
    assert peak - baseline <= 1.3 * matrix_bytes


def test_load_rejects_header_width_that_differs_from_rows(tmp_path):
    # Each of these once died with an IndexError or named 2 of 3 columns.
    narrow = _write(tmp_path, "a,b\n1,2,3\n4,5,6\n")
    for target in ("b", 0, -1):
        with pytest.raises(DataError, match="header has 2 names, rows have 3 cells"):
            load_delimited(narrow, target_column=target)
    wide = _write(tmp_path, "a,b,c,d\n1,2,3\n", "wide.csv")
    with pytest.raises(DataError, match="header has 4 names, rows have 3 cells"):
        load_delimited(wide, target_column="d")
    # The cell-by-cell path applies the same check.
    quoted = _write(tmp_path, 'a,b\n"1",2,3\n', "quoted.csv")
    with pytest.raises(DataError, match="header has 2 names, rows have 3 cells"):
        load_delimited(quoted)


def test_load_non_utf8_file_is_a_data_error(tmp_path):
    for name, content in (("early.csv", b"1,2\n3,\xff\n"),
                          ("late.csv", b"1,2\n" * 20_000 + b"3,\xfe\n")):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(DataError, match=rf"{name}: not UTF-8 text"):
            load_delimited(path)


# ---------------------------------------------------------------------------
# load_delimited against the cell-by-cell oracle


def _oracle_cell(text, row, col, path):
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}: non-numeric cell {text!r} at row {row}, column {col}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: non-finite value {text!r} at row {row}, column {col}")
    return value


def _oracle_numeric_row(cells):
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def cell_by_cell_load(path, target_column=-1, delimiter=","):
    """The loader as it was before the vectorized read: csv records, one
    ``float`` per cell, every check in its original order."""
    rows = []
    header = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            for line_no, cells in enumerate(reader, start=1):
                cells = [c.strip() for c in cells if c is not None]
                if not cells or all(c == "" for c in cells):
                    continue
                if line_no == 1 and not _oracle_numeric_row(cells):
                    header = cells
                    continue
                rows.append((line_no, cells))
    except FileNotFoundError:
        raise DataError(f"no such data file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None

    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0][1])
    if width < 2:
        raise DataError(f"{path}: need at least two columns, got {width}")
    for line_no, cells in rows:
        if len(cells) != width:
            raise DataError(f"{path}: row {line_no} has {len(cells)} cells, expected {width}")

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

    matrix = np.empty((len(rows), width))
    for i, (line_no, cells) in enumerate(rows):
        for j, cell in enumerate(cells):
            matrix[i, j] = _oracle_cell(cell, line_no, j, path)

    keep = [j for j in range(width) if j != target_idx]
    names = None
    if header is not None:
        names = [header[j] for j in keep]
    return Dataset(matrix[:, keep], matrix[:, target_idx], feature_names=names,
                   source_tag=str(path))


def _msd_shaped_text(rows):
    # 90 features printed with 5 decimals and an integer year last, as the
    # msd export is.
    rng = np.random.default_rng(91)
    features = rng.normal(size=(rows, 90)) * np.geomspace(0.5, 500.0, 90)
    year = rng.integers(1922, 2012, size=rows)
    lines = [",".join([*(f"{v:.5f}" for v in row), str(y)]) for row, y in zip(features, year)]
    return "\n".join(lines) + "\n"


def _saved_table_text(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "saved_for_corpus.csv"
    save_delimited(Dataset(rng.normal(size=(30, 3)), rng.normal(size=30),
                           feature_names=["u", "v", "w"]), path)
    return path.read_text(encoding="utf-8")


# (case id, file text, delimiter, target column)
LOADER_CORPUS = [
    ("plain", "1,2,3\n4,5,6\n", ",", -1),
    ("padded cells", " 1 , 2\t,3 \n 4,5 , 6\n", ",", 0),
    ("crlf", "x,y\r\n1,2\r\n3,4\r\n", ",", "y"),
    ("cr only", "1,2\r3,4\r", ",", -1),
    ("cr only, several blocks", _msd_shaped_text(200).replace("\n", "\r"), ",", -1),
    ("no final eol", "1,2\n3,4", ",", -1),
    ("bom on numeric first row", "\ufeff1,2\n3,4\n", ",", -1),
    ("bom on header", "\ufeffa,b\n1,2\n", ",", "b"),
    ("quoted numbers", '"1","2"\n"3","4"\n', ",", -1),
    ("quoted decimal comma", '1,"2,5"\n3,4\n', ",", -1),
    ("underscore digits", "1_0,2\n3,4\n", ",", -1),
    ("hex cell", "1,2\n0x10,4\n", ",", -1),
    ("unicode-digit first row", "\u0661,\u0662\n3,4\n", ",", -1),
    ("comma-only row", "1,2\n,\n3,4\n", ",", -1),
    ("whitespace-only line", "1,2\n   \n3,4\n", ",", -1),
    ("blank line before header", "\na,b\n1,2\n", ",", -1),
    ("space delimiter", "1 2\n3 4\n", " ", -1),
    ("double space", "1  2\n3  4\n", " ", -1),
    ("tab delimiter", "a\tb\n1\t2\n3\t4\n", "\t", "a"),
    ("semicolon delimiter", "1;2\n3;4\n", ";", -1),
    ("newline delimiter", "1,2\n3,4\n", "\n", -1),
    ("quote delimiter", '1"2\n3"4\n', '"', -1),
    ("hash at line start", "#1,2\n3,4\n", ",", -1),
    ("hash mid-cell", "1,2\n3,4#5\n", ",", -1),
    ("hash header", "#a,b\n1,2\n", ",", -1),
    ("nan", "1,2\n3,nan\n", ",", -1),
    ("minus infinity", "-Infinity,2\n3,4\n", ",", -1),
    ("overflow", "1,2\n1e400,4\n", ",", -1),
    ("trailing delimiter", "1,2,\n3,4,\n", ",", -1),
    ("ragged rows", "1,2,3\n4,5\n", ",", -1),
    ("one column", "1\n2\n", ",", -1),
    ("one column then bad cell", "1\nx\n", ",", -1),
    ("single cell first row then ragged", "1\n2,3\n", ",", -1),
    ("bad target before bad cell", "1,2\n3,oops\n", ",", 7),
    ("target name without header", "1,2\n3,4\n", ",", "y"),
    ("unknown target name", "a,b\n1,2\n", ",", "z"),
    ("header only", "a,b\n", ",", -1),
    ("empty", "", ",", -1),
    ("blank lines only", "\n \n\n", ",", -1),
    ("signed and bare-point numbers", "+1,-2\n.5,5.\n-0,1e-320\n", ",", 1),
    ("msd-shaped 2000 x 91", _msd_shaped_text(2000), ",", -1),
]


def _outcome(loader, path, delimiter, target):
    try:
        data = loader(path, target_column=target, delimiter=delimiter)
    except Exception as exc:  # the oracle's exceptions are part of its contract
        return ("error", type(exc), str(exc))
    return ("loaded", data.features.shape, data.features.tobytes(), data.targets.tobytes(),
            data.feature_names)


@pytest.mark.parametrize("case, text, delimiter, target", LOADER_CORPUS,
                         ids=[case[0] for case in LOADER_CORPUS])
def test_load_matches_cell_by_cell_oracle(tmp_path, case, text, delimiter, target):
    path = tmp_path / "corpus.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_delimited, path, delimiter, target) == \
        _outcome(cell_by_cell_load, path, delimiter, target)


def test_load_saved_table_matches_cell_by_cell_oracle(tmp_path):
    path = _write(tmp_path, _saved_table_text(tmp_path))
    expected = _outcome(cell_by_cell_load, path, ",", "y")
    assert expected[0] == "loaded"
    assert _outcome(load_delimited, path, ",", "y") == expected


def test_clean_numeric_table_skips_the_cell_by_cell_parse(tmp_path, monkeypatch):
    # A vectorized path that silently never runs would still pass the oracle
    # comparison; here the per-cell parser is not available at all.
    msd = _write(tmp_path, _msd_shaped_text(50), "msd.csv")
    saved = _write(tmp_path, _saved_table_text(tmp_path), "saved.csv")
    expected = [cell_by_cell_load(msd), cell_by_cell_load(saved, target_column="y")]

    def refuse(*args):
        raise AssertionError("a clean numeric table was parsed cell by cell")

    monkeypatch.setattr(pireg.data, "_parse_cell", refuse)
    got = [load_delimited(msd), load_delimited(saved, target_column="y")]
    for loaded, oracle in zip(got, expected):
        assert loaded.features.tobytes() == oracle.features.tobytes()
        assert loaded.targets.tobytes() == oracle.targets.tobytes()
        assert loaded.feature_names == oracle.feature_names


def test_a_byte_order_mark_is_not_part_of_the_first_cell(tmp_path, monkeypatch):
    # Excel's "CSV UTF-8" export opens the file with a byte-order mark.  It
    # must not turn a headerless table's first row into a header, nor stick
    # to a header's first name; both clean tables load without the per-cell
    # parse, so the vectorized read strips the mark too.
    headerless = _write(tmp_path, "\ufeff1.0,2.0\n3,4\n5,6\n", "headerless.csv")
    named = _write(tmp_path, "\ufeffyear,x\n1990,0.5\n2000,1.5\n", "named.csv")
    monkeypatch.setattr(pireg.data, "_parse_cell", None)
    data = load_delimited(headerless)
    assert data.feature_names is None
    assert data.features.tolist() == [[1.0], [3.0], [5.0]]
    assert data.targets.tolist() == [2.0, 4.0, 6.0]
    data = load_delimited(named, target_column="year")
    assert data.feature_names == ["x"]
    assert data.targets.tolist() == [1990.0, 2000.0]


# ---------------------------------------------------------------------------
# the two-process read


@pytest.fixture
def read_in_two(monkeypatch):
    """``load_delimited`` of any size parsed in two processes, as on two
    CPUs; the list records whether each numpy read forked a child and gave
    a matrix (True), or read the table in one process or refused it to the
    cell-by-cell read (False)."""
    ran, forks = [], []
    real_read, real_fork = pireg.data._vectorized_read, pireg.data._forked

    @contextlib.contextmanager
    def fork(*args):
        with real_fork(*args) as child:
            forks.append(child)
            yield child

    def spy(*args):
        forks.clear()
        ran.append(False)
        matrix = real_read(*args)
        ran[-1] = bool(forks) and matrix is not None
        return matrix

    monkeypatch.setattr(pireg.data, "PARSE_SPLIT_BYTES", 0)
    monkeypatch.setattr(pireg.data, "_cpus", lambda: 2)
    monkeypatch.setattr(pireg.data, "_forked", fork)
    monkeypatch.setattr(pireg.data, "_vectorized_read", spy)
    return ran


def _cut(data):
    # Where the two-process read splits a table's bytes: after the first
    # newline from the middle byte on.
    return data.index(b"\n", len(data) // 2) + 1


def _two_part_table(rows=120, header="", newline="\n", final=True, blank_at_cut=False):
    # Rows of 4 columns.  With blank_at_cut, six blank lines between two
    # halves of equal bytes, the second the first's rows reversed, so that
    # the cut falls inside them.
    rng = np.random.default_rng(12)
    lines = [",".join(f"{v:.17g}" for v in row) for row in rng.standard_normal((rows, 4))]
    if blank_at_cut:
        half = lines[:rows // 2]
        lines = half + [""] * 6 + half[::-1]
    text = newline.join(([header] if header else []) + lines) + (newline if final else "")
    return text.encode("utf-8")


def _long_last_line(rows=120):
    # Rows of 4 columns, the last longer than all the others together, so
    # that it holds the middle byte and the table has no second part.
    short = b"0,1,2,3\n" * (rows - 1)
    cell = b"1." + b"0" * (len(short) // 4) + b"1"
    return short + b",".join([cell] * 4) + b"\n"


def _cr_only_head(rows=120, head=61):
    # Rows of 4 columns, the first ``head`` ended by CR alone and the last
    # of them by a newline: the head holds the middle byte, fits the matrix
    # the newlines size, and leaves too few rows for the tail's.
    lines = _two_part_table(rows).split(b"\n")[:-1]
    return b"\r".join(lines[:head]) + b"\n" + b"\n".join(lines[head:]) + b"\n"


CLEAN_IN_TWO = {
    "plain": _two_part_table(),
    "header": _two_part_table(header="a,b,c,y"),
    "bom, header": b"\xef\xbb\xbf" + _two_part_table(header="a,b,c,y"),
    "bom, no header": b"\xef\xbb\xbf" + _two_part_table(),
    "crlf": _two_part_table(header="a,b,c,y", newline="\r\n"),
    "no final newline": _two_part_table(final=False),
    "blank lines at the cut": _two_part_table(blank_at_cut=True),
    "crlf blank lines at the cut": _two_part_table(newline="\r\n", blank_at_cut=True),
    "middle byte in the last line": _long_last_line(),
    "header longer than the rows": _two_part_table(
        header="a" * len(_two_part_table()) + ",b,c,y"),
    "cr-only lines in the head": _cr_only_head(),
}


@pytest.mark.parametrize("case", sorted(CLEAN_IN_TWO))
def test_a_table_read_in_two_processes_loads_as_read_in_one(tmp_path, monkeypatch, read_in_two,
                                                             case):
    data = CLEAN_IN_TWO[case]
    path = tmp_path / "two.csv"
    path.write_bytes(data)
    if "blank" in case:  # blank lines end the head and open the tail
        assert data[:_cut(data)].endswith((b"\n\n", b"\r\n\r\n"))
        assert data[_cut(data):].startswith((b"\n", b"\r\n"))
    if "longer" in case or "cr-only" in case:  # the head's lines end in one newline
        assert data[:_cut(data)].count(b"\n") == 1
    target = "y" if "header" in case and "no header" not in case else -1
    got = _outcome(load_delimited, path, ",", target)
    # A table whose middle byte lies in its last line is read in one process;
    # one whose rows outnumber its lines is read cell by cell.
    assert read_in_two == [case not in ("middle byte in the last line",
                                        "cr-only lines in the head")]
    monkeypatch.setattr(pireg.data, "PARSE_SPLIT_BYTES", 1 << 62)  # the one-process read
    assert got == _outcome(load_delimited, path, ",", target)
    assert got[0] == "loaded" and got[1] == (120, 3)


WIDER = ("wider row at a block boundary", "ragged widths across the cut")


def _spoiled(part, fault):
    # A two-part table with the 11th line before the cut, or after it,
    # spoiled: its first cell replaced, or split in two; or with the first
    # cell split on every line of that part.  Gives the table and the
    # location the error names.  A split keeps each line's bytes, and so the
    # cut.  All lie past the bytes that header detection decodes, except a
    # wider head, whose first line sets the width.
    data = _two_part_table(rows=1000)
    lines = data.split(b"\n")
    head = data[:_cut(data)].count(b"\n")
    i = head + (-11 if part == "head" else 10)

    def split(line):
        return b"0," + b"0" * (line.index(b",") - 2) + line[line.index(b","):]

    if fault == "ragged widths across the cut":
        for j in range(head) if part == "head" else range(head, len(lines) - 1):
            lines[j] = split(lines[j])
        where = f"row {head + 1} has {4 if part == 'head' else 5} cells"
    elif fault == "wider row at a block boundary":
        lines[i] = split(lines[i])
        where = f"row {i + 1} has 5 cells, expected 4"
    else:
        cell = {"bad cell": b"oops", "non-finite cell": b"inf", "non-utf-8 byte": b"\xff"}[fault]
        lines[i] = cell + lines[i][lines[i].index(b","):]
        where = "" if fault == "non-utf-8 byte" else f"at row {i + 1}, column 0"
    spoiled = b"\n".join(lines)
    assert fault not in WIDER or _cut(spoiled) == _cut(data)
    return spoiled, where


@pytest.mark.parametrize("part", ["head", "tail"])
@pytest.mark.parametrize("fault", ["bad cell", "non-finite cell", "non-utf-8 byte", *WIDER])
def test_a_fault_in_either_part_raises_as_the_one_process_read(tmp_path, monkeypatch,
                                                                 read_in_two, part, fault):
    data, where = _spoiled(part, fault)
    path = tmp_path / "two.csv"
    path.write_bytes(data)
    if fault == "wider row at a block boundary":  # each line a block of its own
        monkeypatch.setattr(pireg.data, "PARSE_BLOCK_BYTES", 1)
    with pytest.raises(DataError) as got:
        load_delimited(path)
    # Numpy parses inf, so only the finiteness check after the read refuses it.
    assert read_in_two == [fault == "non-finite cell"]
    monkeypatch.setattr(pireg.data, "PARSE_SPLIT_BYTES", 1 << 62)  # the one-process read
    with pytest.raises(DataError) as want:
        load_delimited(path)
    assert str(got.value) == str(want.value)
    assert where in str(got.value)


@pytest.mark.parametrize("refused", ["pipe", "fork"])
def test_a_refused_fork_reads_the_table_in_one_process(tmp_path, monkeypatch, read_in_two,
                                                       refused):
    # os.pipe or os.fork failing (EAGAIN under a process limit, ENOMEM) sends
    # the table to the one-process read and leaves no descriptor open.
    path = tmp_path / "two.csv"
    path.write_bytes(CLEAN_IN_TWO["header"])
    before = open_descriptors()

    def refuse():
        raise OSError(errno.EAGAIN, "no process for you")

    with mock.patch.object(os, refused, refuse):
        got = _outcome(load_delimited, path, ",", "y")
    assert read_in_two == [False]
    assert open_descriptors() == before
    assert_no_child_left()
    monkeypatch.setattr(pireg.data, "PARSE_SPLIT_BYTES", 1 << 62)  # the one-process read
    assert got == _outcome(load_delimited, path, ",", "y")
    assert got[0] == "loaded"


def _quoted(data):
    # Every cell of a table in double quotes, which numpy refuses.
    return b"".join(b'"' + line.replace(b",", b'","') + b'"\n' for line in data.splitlines())


@pytest.mark.parametrize("case", ["bad cell in the tail", "quoted cells"])
def test_a_refused_table_is_parsed_once_per_path(tmp_path, monkeypatch, read_in_two, case):
    # Each part goes through _parse_part at most once, here or in the child,
    # the caller's part always; then the cell-by-cell read runs once, and
    # numpy parses nothing but blocks.  Both processes append to one log.
    data = _spoiled("tail", "bad cell")[0] if case == "bad cell in the tail" \
        else _quoted(_two_part_table())
    path = tmp_path / "two.csv"
    path.write_bytes(data)
    want = _outcome(cell_by_cell_load, path, ",", -1)
    log = tmp_path / "calls.log"
    real_part, real_records, real_loadtxt = (pireg.data._parse_part, pireg.data._read_records,
                                             np.loadtxt)

    def note(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def parse_part(path, delimiter, start, stop, *rest):
        note(f"part {start} {stop}")
        return real_part(path, delimiter, start, stop, *rest)

    def read_records(*args):
        note("records")
        return real_records(*args)

    def loadtxt(text, *args, **kwargs):
        if not isinstance(text, io.TextIOWrapper):
            note("whole file")
        return real_loadtxt(text, *args, **kwargs)

    monkeypatch.setattr(pireg.data, "_parse_part", parse_part)
    monkeypatch.setattr(pireg.data, "_read_records", read_records)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    got = _outcome(load_delimited, path, ",", -1)
    assert got == want
    assert got[0] == ("error" if case == "bad cell in the tail" else "loaded")
    assert read_in_two == [False]
    calls = log.read_text().splitlines()
    head, tail = f"part 0 {_cut(data)}", f"part {_cut(data)} {len(data)}"
    assert calls[-1] == "records" and sorted(calls[:-1]) in ([head], sorted([head, tail]))


def test_the_two_process_read_holds_the_parsed_matrix_and_small_temporaries(tmp_path,
                                                                            read_in_two):
    # The memory bound above, whichever read a 6 MB table takes by default.
    test_load_holds_the_parsed_matrix_and_small_temporaries(tmp_path)
    assert read_in_two == [True]


def test_the_one_process_read_holds_the_parsed_matrix_and_small_temporaries(tmp_path,
                                                                            monkeypatch):
    monkeypatch.setattr(pireg.data, "PARSE_SPLIT_BYTES", 1 << 62)  # the one-process read
    test_load_holds_the_parsed_matrix_and_small_temporaries(tmp_path)


# ---------------------------------------------------------------------------
# normalization


def test_fit_normalize_matches_stdlib_statistics():
    features = np.array([[1.0, 10.0], [2.0, 10.0], [4.0, 10.0]])
    targets = np.array([3.0, 5.0, 10.0])
    stats = fit_normalize(Dataset(features, targets))
    col = [1.0, 2.0, 4.0]
    assert stats.feature_mean[0] == pytest.approx(statistics.fmean(col), rel=1e-12)
    assert stats.feature_std[0] == pytest.approx(statistics.pstdev(col), rel=1e-12)
    assert stats.feature_std[1] == 1.0  # constant column convention
    assert stats.target_mean == pytest.approx(statistics.fmean([3.0, 5.0, 10.0]), rel=1e-12)
    assert stats.target_std == pytest.approx(statistics.pstdev([3.0, 5.0, 10.0]), rel=1e-12)


def _in_layout(values, layout):
    # Row-major, or a row-major view beside a target column, as
    # load_delimited returns its features.
    if layout == "strided":
        return np.column_stack([values, np.zeros(len(values))])[:, :-1]
    return values


@pytest.mark.parametrize("width", [1, 2, 8, 9, 17, 90])
@pytest.mark.parametrize("selected", [False, True])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_fit_normalize_blocks_match_whole_matrix_bitwise(width, selected, layout):
    # Statistics are reduced a column block at a time; they must carry the
    # bits of np.mean/np.std over the whole (gathered) matrix.  Nine columns
    # leave a trailing single column, which must not be reduced alone.
    rng = np.random.default_rng([width, selected])
    n = 3001
    scales = np.geomspace(1e-3, 1e4, width)
    data = Dataset(_in_layout(rng.standard_normal((n, width)) * scales + 7.0 * scales, layout),
                   rng.normal(50.0, 20.0, n))
    assert data.features.flags["C_CONTIGUOUS"] == (layout == "contiguous")
    rows = rng.permutation(n)[:2700] if selected else None
    stats = fit_normalize(data, rows)
    whole = data.features if rows is None else data.features[rows]
    targets = data.targets if rows is None else data.targets[rows]
    assert stats.feature_mean.tobytes() == np.mean(whole, axis=0).tobytes()
    assert stats.feature_std.tobytes() == np.std(whole, axis=0).tobytes()
    assert stats.target_mean == float(np.mean(targets))
    assert stats.target_std == float(np.std(targets))


BIG = 1.7e308
OVERFLOW_CASES = {
    # (column 1 cells, target cells, refused) on 40 rows, the first 30 fit
    "ordinary": ([], [], False),
    "squares_overflow": ([(0, 1e200), (5, -1e200), (9, 1e200)], [], False),  # std inf
    "one_huge_value": ([(4, BIG)], [(7, BIG)], False),  # std inf, mean finite
    "mean_overflows": ([(2, -BIG), (3, -BIG)], [], True),
    "difference_overflows": ([(0, 1.75e308), (1, -BIG), (2, -BIG)], [], True),  # mean finite
    "target_mean_overflows": ([], [(6, BIG), (8, BIG)], True),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_fit_normalize_refuses_stats_that_leave_a_fit_row_non_finite(case):
    # The trainer reads its rows batch by batch, so fit_normalize stands in
    # for the check a whole normalized copy made: it must raise exactly when
    # (x - mean) / std, computed whole, has a non-finite entry.
    rng = np.random.default_rng(8)
    features, targets = rng.standard_normal((40, 3)), rng.standard_normal(40)
    feature_cells, target_cells, refused = OVERFLOW_CASES[case]
    for row, value in feature_cells:
        features[row, 1] = value
    for row, value in target_cells:
        targets[row] = value
    data = Dataset(features, targets, source_tag="edge")
    rows = np.arange(30)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = features[rows], targets[rows]
        std, tstd = np.std(x, axis=0), np.std(y)
        x_normalized = (x - np.mean(x, axis=0)) / np.where(std == 0, 1, std)
        normalized = np.concatenate([x_normalized.ravel(), (y - np.mean(y)) / (tstd or 1.0)])
    assert np.isfinite(normalized).all() != refused
    # fit_normalize checks every non-finite outcome itself, so numpy warns of none.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if refused:
            with pytest.raises(DataError, match="non-finite values in dataset 'edge'"):
                fit_normalize(data, rows)
        else:
            stats = fit_normalize(data, rows)
            assert np.isfinite(apply_normalize(data, stats, rows).features).all()


@pytest.mark.parametrize("chunk_rows", [1, 2, 7, 500])
def test_fit_normalize_sums_continue_across_row_chunks(monkeypatch, chunk_rows):
    # The two tests above with row chunks of a few rows, so that every
    # column sum runs on through many chunks, the refusals' min and max too.
    monkeypatch.setattr(pireg.data, "STAT_CHUNK_ROWS", chunk_rows)
    for width in (2, 9, 90):
        for selected in (False, True):
            for layout in ("contiguous", "strided"):
                test_fit_normalize_blocks_match_whole_matrix_bitwise(width, selected, layout)
    for case in OVERFLOW_CASES:
        test_fit_normalize_refuses_stats_that_leave_a_fit_row_non_finite(case)


def test_already_standardized_data_gets_identity_stats():
    data = Dataset(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
    stats = fit_normalize(data)
    assert stats.feature_mean[0] == 0.0 and stats.feature_std[0] == 1.0
    assert stats.target_mean == 0.0 and stats.target_std == 1.0


def test_constant_targets_get_unit_std():
    stats = fit_normalize(Dataset(np.array([[0.0], [1.0]]), np.array([7.0, 7.0])))
    assert stats.target_std == 1.0
    assert stats.target_mean == 7.0


@pytest.mark.parametrize("width, n, rows", [(2, 0, None), (1, 0, None), (2, 3, [])])
def test_fit_normalize_on_no_rows_is_a_located_data_error(width, n, rows):
    # Refused before any reduction runs, so numpy warns of nothing.
    data = Dataset(np.ones((n, width)), np.ones(n), source_tag="none")
    rows = None if rows is None else np.array(rows, dtype=int)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="no rows to fit standardization on in dataset 'none'"):
            fit_normalize(data, rows)


def unnormalized_features(dataset, stats):
    """Invert the feature standardization with plain arithmetic."""
    return dataset.features * stats.feature_std + stats.feature_mean


def test_apply_then_denormalize_round_trip():
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(3.0, 5.0, size=(40, 4)), rng.normal(-2.0, 9.0, size=40))
    stats = fit_normalize(data)
    normalized = apply_normalize(data, stats)
    np.testing.assert_allclose(unnormalized_features(normalized, stats), data.features,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(denormalize_targets(normalized.targets, stats), data.targets,
                               rtol=1e-12, atol=1e-12)
    assert abs(float(np.mean(normalized.targets))) < 1e-12
    assert float(np.std(normalized.targets)) == pytest.approx(1.0, rel=1e-12)


def test_denormalize_targets_matches_dataset_path():
    stats = NormStats(np.zeros(1), np.ones(1), target_mean=4.0, target_std=2.5)
    values = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(denormalize_targets(values, stats), values * 2.5 + 4.0)


def test_picp_unchanged_by_target_denormalization():
    stats = NormStats(np.zeros(1), np.ones(1), target_mean=-3.0, target_std=0.5)
    y = np.array([0.0, 5.0, -2.0])
    lower = np.array([-1.0, 6.0, -2.5])
    upper = np.array([1.0, 7.0, -1.5])
    before = picp(y, lower, upper)
    after = picp(denormalize_targets(y, stats), denormalize_targets(lower, stats),
                 denormalize_targets(upper, stats))
    assert before == after == pytest.approx(2.0 / 3.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 4))
def test_normalize_round_trip_property(seed, n, d):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.normal(0.0, 10.0, size=(n, d)) + rng.normal(0, 5, size=d),
                   rng.normal(1.0, 10.0, size=n))
    stats = fit_normalize(data)
    features, targets = data.features.copy(), data.targets.copy()
    normalized = apply_normalize(data, stats)
    np.testing.assert_allclose(unnormalized_features(normalized, stats), data.features,
                               rtol=1e-12, atol=1e-10)
    np.testing.assert_allclose(denormalize_targets(normalized.targets, stats), data.targets,
                               rtol=1e-12, atol=1e-10)
    # The reference arithmetic, bit for bit, and the input left as it was.
    oracle = (features - stats.feature_mean) / stats.feature_std
    assert normalized.features.tobytes() == oracle.tobytes()
    assert normalized.targets.tobytes() == ((targets - stats.target_mean)
                                            / stats.target_std).tobytes()
    assert data.features.tobytes() == features.tobytes()
    assert data.targets.tobytes() == targets.tobytes()


# ---------------------------------------------------------------------------
# split


def _tagged(n):
    # Unique targets make membership checks a multiset comparison.
    return Dataset(np.arange(n, dtype=float).reshape(-1, 1), np.arange(n, dtype=float))


def test_split_ten_rows_is_nine_one():
    train, test = split(_tagged(10), 0.1, 3, 0)
    assert len(train) == 9 and len(test) == 1


def test_split_same_spec_identical_membership():
    a_train, a_test = split(_tagged(25), 0.2, 5, 2)
    b_train, b_test = split(_tagged(25), 0.2, 5, 2)
    assert np.array_equal(a_train, b_train)
    assert np.array_equal(a_test, b_test)


def test_split_indices_change_membership():
    base = _tagged(40)
    _, test0 = split(base, 0.25, 5, 0)
    _, test1 = split(base, 0.25, 5, 1)
    assert not np.array_equal(np.sort(test0), np.sort(test1))


def test_split_union_is_dataset_and_disjoint():
    train, test = split(_tagged(23), 0.3, 1, 0)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(23))
    assert not set(train.tolist()) & set(test.tolist())


def test_split_clamps_to_keep_both_sides_nonempty():
    train, test = split(_tagged(2), 0.9, 0, 0)
    assert len(train) == 1 and len(test) == 1
    train, test = split(_tagged(2), 0.05, 0, 0)
    assert len(train) == 1 and len(test) == 1


def test_split_rejects_tiny_datasets_and_bad_fractions():
    with pytest.raises(DataError):
        split(_tagged(1), 0.5, 0, 0)
    for fraction in (0.0, 1.0):
        with pytest.raises(ConfigError):
            split(_tagged(5), fraction, 0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 200), st.floats(0.05, 0.95), st.integers(0, 1000), st.integers(0, 20))
def test_split_partition_property(n, fraction, seed, split_index):
    train, test = split(_tagged(n), fraction, seed, split_index)
    assert len(train) >= 1 and len(test) >= 1 and len(train) + len(test) == n
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))
    expected_train = min(max(int(math.ceil((1.0 - fraction) * n)), 1), n - 1)
    assert len(train) == expected_train


# ---------------------------------------------------------------------------
# Dataset type contract


def test_dataset_shape_and_finiteness_validation():
    with pytest.raises(ShapeError):
        Dataset(np.zeros(3), np.zeros(3))  # 1-D features
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 1)), np.zeros((3, 1)))  # 2-D targets
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 1)), np.zeros(2))  # row mismatch
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan]]), np.zeros(1))
    with pytest.raises(DataError):
        Dataset(np.zeros((1, 1)), np.array([np.inf]))


def test_apply_normalize_rows_gathers_in_order_and_keeps_metadata():
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(2.0, 3.0, size=(9, 3)), rng.normal(size=9),
                   feature_names=["a", "b", "c"], source_tag="demo")
    features, targets = data.features.copy(), data.targets.copy()
    stats = fit_normalize(data)
    rows = np.array([7, 2, 0, 2])
    sub = apply_normalize(data, stats, rows)
    whole = apply_normalize(data, stats)
    assert sub.features.tobytes() == whole.features[rows].tobytes()
    assert sub.targets.tobytes() == whole.targets[rows].tobytes()
    assert sub.feature_names == ["a", "b", "c"] and sub.source_tag == "demo"
    assert data.features.tobytes() == features.tobytes()
    assert data.targets.tobytes() == targets.tobytes()
