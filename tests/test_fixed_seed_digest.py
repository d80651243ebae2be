"""Reruns two of ``scripts/fixed_seed_digest.py``'s runs against the digest
checked in beside it: a multi-split ``gaussian_nll`` bench and the bench on
the script's widely scaled 3,000 x 12 table, about 4 s together.  Their
reports, CSV tables and predictions must hash as the file says, and so
must every ``--help`` text the script saves.  Under
another fingerprint (Python, numpy, BLAS, CPU model) the test skips, since
another BLAS may round differently without any defect.

Both runs train several splits as one stack, and their validation passes
fall on either side of ``STACK_FORWARD_BYTES``: the first is forwarded in
one call, the second member by member, so the subset pins the bits of
both paths.  Both train their members over forked workers, a split's
members divided between them, at one BLAS thread per process.  The table
bench's batch products are large enough for OpenBLAS to thread them, so
it is also rerun with one CPU allowed, and must keep its bits; so must the
large-table bench, whose table two processes parse and whose heavy stack
trains in three, which one CPU does in one."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pireg.data as data
import pireg.training as training
from pireg.cli import _resolve, build_parser
from pireg.data import Dataset, split
from pireg.network import STACK_FORWARD_BYTES, FeedForwardModel, _stack_bytes
from pireg.training import build_model, carve_validation

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fixed_seed_digest.py"
# No other run's name begins with one of these, so a path's prefix names its run.
SUBSET = ("bench_flat_skew_gaussian_nll", "bench_table")
# The runs rerun with one CPU allowed.
ONE_CPU = ("bench_table", "bench_large_table")


def _script():
    spec = importlib.util.spec_from_file_location("fixed_seed_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_digests(script, names):
    """The checked-in digests of the named runs; skips under another
    fingerprint."""
    prints, expected = script.read_digest()
    here = script.fingerprint()
    differ = sorted(key for key in prints.keys() | here.keys() if prints.get(key) != here.get(key))
    if differ:
        pytest.skip("digest made under another fingerprint: " + "; ".join(
            f"{key} {prints.get(key)!r}, here {here.get(key)!r}" for key in differ))
    assert set(names) <= {name for name, _ in script.RUNS + script.HELPS}
    return {path: digest for path, digest in expected.items() if path.startswith(names)}


def test_subset_matches_the_checked_in_digest(tmp_path):
    script = _script()
    subset = expected_digests(script, SUBSET)
    assert len(subset) == 8
    assert script.run_digests(tmp_path, SUBSET) == subset


def test_help_texts_match_the_checked_in_digest(tmp_path):
    # Every --help text, at the script's fixed width, as the file says.
    script = _script()
    names = tuple(name for name, _ in script.HELPS)
    helps = expected_digests(script, names)
    assert len(helps) == len(script.VERBS) + 1
    assert script.run_digests(tmp_path, names) == helps


# Run in a child limited to one CPU: prints how many CPUs it may use and the
# digests of the ONE_CPU runs, which its own children run.
ON_ONE_CPU = """
import importlib.util, json, os, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("fixed_seed_digest", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
print(json.dumps([len(os.sched_getaffinity(0)),
                  script.run_digests(Path(sys.argv[2]), tuple(sys.argv[3:]))]))
"""


def test_the_table_bench_keeps_its_digest_on_one_cpu(tmp_path):
    # OpenBLAS sizes its thread pool by the CPUs a process may use, and a
    # product's bits depend on how many threads ran it; the trainer's pin to
    # one thread must make that count not matter, and one CPU must give the
    # bits that the large table's two processes and three chunks give.
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is missing on this platform")
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("only one CPU is allowed, so the digest test above already ran on one")
    tables = expected_digests(_script(), ONE_CPU)
    assert len(tables) == 8
    proc = subprocess.run([sys.executable, "-c", ON_ONE_CPU, str(SCRIPT), str(tmp_path),
                           *ONE_CPU], preexec_fn=lambda: os.sched_setaffinity(0, cpus[:1]),
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [1, tables]


def test_the_large_table_bench_keeps_its_digest_where_it_forks(tmp_path):
    script = _script()
    large = expected_digests(script, ("bench_large_table",))
    assert len(large) == 4
    assert script.run_digests(tmp_path, ("bench_large_table",)) == large


def split_rows(script, argv):
    # The config of a run of these CLI arguments and its split 0's training
    # and validation rows, as zero datasets of the run's width.
    args = build_parser().parse_args(argv)
    config = _resolve(args)
    tables = {name: (rows, width) for name, rows, width, _ in script.TABLES}
    n, dim = tables[args.data_path] if args.data_path else (config.data.n, 1)
    train, _ = split(Dataset(np.zeros((n, 1)), np.zeros(n)), config.splits.test_fraction,
                     config.seed, 0)
    train, valid = carve_validation(train, config.optimizer.validation_fraction, config.seed, 0)
    return config, [Dataset(np.zeros((len(r), dim)), np.zeros(len(r))) for r in (train, valid)]


def run_argv(script, name):
    # The CLI arguments of one of the script's runs.
    return dict(script.RUNS)[name][len(script.CLI):]


def validation_stack(script, name):
    # (splits, bytes of the hidden activations of the stacked validation
    # pass) of one of the script's runs: every split's members at once, each
    # on its own split's validation rows.
    config, (_, valid) = split_rows(script, run_argv(script, name))
    member = build_model(config, 1, 0)
    stack = FeedForwardModel(member.layer_sizes, np.zeros(
        (config.splits.count * config.ensemble_size, len(member.flat))))
    return config.splits.count, _stack_bytes(stack, valid.n)


def test_subset_validates_on_both_sides_of_the_stack_budget():
    script = _script()
    one_call, member_by_member = (validation_stack(script, name) for name in SUBSET)
    assert one_call[0] > 1 and member_by_member[0] > 1
    assert one_call[1] <= STACK_FORWARD_BYTES < member_by_member[1]


def training_workers(script, argv, splits=None):
    # How many processes train a run of these CLI arguments, of its own
    # split count or of ``splits`` splits, on 2 CPUs.
    config, (train, _) = split_rows(script, argv)
    members = (splits or config.splits.count) * config.ensemble_size
    return training._workers(config, members, train.n, train.dim)


def test_subset_trains_over_forked_workers(monkeypatch):
    # bench_flat_skew_gaussian_nll: 25 members x 2,000 epochs x 81 rows;
    # bench_table: 10 members x 30 epochs x 2,430 rows, whose batches of
    # 1,000 rows x 11 x 100 units OpenBLAS would thread.  `pireg train --name
    # sine` trains one split's 5 members, 5 x 2,000 epochs x 81 rows.  All
    # reach FORK_MIN_WORK.
    if training._blas_threads() is None:
        pytest.skip("training forks only with OpenBLAS thread controls, not found here")
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    script = _script()
    assert [training_workers(script, run_argv(script, name)) for name in SUBSET] == [2, 2]
    assert training_workers(script, ["train", "--name", "sine"], splits=1) == 2


def test_the_large_table_is_read_in_two_and_trains_as_a_heavy_stack(monkeypatch, tmp_path):
    # Its 5 members of 1,000-row batches through 21 x 100 x 3 units are
    # 2,403,000 multiply-adds a step, so on 2 CPUs they train as 1 + 2 + 2.
    script = _script()
    name, *table = script.TABLES[1]
    script._write_table(tmp_path / name, *table)
    assert (tmp_path / name).stat().st_size >= data.PARSE_SPLIT_BYTES
    if training._blas_threads() is None:
        pytest.skip("training forks only with OpenBLAS thread controls, not found here")
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    assert training_workers(script, run_argv(script, "bench_large_table")) == 3
