"""Reruns two of ``scripts/fixed_seed_digest.py``'s runs against the digest
checked in beside it: a multi-split ``gaussian_nll`` bench and the bench on
the script's widely scaled 3,000 x 12 table, about 4 s together.  Their
reports, CSV tables and predictions must hash as the file says.  Under
another fingerprint (Python, numpy, BLAS, CPU model) the test skips, since
another BLAS may round differently without any defect.

Both runs train several splits as one stack, and their validation passes
fall on either side of ``STACK_FORWARD_BYTES``: the first is forwarded in
one call, the second member by member, so the subset pins the bits of
both paths.  The first also trains its splits over forked workers, while the
second's batch products are large enough for threaded BLAS and train in
process."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import pireg.training as training
from pireg.cli import _resolve, build_parser
from pireg.data import Dataset, split
from pireg.network import STACK_FORWARD_BYTES, FeedForwardModel, _stack_bytes
from pireg.training import build_model, carve_validation

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fixed_seed_digest.py"
# No other run's name begins with one of these, so a path's prefix names its run.
SUBSET = ("bench_flat_skew_gaussian_nll", "bench_table")


def _script():
    spec = importlib.util.spec_from_file_location("fixed_seed_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_subset_matches_the_checked_in_digest(tmp_path):
    script = _script()
    prints, expected = script.read_digest()
    here = script.fingerprint()
    differ = sorted(key for key in prints.keys() | here.keys() if prints.get(key) != here.get(key))
    if differ:
        pytest.skip("digest made under another fingerprint: " + "; ".join(
            f"{key} {prints.get(key)!r}, here {here.get(key)!r}" for key in differ))
    assert set(SUBSET) <= {name for name, _ in script.RUNS}
    subset = {path: digest for path, digest in expected.items() if path.startswith(SUBSET)}
    assert len(subset) == 8
    assert script.run_digests(tmp_path, SUBSET) == subset


def split_rows(script, name):
    # One of the script's runs: its config and split 0's training and
    # validation rows, as zero datasets of the run's width.
    args = build_parser().parse_args(dict(script.RUNS)[name][len(script.CLI):])
    config = _resolve(args)
    n, dim = (script.TABLE_ROWS, script.TABLE_FEATURES) if args.data_path else (config.data.n, 1)
    train, _ = split(Dataset(np.zeros((n, 1)), np.zeros(n)), config.splits.test_fraction,
                     config.seed, 0)
    train, valid = carve_validation(train, config.optimizer.validation_fraction, config.seed, 0)
    return config, [Dataset(np.zeros((len(r), dim)), np.zeros(len(r))) for r in (train, valid)]


def validation_stack(script, name):
    # (splits, bytes of the hidden activations of the stacked validation
    # pass) of one of the script's runs: every split's members at once, each
    # on its own split's validation rows.
    config, (_, valid) = split_rows(script, name)
    member = build_model(config, 1, 0)
    stack = FeedForwardModel(member.layer_sizes, np.zeros(
        (config.splits.count * config.ensemble_size, len(member.flat))))
    return config.splits.count, _stack_bytes(stack, valid.n)


def test_subset_validates_on_both_sides_of_the_stack_budget():
    script = _script()
    one_call, member_by_member = (validation_stack(script, name) for name in SUBSET)
    assert one_call[0] > 1 and member_by_member[0] > 1
    assert one_call[1] <= STACK_FORWARD_BYTES < member_by_member[1]


def training_workers(script, name):
    # How many processes train one of the script's runs on 2 CPUs.
    config, (train, valid) = split_rows(script, name)
    return training._workers(config, config.splits.count, (train.n, train.dim, valid.n))


def test_subset_trains_over_forked_workers_and_in_process(monkeypatch):
    # bench_flat_skew_gaussian_nll: 25 members x 2,000 epochs x 81 rows, over
    # FORK_MIN_WORK; bench_table: batches of 1,000 rows x 11 x 100 units,
    # over FORK_MAX_PRODUCT.
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    assert [training_workers(_script(), name) for name in SUBSET] == [2, 1]
