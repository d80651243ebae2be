"""Reruns two of ``scripts/fixed_seed_digest.py``'s runs against the digest
checked in beside it: a multi-split ``gaussian_nll`` bench and the bench on
the script's widely scaled 3,000 x 12 table, about 4 s together.  Their
reports, CSV tables and predictions must hash as the file says.  Under
another fingerprint (Python, numpy, BLAS, CPU model) the test skips, since
another BLAS may round differently without any defect."""

import importlib.util
from pathlib import Path

import pytest

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
