#!/usr/bin/env python3
"""Print one sha256 per file written by a fixed set of seeded runs.

    python3 scripts/fixed_seed_digest.py

Runs, into a temporary directory, with the package imported from this
checkout's ``src``:

* ``pireg bench --name sine``, plain and under each of ``--variant
  interval_only``, ``midpoint`` and ``decoupled``;
* ``pireg bench --name flat_skew --variant gaussian_nll``;
* ``pireg sweep-alpha --name sine --alphas 0.05,0.1,0.2``;
* ``pireg bench --name msd --data-path table.csv --splits 2 --max-epochs 30``
  on a 3,000 x 12 table (11 features whose scales span seven orders of
  magnitude, target last) that this script writes from a fixed seed, so
  multi-column normalization is covered too;
* ``scripts/sine_demo.py``.

Every run uses its default seed.  The ``seconds`` and ``total_seconds``
fields of JSON reports are wall-clock times, so they are set to null and
the report re-encoded before hashing; every other file is hashed as
written.  Two checkouts whose fixed-seed outputs agree print the same
lines.  Takes no options.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIMING_FIELDS = ("seconds", "total_seconds")

RUNS = [
    ("bench_sine", ["bench", "--name", "sine"]),
    ("bench_flat_skew_gaussian_nll", ["bench", "--name", "flat_skew", "--variant", "gaussian_nll"]),
    *[(f"bench_sine_{v}", ["bench", "--name", "sine", "--variant", v])
      for v in ("interval_only", "midpoint", "decoupled")],
    ("sweep_alpha_sine", ["sweep-alpha", "--name", "sine", "--alphas", "0.05,0.1,0.2"]),
    ("bench_table", ["bench", "--name", "msd", "--data-path", "table.csv", "--splits", "2",
                     "--max-epochs", "30"]),
]


TABLE, TABLE_ROWS, TABLE_FEATURES = "table.csv", 3000, 11


def _write_table(path):
    # Correlated features, each scaled and shifted by its own power of ten,
    # and a target that depends non-linearly on a few of them.
    rng = np.random.default_rng(20_240_314)
    latent = rng.standard_normal((TABLE_ROWS, 4))
    mixing = rng.standard_normal((4, TABLE_FEATURES))
    scales = np.geomspace(1e-3, 1e4, TABLE_FEATURES)
    features = (latent @ mixing + 0.3 * rng.standard_normal((TABLE_ROWS, TABLE_FEATURES)))
    features = features * scales + 10.0 * scales
    target = np.sin(latent[:, 0]) + 0.5 * latent[:, 1] * latent[:, 2] + 0.2 * np.abs(
        rng.standard_normal(TABLE_ROWS))
    np.savetxt(path, np.column_stack([features, target]), fmt="%.17g", delimiter=",")


def _blank_timings(value):
    if isinstance(value, dict):
        return {k: None if k in TIMING_FIELDS else _blank_timings(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_blank_timings(v) for v in value]
    return value


def _digest(path):
    data = path.read_bytes()
    if path.suffix == ".json":
        report = _blank_timings(json.loads(data))
        data = json.dumps(report, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        # Runs start in the temporary directory, so the report's config holds
        # the table's relative path, the same on every run.
        _write_table(out / TABLE)
        for name, args in RUNS:
            subprocess.run([sys.executable, "-m", "pireg.cli", *args, "--out", str(out / name)],
                           env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
        subprocess.run([sys.executable, str(ROOT / "scripts" / "sine_demo.py"),
                        "--out", str(out / "sine_demo")],
                       env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
        for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != TABLE):
            print(f"{_digest(path)}  {path.relative_to(out).as_posix()}")

if __name__ == "__main__":
    main()
