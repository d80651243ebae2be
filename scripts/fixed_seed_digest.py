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
* ``pireg bench --name msd --data-path large_table.csv --splits 1
  --max-epochs 12`` on a 6,000 x 21 table written the same way, larger
  than ``PARSE_SPLIT_BYTES`` and wide enough that its 5 members form a
  heavy stack (``HEAVY_STEP_WORK``), so that the two-process read and the
  heavy stack's chunks are covered where they run;
* ``scripts/sine_demo.py``;
* ``pireg report`` on the ``bench_sine`` and ``sweep_alpha_sine`` reports,
  its stdout saved as ``<run>_report.txt``;
* ``pireg --help`` and each verb's ``--help``, their stdout saved as
  ``help_pireg.txt`` and ``help_<verb>.txt``, at ``COLUMNS=80``, since
  argparse wraps help to the terminal's width.

Every run uses its default seed.  The ``seconds`` and ``total_seconds``
fields of JSON reports are wall-clock times, so they are set to null and
the report re-encoded, in the file's key order and indentation, before
hashing; every other file is hashed as written.  Two checkouts whose
fixed-seed outputs agree print the same lines.  Takes no options.

The output opens with the fingerprint the digests depend on besides the
code (Python, numpy, BLAS, CPU model), one ``#`` line each.  The expected
output is checked in beside this script as ``fixed_seed_digest.txt``.
When its fingerprint is this machine's, every file whose digest moved,
appeared or vanished is named on stderr and the exit status is 1; under
another fingerprint, whose BLAS may round differently without any defect,
nothing is compared.  A change that moves bits on purpose regenerates the
file:

    python3 scripts/fixed_seed_digest.py > digest.new; mv digest.new scripts/fixed_seed_digest.txt
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).with_name("fixed_seed_digest.txt")
TIMING_FIELDS = ("seconds", "total_seconds")

# (name, interpreter arguments); each run writes its files under its name.
CLI = ["-m", "pireg.cli"]
RUNS = [
    ("bench_sine", [*CLI, "bench", "--name", "sine"]),
    ("bench_flat_skew_gaussian_nll",
     [*CLI, "bench", "--name", "flat_skew", "--variant", "gaussian_nll"]),
    *[(f"bench_sine_{v}", [*CLI, "bench", "--name", "sine", "--variant", v])
      for v in ("interval_only", "midpoint", "decoupled")],
    ("sweep_alpha_sine", [*CLI, "sweep-alpha", "--name", "sine", "--alphas", "0.05,0.1,0.2"]),
    ("bench_table", [*CLI, "bench", "--name", "msd", "--data-path", "table.csv", "--splits",
                     "2", "--max-epochs", "30"]),
    ("bench_large_table", [*CLI, "bench", "--name", "msd", "--data-path", "large_table.csv",
                           "--splits", "1", "--max-epochs", "12"]),
    ("sine_demo", [str(ROOT / "scripts" / "sine_demo.py")]),
]
# Runs whose JSON report ``pireg report`` prints, into ``<run>_report.txt``.
PRINTED = ("bench_sine", "sweep_alpha_sine")
# (name, CLI arguments) of each help text, saved as ``<name>.txt``.
VERBS = ("train", "bench", "sweep-alpha", "sweep-hparam", "gen-data", "report")
HELPS = [("help_pireg", ["--help"]), *[(f"help_{verb}", [verb, "--help"]) for verb in VERBS]]


TABLE, TABLE_ROWS, TABLE_FEATURES = "table.csv", 3000, 11
# (file name, rows, features, seed) of each table written before the runs.
TABLES = [(TABLE, TABLE_ROWS, TABLE_FEATURES, 20_240_314),
          ("large_table.csv", 6000, 20, 20_261_020)]


def _write_table(path, rows, width, seed):
    # Correlated features, each scaled and shifted by its own power of ten,
    # and a target that depends non-linearly on a few of them.
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((rows, 4))
    mixing = rng.standard_normal((4, width))
    scales = np.geomspace(1e-3, 1e4, width)
    features = (latent @ mixing + 0.3 * rng.standard_normal((rows, width)))
    features = features * scales + 10.0 * scales
    target = np.sin(latent[:, 0]) + 0.5 * latent[:, 1] * latent[:, 2] + 0.2 * np.abs(
        rng.standard_normal(rows))
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
        data = json.dumps(report, indent=1).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def fingerprint():
    """What the digests depend on besides the code, as {name: description}."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line.partition(":")[2].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "cpu": cpu}


def run_digests(out, names=None):
    """Run the named runs and help texts (by default all) into directory
    ``out``; return {file path relative to ``out``: sha256} over the files
    they wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Runs start in ``out``, so the report's config holds the table's
    # relative path, the same on every run.
    for name, *table in TABLES:
        _write_table(out / name, *table)
    for name, args in RUNS:
        if names is None or name in names:
            subprocess.run([sys.executable, *args, "--out", str(out / name)],
                           env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
            if name in PRINTED:
                with open(out / f"{name}_report.txt", "wb") as fh:
                    subprocess.run([sys.executable, *CLI, "report", f"{name}.json"],
                                   env=env, cwd=out, check=True, stdout=fh)
    for name, args in HELPS:
        if names is None or name in names:
            with open(out / f"{name}.txt", "wb") as fh:
                subprocess.run([sys.executable, *CLI, *args], env={**env, "COLUMNS": "80"},
                               cwd=out, check=True, stdout=fh)
    return {path.relative_to(out).as_posix(): _digest(path)
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name not in {name for name, *_ in TABLES}}


def read_digest(path=DIGEST):
    """The (fingerprint, digests) a file printed by this script holds."""
    prints, digests = {}, {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            prints[key] = value
        elif line:
            digest, _, name = line.partition("  ")
            digests[name] = digest
    return prints, digests


def main():
    prints = fingerprint()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    for key, value in prints.items():
        print(f"# {key} {value}")
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    expected_prints, expected = read_digest() if DIGEST.exists() else ({}, {})
    if expected_prints != prints:
        print(f"{DIGEST.name} was made under {expected_prints or 'no fingerprint'}, "
              f"not {prints}: nothing compared", file=sys.stderr)
        return 0
    moved = sorted(name for name in expected.keys() | digests.keys()
                   if expected.get(name) != digests.get(name))
    for name in moved:
        print(f"digest moved: {name}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
