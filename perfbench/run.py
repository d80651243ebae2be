"""pireg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sine_ensemble --seed 1 --seconds 30 --trace 0

Run from anywhere; paths are taken relative to this file's checkout, and
the package is imported from its ``src`` directory (nothing is installed).

The workload's inputs are generated from ``--seed`` first and are not part
of any timing.  Then SETUP_REPEATS fresh interpreters are started one after
another; each imports pireg, resolves its config and runs one untimed
warm-up operation, and ``setup_s`` is the median of their start-to-ready
times.  The warm-up is the workload's operation cut short (a few epochs, a
2,000-row table): it takes every code path the timed operations take, so
lazy imports and first-call costs land in set-up, while set-up stays short
enough to repeat.  The last of them goes on to run operations one at a
time (closed loop, a single process) for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured with no hooks.
``--trace 1`` reports the per-module metrics: operations alternate between
untraced and traced, and the traced ones time calls into each module from
outside (see spans.py).  Metric names and units are those of BENCHMARK.json.

Every operation is checked (see workloads.py); the last stdout line is the
JSON result, and the exit code is 1 when any check failed.  A readable
table, the environment fingerprint and the path of a detail file under
``.perfbench_out/`` are printed before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_metrics
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _blas():
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": _commit(),
    }


def _spawn_worker(spec, workdir, index):
    """Start one worker; return its start-to-ready seconds once it has ended."""
    spec_path = workdir / f"spec{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"worker {index} failed during set-up or measurement (exit {code})")
    return ready


def end_to_end_metrics(setups, ops, peak_rss_mb):
    good = [op for op in ops if not op["failures"]]
    quality = good[0]["quality"] if good else [0.0, 0.0, 0.0]
    walls = [op["wall_s"] for op in ops]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "member_epochs_per_s": (statistics.median(
            op["member_epochs"] / op["wall_s"] for op in ops), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "heldout_picp": (quality[0], "share"),
        "heldout_mpiw": (quality[1], "sd"),
        "heldout_rmse": (quality[2], "sd"),
        "ok_share": (len(good) / len(ops), "share"),
    }


def _declared(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def run(workload, seed, seconds, trace):
    declared = _declared(trace)
    if not (ROOT / "src" / "pireg" / "__init__.py").is_file():
        raise BenchError(f"no pireg package under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        load_before = _loadavg()
        started = time.perf_counter()
        inputs = make_inputs(workload, seed, str(workdir))
        generate_s = time.perf_counter() - started
        spec = {"workload": workload, "seed": seed, "inputs": inputs, "workdir": str(workdir),
                "seconds": seconds, "trace": trace, "measure": False,
                "result": str(workdir / "result.json")}
        setups = []
        for index in range(SETUP_REPEATS):
            spec["measure"] = index == SETUP_REPEATS - 1
            setups.append(_spawn_worker(spec, workdir, index))
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        load_after = _loadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    absent = []
    if trace:
        metrics, absent = per_layer_metrics(
            result["trace"], [op["wall_s"] for op in ops if op["traced"]],
            [op["wall_s"] for op in ops if not op["traced"]])
    else:
        metrics = end_to_end_metrics(setups, ops, result["peak_rss_mb"])
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(declared))}")

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "loadavg_before": load_before, "loadavg_after": load_after,
        "generate_inputs_s": generate_s, "setup_s": setups, "ops": ops,
        "peak_rss_mb": result["peak_rss_mb"], "absent": absent, "spans": result["trace"],
    }
    return metrics, absent, detail


def _print_table(metrics, absent, detail, failed):
    env = detail["environment"]
    ops = detail["ops"]
    print(f"pireg benchmark: workload={detail['workload']} seed={detail['seed']} "
          f"seconds={detail['seconds']} trace={detail['trace']}")
    print(f"environment: nproc={env['nproc']} affinity={env['affinity']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"threads={env['num_threads'] or 'default'} commit={env['commit']}")
    print(f"loadavg: before={detail['loadavg_before']} after={detail['loadavg_after']}")
    print(f"inputs generated in {detail['generate_inputs_s']:.3f} s (informational, not timed)")
    print(f"{len(ops)} ops ({sum(op['traced'] for op in ops)} traced), {failed} failed; "
          f"setup_s is the median of {len(detail['setup_s'])} set-ups, "
          f"timings the median over ops")
    for op in ops:
        for failure in op["failures"]:
            print(f"check failed: {failure}")
    for name, (value, unit) in metrics.items():
        note = "  absent" if name in absent else ""
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        metrics, absent, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    detail_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(dict(detail, metrics=metrics), indent=1), encoding="utf-8")
    failed = sum(1 for op in detail["ops"] if op["failures"])
    _print_table(metrics, absent, detail, failed)
    print(f"detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(detail["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
