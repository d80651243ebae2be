"""One workload in a fresh interpreter: set-up, warm-up, then timed operations.

Started by run.py as ``python3 perfbench/worker.py SPEC.json`` with
``src`` on PYTHONPATH.  It prints ``ready`` once set-up is done (import of
pireg, config resolution and an untimed warm-up operation); a set-up-only
worker exits there.  A measuring worker then runs one operation at a time
until ``spec["seconds"]`` have passed and at least MIN_OPS have run, and
writes its results to ``spec["result"]``.  With tracing on, operations
alternate between untraced and traced, so both walls come from one process.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback

from spans import Tracer
from workloads import Outcome, Workload

MIN_OPS = 3


def _checked(check):
    try:
        return check()
    except Exception:  # a check that cannot complete fails the operation
        return Outcome(failures=[traceback.format_exc()])


def _timed_ops(workload, seconds, tracer):
    ops = []
    started = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - started < seconds:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            check = workload.run()
        except Exception:  # a failing operation is counted, not fatal
            check = functools.partial(Outcome, failures=[traceback.format_exc()])
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        outcome = _checked(check)
        if ops and outcome.quality and ops[0]["quality"] and tuple(ops[0]["quality"]) != outcome.quality:
            outcome.failures.append(
                f"quality {outcome.quality} differs from the first op's {tuple(ops[0]['quality'])}")
        ops.append({"wall_s": wall, "traced": traced, "member_epochs": outcome.member_epochs,
                    "quality": list(outcome.quality), "failures": outcome.failures})
    return ops


def main(spec_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = Workload(spec["workload"], spec["seed"], spec["inputs"], spec["workdir"])
    warmup = _checked(workload.run(warmup=True))
    if warmup.failures:
        print("warm-up operation failed:\n" + "\n".join(warmup.failures), file=sys.stderr)
        return 1
    print("ready", flush=True)
    if not spec["measure"]:
        return 0

    tracer = Tracer() if spec["trace"] else None
    ops = _timed_ops(workload, spec["seconds"], tracer)
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.raw() if tracer is not None else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
