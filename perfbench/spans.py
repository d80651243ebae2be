"""Outside-in tracing of pireg's modules for the benchmark's traced run.

Each hook replaces a function under the name its caller looks it up by at
call time (modules use ``from .x import f``, so ``pireg.training.backward``
is the binding the trainer calls, not ``pireg.network.backward``).  Nothing
in ``src/pireg`` is edited.  A hook whose every site has vanished is
reported as absent instead of failing the run, so a refactor never needs to
edit the benchmark.

Spans are folded into per-(layer, parent layer) totals as they close: call
count, total time and self time (total minus the time of hooked children).
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict


def _backward_flops(args, kwargs, result):
    # Computed from layer shapes, not measured: the forward pass, the weight
    # gradients, and the delta propagated back through every layer but the
    # first, each 2 * rows * fan_in * fan_out.
    sizes = args[0].layer_sizes
    rows = args[1].shape[0]
    pairs = [a * b for a, b in zip(sizes[:-1], sizes[1:])]
    return 2.0 * rows * (2 * sum(pairs) + sum(pairs[1:]))


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


def _epochs(args, kwargs, result):
    return float(result[1].epochs_run)


# layer name -> (call sites "module:attribute", work counter or None)
HOOKS = {
    "data.load_delimited": (["pireg.bench:load_delimited"], _file_bytes),
    "data.split": (["pireg.bench:split"], None),
    "data.fit_normalize": (["pireg.bench:fit_normalize", "pireg.data:fit_normalize"], None),
    "data.apply_normalize": (["pireg.bench:apply_normalize", "pireg.data:apply_normalize"], None),
    "training.train_ensemble": (["pireg.bench:train_ensemble",
                                 "pireg.training:train_ensemble"], None),
    "training.train_single": (["pireg.training:train_single"], _epochs),
    "training.carve_validation": (["pireg.bench:carve_validation"], None),
    "network.backward": (["pireg.training:backward"], _backward_flops),
    "network.loss_value": (["pireg.training:loss_value"], None),
    "network.forward": (["pireg.bench:forward"], None),
    "losses.head_loss_and_grad": (["pireg.network:head_loss_and_grad"], None),
    "optim.adam_step": (["pireg.training:adam_step"], None),
    "ensemble.aggregate_pi": (["pireg.bench:aggregate_pi"], None),
    "metrics.metrics_record": (["pireg.bench:metrics_record", "pireg.metrics:metrics_record"], None),
    "bench.run_benchmark": (["pireg.cli:run_benchmark"], None),
    "bench.load_dataset": (["pireg.bench:load_dataset"], None),
    "bench.run_split": (["pireg.bench:run_split"], None),
    "bench.ensemble_predict": (["pireg.bench:ensemble_predict"], None),
    "bench.emit_report": (["pireg.cli:emit_report"], None),
    "bench.format_report": (["pireg.cli:format_report"], None),
}

MODULES = ("data", "training", "network", "losses", "optim", "ensemble", "metrics", "bench")


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (layer, parent): calls, total, self
        self.work = defaultdict(float)
        self.work_failed = set()
        self.absent = []
        self._stack = []
        self._patched = []

    def install(self):
        self.absent = []
        for layer, (sites, work) in HOOKS.items():
            found = False
            for site in sites:
                module_name, attr = site.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                setattr(module, attr, self._wrap(layer, original, work))
                self._patched.append((module, attr, original))
                found = True
            if not found:
                self.absent.append(layer)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, layer, fn, work):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def hooked(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = stats[(layer, parent)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if work is not None and layer not in self.work_failed:
                try:
                    self.work[layer] += work(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    self.work_failed.add(layer)
            return result

        hooked.__wrapped__ = fn
        return hooked

    def raw(self):
        return {
            "spans": [{"layer": layer, "parent": parent, "calls": calls,
                       "total_s": total, "self_s": self_time}
                      for (layer, parent), (calls, total, self_time) in self.stats.items()],
            "work": dict(self.work),
            "work_unavailable": sorted(self.work_failed),
            "absent": list(self.absent),
        }


def per_layer_metrics(raw, traced_walls, untraced_walls):
    """The traced run's per-module metrics from the folded spans.

    Returns (metrics, absent) where metrics maps name -> (value, unit) and
    absent names the metrics whose hooks found no target, or whose computed
    work could no longer be read from the hooked call's arguments.
    """
    totals = {layer: [0, 0.0, 0.0] for layer in HOOKS}
    by_parent = defaultdict(lambda: [0, 0.0])
    for span in raw["spans"]:
        acc = totals[span["layer"]]
        acc[0] += span["calls"]
        acc[1] += span["total_s"]
        acc[2] += span["self_s"]
        key = (span["layer"], span["parent"])
        by_parent[key][0] += span["calls"]
        by_parent[key][1] += span["total_s"]
    work = raw["work"]
    absent_layers = set(raw["absent"])
    no_work = absent_layers | set(raw["work_unavailable"])
    ops = len(traced_walls)
    traced_wall = sum(traced_walls)

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    metrics, absent = {}, []

    def put(name, layer, value, unit, uses_work=False):
        metrics[name] = (value, unit)
        if layer in (no_work if uses_work else absent_layers):
            absent.append(name)

    head = "losses.head_loss_and_grad"
    for suffix, parent in (("train", "network.backward"), ("valid", "network.loss_value")):
        calls, total = by_parent[(head, parent)]
        put(f"{head}.{suffix}.us_per_call", head, per(total, calls, 1e6), "us")
    calls, total, self_time = totals["network.backward"]
    put("network.backward.self_us_per_call", "network.backward", per(self_time, calls, 1e6), "us")
    flops = work.get("network.backward", 0.0)
    put("network.backward.gflops", "network.backward", per(flops, self_time, 1e-9),
        "GFLOP/s", uses_work=True)
    put("network.backward.computed_mflop_per_call", "network.backward",
        per(flops, calls, 1e-6), "MFLOP", uses_work=True)
    calls, _, self_time = totals["network.loss_value"]
    put("network.loss_value.self_us_per_call", "network.loss_value",
        per(self_time, calls, 1e6), "us")
    for layer in ("network.forward", "optim.adam_step", "ensemble.aggregate_pi",
                  "metrics.metrics_record"):
        calls, total, _ = totals[layer]
        put(f"{layer}.us_per_call", layer, per(total, calls, 1e6), "us")
    _, _, self_time = totals["training.train_single"]
    put("training.train_single.self_us_per_epoch", "training.train_single",
        per(self_time, work.get("training.train_single", 0.0), 1e6), "us", uses_work=True)
    calls, total, _ = totals["data.load_delimited"]
    parsed = work.get("data.load_delimited", 0.0)
    put("data.load_delimited.ms_per_call", "data.load_delimited", per(total, calls, 1e3), "ms")
    put("data.load_delimited.mb_per_s", "data.load_delimited", per(parsed, total, 1e-6),
        "MB/s", uses_work=True)
    put("data.load_delimited.computed_mb_per_call", "data.load_delimited",
        per(parsed, calls, 1e-6), "MB", uses_work=True)
    for layer in ("data.split", "data.fit_normalize", "data.apply_normalize", "bench.emit_report"):
        calls, total, _ = totals[layer]
        put(f"{layer}.ms_per_call", layer, per(total, calls, 1e3), "ms")
    calls, _, self_time = totals["bench.ensemble_predict"]
    put("bench.ensemble_predict.self_us_per_call", "bench.ensemble_predict",
        per(self_time, calls, 1e6), "us")
    for module in MODULES:
        share = sum(acc[2] for layer, acc in totals.items() if layer.split(".")[0] == module)
        metrics[f"{module}.self_share"] = (per(share, traced_wall), "share")
    for layer, (calls, _, _) in totals.items():
        put(f"{layer}.calls", layer, per(calls, ops), "count")
    untraced = statistics.median(untraced_walls)
    metrics["trace.overhead_share"] = (statistics.median(traced_walls) / untraced - 1.0, "share")
    metrics["trace.coverage"] = (per(sum(acc[2] for acc in totals.values()), traced_wall), "share")
    return metrics, absent
