"""The benchmark harness still runs against the package.

``perfbench/`` drives pireg through its public API and CLI, and times each
module through hooks on the names its callers look up (``spans.HOOKS``).
Both files are loaded here by path and used unchanged: every workload's
warm-up operation must pass its own checks under a ``spans.Tracer``, and
every hooked layer must see calls, so an API change that breaks the
benchmark fails here first.  ``training.train_single`` is exempt: the
function is gone, and the harness reports its hook absent.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STALE_HOOKS = {"training.train_single"}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: dataclasses resolve a class's module by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_warmup_ops_pass_their_checks_and_reach_every_hook(tmp_path, monkeypatch):
    workloads, spans = _load("workloads", monkeypatch), _load("spans", monkeypatch)
    tracer = spans.Tracer()
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        inputs = workloads.make_inputs(name, 3, str(workdir))
        workload = workloads.Workload(name, 3, inputs, str(workdir))
        tracer.install()
        try:
            check = workload.run(warmup=True)
        finally:
            tracer.uninstall()
        assert check().failures == [], name
    called = {layer for (layer, _), (calls, _, _) in tracer.stats.items() if calls}
    assert set(spans.HOOKS) - STALE_HOOKS - called == set()
