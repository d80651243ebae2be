"""Shared pytest wiring.

The acceptance module records one PASS/FAIL line per criterion; this hook
replays them in the terminal summary so the verdict survives pytest's
output capture.  ``forked_chunks`` lets the trainer's and the benchmark's
tests train a stack's members over forked workers at any size.
"""

import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, module in list(sys.modules.items()):
        if name.rsplit(".", 1)[-1] != "test_acceptance":
            continue
        lines = getattr(module, "SUMMARY", None)
        if lines:
            terminalreporter.section("acceptance criteria")
            for line in lines:
                terminalreporter.write_line(line)


@pytest.fixture
def forked_chunks(monkeypatch):
    """``workers(k)`` lets ``train_ensemble`` fork k processes at any work
    size; the returned list records, for each call of ``_train_forked``, the
    member count of each of its chunks.  Without OpenBLAS thread controls
    nothing forks, and the test skips."""
    import pireg.training as training

    if training._blas_threads() is None:
        pytest.skip("training forks only with OpenBLAS thread controls, not found here")
    chunks = []
    real = training._train_forked

    def spy(config, shape, parts):
        chunks.append([len(part) for part in parts])
        return real(config, shape, parts)

    def workers(k):
        monkeypatch.setattr(training, "_cpus", lambda: k)
        monkeypatch.setattr(training, "FORK_MIN_WORK", 0)
        monkeypatch.setattr(training, "_train_forked", spy)
        return chunks

    return workers
