"""Shared pytest wiring.

The acceptance module records one PASS/FAIL line per criterion; this hook
replays them in the terminal summary so the verdict survives pytest's
output capture.  ``fork_over`` and the ``forked_chunks`` fixture let the
trainer's and the benchmark's tests train over forked workers at any size;
``assert_no_child_left`` and ``open_descriptors`` check what forking left.
"""

import contextlib
import os
import sys
from unittest import mock

import pytest

import pireg.training as training


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, module in list(sys.modules.items()):
        if name.rsplit(".", 1)[-1] != "test_acceptance":
            continue
        lines = getattr(module, "SUMMARY", None)
        if lines:
            terminalreporter.section("acceptance criteria")
            for line in lines:
                terminalreporter.write_line(line)


@contextlib.contextmanager
def fork_over(k):
    """Inside the block ``train_ensemble`` forks over k CPUs at any work
    size (k processes, or more for a heavy stack), and the yielded list
    records the member count of each chunk of each fork; without OpenBLAS thread controls nothing forks, and with k
    None it forks as unpatched.  Unlike a fixture, it patches and restores
    once per Hypothesis example."""
    chunks = []
    real = training._train_forked

    def spy(config, shape, parts):
        chunks.append([len(part) for part in parts])
        return real(config, shape, parts)

    forced = {} if k is None else dict(_cpus=lambda: k, FORK_MIN_WORK=0)
    with mock.patch.multiple(training, _train_forked=spy, **forced):
        yield chunks


@pytest.fixture
def forked_chunks():
    """``workers(k)``: ``fork_over(k)`` for the rest of the test, and its
    list of chunk sizes.  Without OpenBLAS thread controls the test skips."""
    if training._blas_threads() is None:
        pytest.skip("training forks only with OpenBLAS thread controls, not found here")
    with contextlib.ExitStack() as stack:
        yield lambda k: stack.enter_context(fork_over(k))


def assert_no_child_left():
    """Every child this process forked has been reaped: waitpid finds none,
    running or exited."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_descriptors():
    """This process's open file descriptors (Linux), or None where the
    system does not list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
