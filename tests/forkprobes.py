"""Probes of this process, its forks and the fork gate, and the failures a
forked child is made to act out (`in_the_child`, `killed`), for the tests of
`_forked.forked_map` and of the forked `checkerboard` writer.  Of these,
`process_state` and the gate contexts `one_cpu`, `no_cpu_mask` and
`another_thread` serve `tests/test_forked_map.py` alone."""

import contextlib
import os
import signal
import threading
from unittest import mock

import pytest


@contextlib.contextmanager
def counted_forks():
    """os.fork, counting its calls."""
    calls = []
    real = os.fork

    def fork():
        calls.append(None)
        return real()

    with mock.patch.object(os, "fork", fork):
        yield calls


def refuse_fork():
    raise AssertionError("forked where one process should compute every item")


def in_the_child(act, fn):
    """`fn`, calling `act` first in any process but this one, so only in the
    forked child."""
    here = os.getpid()

    def child_acts(item):
        if os.getpid() != here:
            act()
        return fn(item)

    return child_acts


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def process_state():
    """This process's open file descriptors and the CPUs it may run on."""
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []
    return fds, os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@contextlib.contextmanager
def nothing_left():
    """Assert that no child of this process is left, reaped or not, no pipe
    end is open, and the process may run on the CPUs it could before."""
    state = process_state()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert process_state() == state


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX-only")
# a map forks only where it can set its CPU mask and may run on a second CPU,
# so a test that asserts a fork skips elsewhere, as under `taskset -c 0`
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="forks only where the CPU mask can be set and allows two CPUs",
)


@contextlib.contextmanager
def one_cpu():
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        yield


@contextlib.contextmanager
def no_cpu_mask():
    # as on macOS, which has os.fork but no os.sched_setaffinity
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "sched_setaffinity", raising=False)
        yield


@contextlib.contextmanager
def another_thread():
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
