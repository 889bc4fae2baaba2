"""`_forked.forked_map(fn, items)`: an ordered map whose odd items a forked
child computes.

Whatever the child does, the results must be exactly `list(map(fn, items))`;
no child or pipe end may outlive the map, and the process may run on the
CPUs it could before.  Each failure test runs on every stream: small texts,
and the slices of a 12-step lattice mapped by `checkerboard`'s own slice
function to CSV or JSON, so the forked `checkerboard` writer's failures are
tested here and nowhere else.  The map forks only where the process can set
its CPU mask and may run on two CPUs, so the tests that assert a fork skip
elsewhere, as under `taskset -c 0`.
"""

import operator
import os
import time
from typing import Callable, Iterable, NamedTuple
from unittest import mock

import pytest

from causetkit import checkerboard as cb
from causetkit import cli
from causetkit._forked import forked_map
from causetkit.checkerboard import KernelColumns
from conftest import run_python
from forkprobes import (
    another_thread, counted_forks, in_the_child, killed, needs_two_cpus, no_cpu_mask,
    nothing_left, one_cpu, process_state, refuse_fork,
)


# 41 texts: empty, ASCII with the characters CSV quotes, and multi-byte UTF-8
TEXTS = ["", "a", "b,c", 'say "hi"\n', "x\r\ny", "π ≈ 3.14159", "日本語", "naïve 🙂"]
TEXTS += [f"{i}:" + "é" * i for i in range(41 - len(TEXTS))]


def backwards(text):
    return text[::-1]


class Stream(NamedTuple):
    """Items to map, made afresh by `items()`, the function that maps them,
    and the key by which a test records an item."""

    items: Callable[[], Iterable]
    fn: Callable[[object], str]
    key: Callable[[object], object]

    def results(self):
        return list(map(self.fn, self.items()))

    def keys(self):
        return list(map(self.key, self.items()))


def lattice_stream(emit):
    """The (t, field) slices of a 12-step lattice, each mapped to its text as
    `checkerboard --emit <emit>` does, and keyed by t."""

    def text(item):
        t, field = item
        return cli._slice_text(t, KernelColumns.from_field(field), emit)

    pp = cb.propagators_from_theta(0.7)
    return Stream(lambda: enumerate(cb._stepped_fields(12, pp, "P")), text,
                  operator.itemgetter(0))


# each failure test runs on the texts, whose cases carry no stream id, and on
# the CSV and JSON slices of a lattice
on_every_stream = pytest.mark.parametrize(
    "stream", [Stream(lambda: TEXTS, backwards, lambda text: text),
               lattice_stream("csv"), lattice_stream("json")],
    ids=[pytest.HIDDEN_PARAM, "csv", "json"])


def parent_calls(calls, fn, key=lambda text: text):
    """`fn`, recording in `calls` the key of each item this process computes,
    with its CPUs."""
    here = os.getpid()

    def recorded(item):
        if os.getpid() == here:
            calls.append((key(item), process_state()[1]))
        return fn(item)

    return recorded


@needs_two_cpus
@pytest.mark.parametrize("n", [0, 1, 2, 3, 41])
def test_the_results_are_those_of_map(n):
    items = TEXTS[:n]
    with nothing_left(), counted_forks() as forks:
        assert list(forked_map(backwards, iter(items))) == list(map(backwards, items))
    assert len(forks) == 1


@needs_two_cpus
def test_a_healthy_child_computes_every_odd_item():
    calls = []
    cpus = os.sched_getaffinity(0)
    with nothing_left(), counted_forks() as forks:
        out = list(forked_map(parent_calls(calls, backwards), TEXTS))
    assert (out, len(forks)) == (list(map(backwards, TEXTS)), 1)
    # while the child runs, the parent leaves it the last CPU
    assert calls == [(text, cpus - {max(cpus)}) for text in TEXTS[::2]]


@needs_two_cpus
@on_every_stream
def test_a_lagging_child_changes_nothing(stream):
    # the child sleeps before each item, so the parent is always ahead of it
    fn = in_the_child(lambda: time.sleep(0.01), stream.fn)
    with nothing_left(), counted_forks() as forks:
        assert list(forked_map(fn, stream.items())) == stream.results()
    assert len(forks) == 1


def out_of_memory():
    raise MemoryError


def raises():
    raise ValueError("not an item")


@needs_two_cpus
@on_every_stream
@pytest.mark.parametrize("fail", [killed, raises, out_of_memory],
                         ids=["signal", "exception", "memory"])
def test_a_failing_child_changes_nothing(fail, stream):
    # the child fails at its first item, so the parent computes every item,
    # on every CPU from the first the pipe does not bring
    calls = []
    cpus = os.sched_getaffinity(0)
    fn = parent_calls(calls, in_the_child(fail, stream.fn), stream.key)
    with nothing_left(), counted_forks() as forks:
        out = list(forked_map(fn, stream.items()))
    assert (out, len(forks)) == (stream.results(), 1)
    first, *rest = stream.keys()
    assert calls == [(first, cpus - {max(cpus)}), *((key, cpus) for key in rest)]


@needs_two_cpus
@on_every_stream
def test_a_child_that_exits_nonzero_after_its_last_item_changes_nothing(stream):
    real_exit = os._exit
    with nothing_left(), counted_forks() as forks, \
            mock.patch.object(os, "_exit", lambda status: real_exit(5)):
        assert list(forked_map(stream.fn, stream.items())) == stream.results()
    assert len(forks) == 1


@on_every_stream
def test_a_failed_fork_computes_every_item_here(stream):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    calls = []
    fn = parent_calls(calls, stream.fn, stream.key)
    with nothing_left(), mock.patch.object(os, "fork", fork):
        assert list(forked_map(fn, stream.items())) == stream.results()
    assert [key for key, _ in calls] == stream.keys()


@needs_two_cpus
def test_a_failing_fn_in_the_parent_propagates_and_the_child_is_reaped():
    here = os.getpid()

    def fn(text):
        if os.getpid() == here and text == TEXTS[4]:
            raise ValueError("the parent's fifth item")
        return backwards(text)

    out = []
    with nothing_left(), counted_forks() as forks:
        with pytest.raises(ValueError, match="the parent's fifth item"):
            out.extend(forked_map(fn, TEXTS))
    assert (out, len(forks)) == (list(map(backwards, TEXTS[:4])), 1)


@needs_two_cpus
@on_every_stream
def test_a_map_closed_after_two_items_kills_and_reaps_the_child(stream):
    # the child sleeps, so it is still running when the map is closed
    with nothing_left(), counted_forks() as forks:
        results = forked_map(in_the_child(lambda: time.sleep(0.05), stream.fn), stream.items())
        assert [next(results), next(results)] == stream.results()[:2]
        results.close()
    assert len(forks) == 1


@on_every_stream
@pytest.mark.parametrize("context", [one_cpu, no_cpu_mask, another_thread])
def test_the_fork_gate_keeps_one_process(context, stream):
    with nothing_left(), context(), mock.patch.object(os, "fork", refuse_fork):
        assert list(forked_map(stream.fn, stream.items())) == stream.results()


@needs_two_cpus
def test_the_child_leaves_only_through_os_exit():
    # with the kill a no-op the parent waits for the child to end by itself;
    # a child that returned from `_write_odd_items` would run on into the
    # parent's code, close its closed write end again and fail on stderr
    script = (
        "import os\n"
        "from causetkit._forked import forked_map\n"
        "os.kill = lambda pid, sig: None\n"
        "print(''.join(forked_map(str.upper, iter('abcdefg'))))\n"
    )
    done = run_python("-c", script, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ABCDEFG\n", "")


def test_the_module_imports_nothing_from_causetkit():
    script = (
        "import sys, causetkit._forked\n"
        "print(sorted(m for m in sys.modules if m.startswith('causetkit.')))\n"
    )
    assert run_python("-c", script).stdout == "['causetkit._forked']\n"
