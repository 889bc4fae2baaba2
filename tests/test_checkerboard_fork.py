"""`checkerboard --method matrix` CSV and JSON formatted in two processes.

Past `cli._FORK_ROW_BOUND` rows a forked child formats the odd time slices
and the parent the even ones.  The output must be the bytes of the one-process
writer, no child or pipe end may outlive the command, and a child that fails
must end the command with one `error:` line and a documented exit code.  Most
cases lower the bound so that small lattices fork, and a bound of 10**18 gives
the one-process bytes they are compared with.  Both writers are also checked
against the general path: row dicts serialised by `rows_to_csv` or
`canonical_json`.
"""

import contextlib
import io
import math
import os
import signal
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causetkit
from causetkit import checkerboard as cb
from causetkit import cli
from causetkit.checkerboard import KernelColumns
from causetkit.cli import canonical_json, format_number, main, rows_to_csv

SRC = os.path.dirname(os.path.dirname(causetkit.__file__))
ONE_PROCESS = 10**18
# the row bound of 8 steps, (8 + 1) * (8 + 2)
LOW_BOUND = 90


def run(argv, bound, outdir=None):
    """main(["checkerboard", *argv]) with the fork bound at `bound`: the exit
    code, the artifact's text and stderr."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["checkerboard", *argv] + (["--outdir", outdir] if outdir else [])
    with mock.patch.object(cli, "_FORK_ROW_BOUND", bound), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if outdir is None:
        return code, out.getvalue(), err.getvalue()
    emit = argv[argv.index("--emit") + 1] if "--emit" in argv else "csv"
    path = os.path.join(outdir, f"checkerboard.{emit}")
    assert out.getvalue() == path + "\n"
    with open(path, encoding="utf-8") as fh:
        return code, fh.read(), err.getvalue()


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
    raise AssertionError("forked where one process should format every slice")


def process_state():
    """This process's open file descriptors and the CPUs it may run on."""
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []
    return fds, os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def assert_nothing_left(state):
    """No child of this process is left, reaped or not, no pipe end is open,
    and the process may run on the CPUs it could before."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert process_state() == state


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX-only")

# angles in [0, pi/2], where both propagator magnitudes are nonnegative
propagators = st.one_of(
    st.just([]),
    st.builds(lambda theta: ["--theta", repr(theta)],
              st.one_of(st.floats(0, math.pi / 2), st.sampled_from([0.0, math.pi / 2]))),
    st.builds(lambda mass, eps: ["--mass", repr(mass), "--eps", repr(eps)],
              st.floats(0, 1.5), st.floats(0.01, 1)),
)


@needs_fork
@settings(max_examples=60, deadline=None)
@given(steps=st.integers(0, 16), flags=propagators, initial=st.sampled_from("PQ"),
       emit=st.sampled_from(["csv", "json"]), to_outdir=st.booleans())
def test_forked_bytes_equal_one_process(tmp_path_factory, steps, flags, initial, emit,
                                        to_outdir):
    argv = ["--steps", str(steps), *flags, "--initial", initial, "--emit", emit]
    outdir = str(tmp_path_factory.mktemp("out")) if to_outdir else None
    with mock.patch.object(os, "fork", refuse_fork):
        expected = run(argv, ONE_PROCESS, outdir)
    assert expected[0] == 0
    state = process_state()
    if (steps + 1) * (steps + 2) < LOW_BOUND:
        with mock.patch.object(os, "fork", refuse_fork):
            assert run(argv, LOW_BOUND, outdir) == expected
    else:
        with counted_forks() as forks:
            assert run(argv, LOW_BOUND, outdir) == expected
        assert len(forks) == 1
    assert_nothing_left(state)


KERNEL_COLUMNS = ["t", "x", "helicity", "amp_re", "amp_im", "probability"]


def propagator_pair(flags):
    if not flags:
        return cb.zero_momentum_propagators()
    if flags[0] == "--theta":
        return cb.propagators_from_theta(float(flags[1]))
    return cb.propagators_from_mass(float(flags[1]), float(flags[3]))


def reference_checkerboard(steps, flags, initial, method, emit):
    """`checkerboard` output and stderr the general way: one row dict per
    kernel entry, from kernel_history or kernel_pathsum, serialised by
    rows_to_csv or canonical_json."""
    pp = propagator_pair(flags)
    if method == "pathsum":
        slices = [(steps, KernelColumns.from_kernel(cb.kernel_pathsum(steps, pp, initial)))]
    else:
        slices = list(enumerate(cb.kernel_history(steps, pp, initial)))
    rows = [
        {"t": t, "x": x, "helicity": h, "amp_re": a.real, "amp_im": a.imag,
         "probability": cb.born(a)}
        for t, cols in slices
        for x, h, a in zip(cols.positions, cols.helicities, cols.amplitudes)
    ]
    doc = {"steps": steps, "a": pp.a, "b": pp.b, "initial_helicity": initial,
           "method": method, "tolerance": 1e-12, "rows": rows}
    err = ""
    if method == "both":
        pathsum = cb.kernel_pathsum(steps, pp, initial)
        doc["max_discrepancy"] = cb.kernel_discrepancy(slices[-1][1].as_kernel(), pathsum)
        if emit == "csv":
            err = f"max_discrepancy {format_number(doc['max_discrepancy'])}\n"
    if emit == "csv":
        return rows_to_csv(rows, KERNEL_COLUMNS), err
    return canonical_json(doc) + "\n", err


@needs_fork
@settings(max_examples=80, deadline=None)
@given(steps=st.integers(0, 16), method=st.sampled_from(["matrix", "pathsum", "both"]),
       flags=propagators, initial=st.sampled_from("PQ"), emit=st.sampled_from(["csv", "json"]))
def test_both_writers_match_the_row_dicts(steps, method, flags, initial, emit):
    out, err = reference_checkerboard(steps, flags, initial, method, emit)
    argv = ["--steps", str(steps), "--method", method, *flags, "--initial", initial,
            "--emit", emit]
    state = process_state()
    # a bound of 2 rows forks at every matrix depth, the default at none of these
    for bound, forks in [(2, int(method == "matrix")), (cli._FORK_ROW_BOUND, 0)]:
        with counted_forks() as calls:
            assert run(argv, bound) == (0, out, err)
        assert len(calls) == forks
    assert_nothing_left(state)


@needs_fork
@pytest.mark.parametrize("steps, forks", [(18, 0), (179, 0), (180, 1)])
def test_the_row_bound_splits_at_180_steps(steps, forks):
    # 179 steps write up to 32,580 rows and 180 steps 32,942; the paths
    # benchmark's path sums take at most 18 steps
    with counted_forks() as calls:
        code, out, err = run(["--steps", str(steps), "--emit", "json"], cli._FORK_ROW_BOUND)
    assert (code, err, len(calls)) == (0, "", forks)
    assert out == run(["--steps", str(steps), "--emit", "json"], ONE_PROCESS)[1]


@pytest.mark.parametrize("method", ["pathsum", "both"])
def test_only_the_matrix_method_forks(method):
    with mock.patch.object(os, "fork", refuse_fork):
        code, _, _ = run(["--steps", "6", "--method", method], 0)
    assert code == 0


def test_the_svg_never_forks():
    with mock.patch.object(os, "fork", refuse_fork):
        assert run(["--steps", "12", "--emit", "svg"], 0)[0] == 0


@contextlib.contextmanager
def one_cpu():
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True), \
            mock.patch.object(os, "cpu_count", lambda: 1):
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


@needs_fork
@pytest.mark.parametrize("context", [one_cpu, another_thread])
def test_one_cpu_or_another_thread_keeps_one_process(context):
    argv = ["--steps", "12", "--theta", "0.7"]
    with context(), mock.patch.object(os, "fork", refuse_fork):
        assert run(argv, 0) == run(argv, ONE_PROCESS)


@needs_fork
def test_a_failed_fork_formats_every_slice_here():
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    argv = ["--steps", "12", "--emit", "json"]
    state = process_state()
    with mock.patch.object(os, "fork", fork):
        assert run(argv, 0) == run(argv, ONE_PROCESS)
    assert_nothing_left(state)


def fail_in_odd_slices(fail):
    """KernelColumns.from_field calling `fail` on an odd slice, which only the
    child formats: the sites of slice t sit at positions of t's parity."""
    real = KernelColumns.from_field

    def from_field(field):
        cols = real(field)
        if cols.positions[0] % 2:
            fail()
        return cols

    return from_field


def out_of_memory():
    raise MemoryError


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def raises():
    raise ValueError("not a slice")


@needs_fork
@pytest.mark.parametrize("emit", ["csv", "json"])
@pytest.mark.parametrize("fail, code, message", [
    (out_of_memory, 3, "checkerboard ran out of memory"),
    (killed, 3, "the process formatting odd slices was killed by signal 9"),
    (raises, 2, "the process formatting odd slices exited with status 1"),
], ids=["memory", "signal", "exception"])
def test_a_failing_child_ends_the_command_with_one_line(fail, code, message, emit):
    state = process_state()
    with mock.patch.object(KernelColumns, "from_field", fail_in_odd_slices(fail)), \
            counted_forks() as forks:
        result = run(["--steps", "12", "--emit", emit], 0)
    assert (result[0], result[2], len(forks)) == (code, f"error: {message}\n", 1)
    assert_nothing_left(state)


@needs_fork
def test_a_child_that_exits_nonzero_after_its_last_slice_fails_the_command():
    real_exit = os._exit
    state = process_state()
    with mock.patch.object(os, "_exit", lambda status: real_exit(5)):
        code, _, err = run(["--steps", "12"], 0)
    assert (code, err) == (2, "error: the process formatting odd slices exited with status 5\n")
    assert_nothing_left(state)


class ClosingStdout(io.StringIO):
    """A stdout whose reader goes away after two chunks."""

    def writelines(self, chunks):
        for i, chunk in enumerate(chunks):
            if i == 2:
                raise BrokenPipeError(32, "Broken pipe")
            self.write(chunk)


@needs_fork
@pytest.mark.parametrize("emit", ["csv", "json"])
def test_abandoned_output_kills_and_reaps_the_child(emit):
    state = process_state()
    err = io.StringIO()
    with mock.patch.object(cli, "_FORK_ROW_BOUND", 0), counted_forks() as forks, \
            contextlib.redirect_stdout(ClosingStdout()), contextlib.redirect_stderr(err):
        code = main(["checkerboard", "--steps", "300", "--emit", emit])
    assert (code, err.getvalue(), len(forks)) == (2, "error: [Errno 32] Broken pipe\n", 1)
    assert_nothing_left(state)


@needs_fork
def test_a_closed_stdout_leaves_no_process_behind():
    # as `causetkit checkerboard --steps 400 | head -c 1000`; the process
    # group of the command is empty once it has exited
    argv = [sys.executable, "-m", "causetkit.cli", "checkerboard", "--steps", "400"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": SRC},
                          start_new_session=True) as proc:
        proc.stdout.read(1000)
        proc.stdout.close()
        assert proc.stderr.read() == b"error: [Errno 32] Broken pipe\n"
        assert proc.wait(timeout=60) == 2
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
