"""`checkerboard --method matrix` CSV and JSON formatted in two processes.

Past `cli._FORK_ROW_BOUND` rows `_forked.forked_map` forks a child that
formats the odd time slices while the parent formats the even ones.  Here is
what the command adds to the map: the output must be the bytes of the
one-process writer, the bound and the method decide whether it forks, the
child sends every odd slice, a child killed at its first slice changes
nothing but the time and gives its CPU back to the parent, and a failing
parent or a closed stdout leaves no child or pipe end behind.  The map's
other failure modes, a child that fails or lags and a fork that fails or is
refused, are tested once, in `tests/test_forked_map.py`, on small texts and
on the command's own slice stream.  Most cases lower the bound so that small lattices fork, and a bound
of 10**18 gives the one-process bytes they are compared with.  Both writers
are also checked against the general path: row dicts serialised by
`rows_to_csv` or `canonical_json`.
"""

import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetkit import checkerboard as cb
from causetkit import cli
from causetkit.checkerboard import KernelColumns
from causetkit.cli import canonical_json, format_number, rows_to_csv
from conftest import SRC, run_cli
from forkprobes import (
    counted_forks, in_the_child, killed, needs_fork, needs_two_cpus, nothing_left, refuse_fork,
)

ONE_PROCESS = 10**18
# the row bound of 8 steps, (8 + 1) * (8 + 2)
LOW_BOUND = 90


def run(argv, bound, outdir=None):
    """main(["checkerboard", *argv]) with the fork bound at `bound`: the exit
    code, the artifact's text and stderr."""
    argv = ["checkerboard", *argv] + (["--outdir", outdir] if outdir else [])
    with mock.patch.object(cli, "_FORK_ROW_BOUND", bound):
        code, out, err = run_cli(argv)
    if outdir is None:
        return code, out, err
    emit = argv[argv.index("--emit") + 1] if "--emit" in argv else "csv"
    path = os.path.join(outdir, f"checkerboard.{emit}")
    assert out == path + "\n"
    with open(path, encoding="utf-8") as fh:
        return code, fh.read(), err


# angles in [0, pi/2], where both propagator magnitudes are nonnegative
propagators = st.one_of(
    st.just([]),
    st.builds(lambda theta: ["--theta", repr(theta)],
              st.one_of(st.floats(0, math.pi / 2), st.sampled_from([0.0, math.pi / 2]))),
    st.builds(lambda mass, eps: ["--mass", repr(mass), "--eps", repr(eps)],
              st.floats(0, 1.5), st.floats(0.01, 1)),
)


@needs_two_cpus
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
    with nothing_left():
        if (steps + 1) * (steps + 2) < LOW_BOUND:
            with mock.patch.object(os, "fork", refuse_fork):
                assert run(argv, LOW_BOUND, outdir) == expected
        else:
            with counted_forks() as forks:
                assert run(argv, LOW_BOUND, outdir) == expected
            assert len(forks) == 1


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


@needs_two_cpus
@settings(max_examples=80, deadline=None)
@given(steps=st.integers(0, 16), method=st.sampled_from(["matrix", "pathsum", "both"]),
       flags=propagators, initial=st.sampled_from("PQ"), emit=st.sampled_from(["csv", "json"]))
def test_both_writers_match_the_row_dicts(steps, method, flags, initial, emit):
    out, err = reference_checkerboard(steps, flags, initial, method, emit)
    argv = ["--steps", str(steps), "--method", method, *flags, "--initial", initial,
            "--emit", emit]
    # a bound of 2 rows forks at every matrix depth, the default at none of these
    for bound, forks in [(2, int(method == "matrix")), (cli._FORK_ROW_BOUND, 0)]:
        with nothing_left(), counted_forks() as calls:
            assert run(argv, bound) == (0, out, err)
        assert len(calls) == forks


@needs_fork
@pytest.mark.parametrize("steps, forks",
                         [(18, 0), (179, 0), pytest.param(180, 1, marks=needs_two_cpus)])
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


@needs_two_cpus
@pytest.mark.parametrize("fail, emit", [pytest.param(killed, "csv", id="signal-csv")])
def test_a_failing_child_changes_nothing_but_the_time(fail, emit):
    argv = ["--steps", "12", "--emit", emit]
    expected = run(argv, ONE_PROCESS)
    from_field = in_the_child(fail, KernelColumns.from_field)
    with nothing_left(), counted_forks() as forks, \
            mock.patch.object(KernelColumns, "from_field", from_field):
        assert run(argv, 0) == expected
    assert len(forks) == 1


@needs_two_cpus
def test_the_parent_takes_the_childs_cpu_back_when_the_pipe_ends():
    # the child is killed at its first slice, and the parent formats the
    # rest on every CPU allowed, not pinned off the child's until the end
    argv = ["--steps", "6"]
    expected = run(argv, ONE_PROCESS)
    cpus = os.sched_getaffinity(0)
    real = cli._slice_text
    here = os.getpid()
    masks = {}
    from_field = in_the_child(killed, KernelColumns.from_field)

    def slice_text(step, cols, emit):
        if os.getpid() == here:
            masks[step] = os.sched_getaffinity(0)
        return real(step, cols, emit)

    with nothing_left(), counted_forks() as forks, \
            mock.patch.object(KernelColumns, "from_field", from_field), \
            mock.patch.object(cli, "_slice_text", slice_text):
        assert run(argv, 0) == expected
    assert len(forks) == 1
    assert masks == {0: cpus - {max(cpus)}, **{t: cpus for t in range(1, 7)}}


@needs_two_cpus
def test_a_healthy_child_sends_every_odd_slice():
    # the parent would format a slice the child fails to send, so only this
    # shows a child that sends nothing
    real = cli._slice_text
    here = os.getpid()
    formatted_here = []

    def slice_text(step, cols, emit):
        if os.getpid() == here:
            formatted_here.append(step)
        return real(step, cols, emit)

    with mock.patch.object(cli, "_slice_text", slice_text), counted_forks() as forks:
        assert run(["--steps", "40"], 0)[0] == 0
    assert (formatted_here, len(forks)) == (list(range(0, 41, 2)), 1)


@needs_two_cpus
def test_a_failing_parent_kills_and_reaps_the_child():
    real = KernelColumns.from_field
    here = os.getpid()

    def from_field(field):
        if os.getpid() == here and field.step_count == 4:
            raise MemoryError
        return real(field)

    with nothing_left(), counted_forks() as forks, \
            mock.patch.object(KernelColumns, "from_field", from_field):
        code, _, err = run(["--steps", "12"], 0)
    assert (code, err, len(forks)) == (3, "error: checkerboard ran out of memory\n", 1)


@needs_fork
def test_a_closed_stdout_leaves_no_process_behind():
    # as `causetkit checkerboard --steps 400 | head -c 1000`; the process
    # group of the command is empty once it has exited
    argv = [sys.executable, "-m", "causetkit.cli", "checkerboard", "--steps", "400"]
    # Popen, not run_python: it reads part of stdout while the command runs
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": SRC},
                          start_new_session=True) as proc:
        proc.stdout.read(1000)
        proc.stdout.close()
        assert proc.stderr.read() == b"error: [Errno 32] Broken pipe\n"
        assert proc.wait(timeout=60) == 2
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
