"""Every operation of every `perfbench/run.py` workload, run once and checked
by that operation's own check, with no timing.

`perfbench/` is only read.  Its modules are imported without writing
bytecode, the `quantify-posets` inputs are written to a temporary directory,
and each operation runs here as `python -m causetkit.cli` rather than through
`run.run_op`, which writes its output under `perfbench/out`.  Each
workload's reference figures, `BENCH_<workload>.json` at the repository
root, are checked for their form, not for any timing.
"""

import contextlib
import importlib
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SEED = 1


@contextlib.contextmanager
def unlimited_int_digits():
    """Python's int-to-string limit lifted, as `checks.py` lifts it for the
    particle state JSON, and put back afterwards for the other tests."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


with unlimited_int_digits(), mock.patch.object(sys, "path", [BENCH_DIR, *sys.path]), \
        mock.patch.object(sys, "dont_write_bytecode", True):
    run = importlib.import_module("run")
assert os.path.dirname(run.__file__) == BENCH_DIR


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return run.gen_inputs.write_inputs(SEED, str(tmp_path_factory.mktemp("inputs")))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_operation_passes_its_check(workload, inputs, tmp_path):
    # seeded as run.py seeds a run
    ops = run.WORKLOADS[workload](random.Random(f"{workload}/{SEED}"), inputs)
    failures = []
    for op in ops:
        # not run_python: each operation runs with run.child_env(), as run.py runs it
        proc = subprocess.run([sys.executable, "-m", "causetkit.cli", *op.argv],
                              capture_output=True, env=run.child_env(), cwd=tmp_path,
                              timeout=300)
        err = proc.stderr.decode("utf-8", "replace")
        if proc.returncode != 0:
            failures.append(f"{op.name}: exit {proc.returncode}: {err.strip()[-200:]}")
            continue
        try:
            with unlimited_int_digits():
                op.check(proc.stdout.decode("utf-8"), err)
        except Exception as exc:  # every failing check is reported, not only the first
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}"[:300])
    assert ops
    assert failures == []


def test_every_workload_has_its_reference_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    names = sorted(workload["name"] for workload in benchmark["workloads"])
    assert sorted(name for name in os.listdir(ROOT) if name.startswith("BENCH_")) == [
        f"BENCH_{name}.json" for name in names
    ]
    units = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]}
    for name in names:
        with open(os.path.join(ROOT, f"BENCH_{name}.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        assert reference["workload"] == name
        metrics = reference["metrics"]
        assert {metric: figures["unit"] for metric, figures in metrics.items()} == units
        for figures in metrics.values():
            assert figures["q1"] <= figures["median"] <= figures["q3"]
