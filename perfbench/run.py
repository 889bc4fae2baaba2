"""Benchmark of the causetkit command line.

    python3 perfbench/run.py --workload quantify-posets --seed 1 --seconds 20 --trace 0

Each operation is one `causetkit` process (`python3 -m causetkit.cli` with
PYTHONPATH=src), run one after another from this process: a closed loop with
one client.  A round is the workload's fixed list of operations; the run
repeats whole rounds until --seconds have passed and checks every output.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds (traced operations run under perfbench/traced_cli.py), prints
the per-layer metrics with the tracing overhead, and requires every traced
operation's stdout to equal the untraced one byte for byte.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; progress and tables go to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import checks
import gen_inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "out")
TRACED_CLI = os.path.join(BENCH_DIR, "traced_cli.py")

SETUP_SAMPLES = 4
# Every operation of a run must end before this many seconds from its start.
RUN_DEADLINE_S = 160


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str, str], int]
    # work units of principal operations feed work_per_s
    principal: bool = False
    # fixed work units; None takes the count the check returns
    units: int | None = None


@dataclass
class Outcome:
    wall: float
    rss_kb: int
    returncode: int | None
    digest: str
    units: int = 0
    error: str | None = None
    trace: dict = field(default_factory=dict)


def cli_args(command: str, *positional: str, **flags) -> list[str]:
    argv = [command, *positional]
    for key, value in flags.items():
        argv.append("--" + key.replace("_", "-"))
        argv.extend(value if isinstance(value, list) else [str(value)])
    return argv


# -- workloads ---------------------------------------------------------------------


def quantify_posets(rng: random.Random, inputs: dict) -> list[Op]:
    docs = {}
    for name, facts in inputs.items():
        with open(facts["path"], encoding="utf-8") as fh:
            docs[name] = json.load(fh)

    def quantify(name: str, coordinated: bool, emit: str) -> Op:
        flags = {"chain": "P", **({"chain2": "Q"} if coordinated else {}), "emit": emit}
        argv = cli_args("quantify", inputs[name]["path"], **flags)
        return Op(f"quantify-{name}-{emit}{'' if coordinated else '-single'}", argv,
                  lambda out, err: checks.check_quantify(out, docs[name], inputs[name],
                                                         coordinated, emit),
                  principal=True)

    def validate(name: str) -> Op:
        argv = cli_args("validate", inputs[name]["path"])
        return Op(f"validate-{name}", argv,
                  lambda out, err: checks.check_validate(out, inputs[name]))

    return [
        quantify("ladder_a", True, "csv"),
        quantify("ladder_b", True, "json"),
        quantify("random_c", True, "csv"),
        quantify("random_d", False, "csv"),
        validate("validate_9k"),
        validate("validate_12k"),
    ]


def checkerboard_op(name: str, sample_ts, principal: bool, units=None, **flags) -> Op:
    argv = cli_args("checkerboard", **flags)
    emit = flags.get("emit", "csv")
    return Op(name, argv,
              lambda out, err: checks.check_checkerboard(out, err, flags, emit, sample_ts),
              principal=principal, units=units)


def angle(rng: random.Random) -> str:
    return f"{rng.uniform(0.1, 1.4):.6f}"


def checkerboard_lattice(rng: random.Random, inputs: dict) -> list[Op]:
    sample_ts = {0, *rng.sample(range(1, 17), 3)}
    return [
        checkerboard_op("matrix-zero-csv", sample_ts, True, steps=250),
        checkerboard_op("matrix-theta-json", sample_ts, True, steps=200,
                        theta=angle(rng), initial="Q", emit="json"),
        checkerboard_op("matrix-mass-csv", sample_ts, True, steps=250,
                        mass=angle(rng), eps=f"{rng.uniform(0.5, 1.0):.4f}", initial="Q"),
        checkerboard_op("matrix-mass-svg", sample_ts, False, steps=250,
                        mass=angle(rng), eps="1.0", emit="svg"),
    ]


def paths(rng: random.Random, inputs: dict) -> list[Op]:
    every_t = set(range(19))

    def pathsum(name: str, steps: int, **flags) -> Op:
        # work: the 2^steps move strings the path sum enumerates
        return checkerboard_op(name, every_t, True, units=2**steps, steps=steps, **flags)

    def particle(name: str, state: bool, **flags) -> Op:
        argv = cli_args("particle", **flags)
        check = checks.check_particle_state if state else checks.check_particle_path
        return Op(name, argv, lambda out, err: check(out, flags))

    def rate() -> str:
        return f"{rng.randint(1, 60)}/{rng.randint(1, 9)}"

    def random_flags(length: int) -> list[str]:
        return [str(length), f"{rng.uniform(0.35, 0.65):.3f}", str(rng.randrange(10**6))]

    return [
        pathsum("pathsum-16-zero-csv", 16, method="pathsum"),
        pathsum("pathsum-17-theta-json", 17, method="pathsum", theta=angle(rng),
                initial="Q", emit="json"),
        pathsum("both-16-mass-json", 16, method="both", mass=angle(rng), eps="1.0",
                emit="json"),
        pathsum("both-18-zero-csv", 18, method="both", initial="Q"),
        particle("particle-random-path-csv", False, random=random_flags(12000),
                 dp=rate(), dq=rate(), emit="csv"),
        particle("particle-random-state-json", True, random=random_flags(10000),
                 initial_helicity="Q", dp=rate(), dq=rate(), events=rng.randint(50, 500)),
        particle("particle-counts-7000", True, counts="7000,7000", dp=rate(), dq=rate()),
        # Fails today: the state JSON holds binomial(14600, 7300), whose 4,395
        # digits exceed Python's int-to-string limit (exit 1).  Not seeded.
        particle("particle-counts-7300", True, counts="7300,7300"),
    ]


WORKLOADS = {
    "quantify-posets": quantify_posets,
    "checkerboard-lattice": checkerboard_lattice,
    "paths": paths,
}


# -- running operations ------------------------------------------------------------


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CAUSETKIT_OUTDIR", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], stdout_path: str, stderr_path: str, deadline: float):
    """Run one process to its end; return (wall s, max RSS KB, exit code or None)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        remaining = deadline - perf_counter()
        if remaining <= 1:
            return 0.0, 0, None
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Timeout:
            proc.kill()
            proc.wait()
            return perf_counter() - start, 0, None
        except BaseException:
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def run_op(op: Op, traced: bool, deadline: float, verdicts: dict) -> Outcome:
    """Run one operation and check its output.

    `verdicts` maps (operation, stdout digest, stderr) to (units, error) from
    an earlier check: identical output gets the same verdict, so later rounds
    spend their time running operations rather than re-parsing output.
    """
    base = os.path.join(WORK, "ops", op.name + (".traced" if traced else ""))
    trace_path = base + ".trace.json"
    if traced:
        cmd = [sys.executable, TRACED_CLI, trace_path, *op.argv]
    else:
        cmd = [sys.executable, "-m", "causetkit.cli", *op.argv]
    wall, rss_kb, code = spawn(cmd, base + ".out", base + ".err", deadline)
    with open(base + ".out", "rb") as fh:
        raw = fh.read()
    outcome = Outcome(wall, rss_kb, code, hashlib.sha256(raw).hexdigest())
    if traced and os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        outcome.trace = trace["functions"]
        # self times partition the root spans: every traced second counted once
        roots = sum(end - start for _, start, end, parent in trace["spans"] if parent < 0)
        selfs = sum(stats["s"] for stats in outcome.trace.values())
        if abs(roots - selfs) > 1e-6 * max(roots, 1.0):
            outcome.error = f"trace self times sum to {selfs} s, root spans to {roots} s"
    if code != 0:
        with open(base + ".err", encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        outcome.error = "timed out" if code is None else f"exit {code}: {tail[0][:200]}"
        return outcome
    with open(base + ".err", encoding="utf-8") as fh:
        stderr = fh.read()
    if outcome.error:
        return outcome
    key = (op.name, outcome.digest, stderr)
    if key not in verdicts:
        try:
            checked = op.check(raw.decode("utf-8"), stderr)
            verdicts[key] = (checked if op.units is None else op.units, None)
        except Exception as exc:  # any parse or check failure marks the output wrong
            verdicts[key] = (0, f"output check: {type(exc).__name__}: {exc}"[:300])
    outcome.units, outcome.error = verdicts[key]
    return outcome


def help_wall(deadline: float) -> float:
    """Wall time of one `causetkit --help` process: import, parser, exit."""
    path = os.path.join(WORK, "ops", "help")
    wall, _, code = spawn([sys.executable, "-m", "causetkit.cli", "--help"],
                          path + ".out", path + ".err", deadline)
    with open(path + ".out", encoding="utf-8") as fh:
        if code != 0 or not fh.read().startswith("usage: causetkit"):
            raise RuntimeError(f"causetkit --help failed (exit {code})")
    return wall


# -- metrics -----------------------------------------------------------------------

PER_LAYER = [
    ("poset.load_poset", "s"), ("poset.build_poset", "s"), ("poset.build_poset", "events"),
    ("poset.validate", "s"), ("poset.leq", "calls"),
    ("quantify.forward_project", "calls"), ("quantify.forward_project", "s"),
    ("quantify.backward_project", "calls"), ("quantify.backward_project", "s"),
    ("quantify.quantification_rows", "s"),
    ("checkerboard.step_field", "calls"), ("checkerboard.step_field", "s"),
    ("checkerboard.field_kernel", "calls"), ("checkerboard.field_kernel", "s"),
    ("checkerboard.born", "calls"),
    ("checkerboard.kernel_pathsum", "s"), ("checkerboard.kernel_pathsum", "paths"),
    ("checkerboard.kernel_discrepancy", "s"),
    ("kinematics.random_sequence", "s"), ("kinematics.sequence_to_path", "s"),
    ("kinematics.path_rows", "s"), ("kinematics.count_orderings", "s"),
    ("exact.sqrt_exact", "calls"), ("exact.sqrt_exact", "s"),
    ("cli.cmd_validate", "s"), ("cli.cmd_quantify", "s"), ("cli.cmd_particle", "s"),
    ("cli.cmd_checkerboard", "s"),
    ("cli.rows_to_csv", "s"), ("cli.rows_to_csv", "bytes"),
    ("cli.canonical_json", "s"), ("cli.canonical_json", "bytes"),
    ("cli.canonical_json", "exceptions"),
    ("cli.probability_svg", "s"),
]
UNITS = {"s": "s", "calls": "count", "events": "count", "paths": "count",
         "bytes": "bytes", "exceptions": "count"}


def round_layer_totals(outcomes: list[Outcome]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for outcome in outcomes:
        for fname, stats in outcome.trace.items():
            for stat, value in stats.items():
                key = f"{fname}.{stat}"
                totals[key] = totals.get(key, 0) + value
    return totals


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- main --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="causetkit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "causetkit", "cli.py")):
        print(f"error: no causetkit sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    deadline = perf_counter() + RUN_DEADLINE_S

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "ops"))
    rng = random.Random(f"{args.workload}/{args.seed}")
    inputs = {}
    if args.workload == "quantify-posets":
        inputs = gen_inputs.write_inputs(args.seed, os.path.join(WORK, "inputs"))
    ops = WORKLOADS[args.workload](rng, inputs)
    help_wall(deadline)  # the first run also writes bytecode caches
    # set-up samples are spread over the run so one burst of load elsewhere
    # on the machine cannot set the median
    setup_walls = [help_wall(deadline) for _ in range(SETUP_SAMPLES)]

    rounds: list[tuple[bool, list[Outcome]]] = []
    verdicts: dict = {}
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        began = perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            rounds.append((traced, [run_op(op, traced, deadline, verdicts) for op in ops]))
        setup_walls.append(help_wall(deadline))
        if any(o.returncode is None for _, outs in rounds for o in outs):
            break
        # stop rather than let the next round overrun the deadline
        now = perf_counter()
        if now + (now - began) > deadline:
            break

    correct = True
    reference = rounds[0][1]
    for traced, outcomes in rounds:
        for op, outcome, first in zip(ops, outcomes, reference):
            if outcome.returncode == 0 and outcome.error:
                correct = False
            if outcome.digest != first.digest:
                correct = False
                outcome.error = outcome.error or "stdout differs from the first untraced round"
    attempted = sum(len(outs) for _, outs in rounds)
    failed = sum(1 for _, outs in rounds for o in outs if o.error)

    untraced = [outs for t, outs in rounds if not t]

    def median_round(principal_only: bool = False) -> float:
        """Median over the untraced rounds of one round's summed operation wall
        times (of its principal operations only, if asked).  The median of
        whole rounds follows the machine's typical speed over the run; a burst
        of load elsewhere on the host slows a round or two and moves it little."""
        return statistics.median(
            sum(o.wall for op, o in zip(ops, outs) if op.principal or not principal_only)
            for outs in untraced)

    report(ops, rounds)
    if args.trace:
        traced_rounds = [round_layer_totals(outs) for t, outs in rounds if t]
        metrics = {}
        for fname, stat in PER_LAYER:
            key = f"{fname}.{stat}"
            metrics[key] = metric(statistics.median(r.get(key, 0) for r in traced_rounds),
                                  UNITS[stat])
        # each traced round follows an untraced round of the same operations;
        # pairing them cancels the machine's drift over the run
        overhead = statistics.median(
            sum(o.wall for o in traced_outs) - sum(o.wall for o in plain_outs)
            for (_, plain_outs), (_, traced_outs) in zip(rounds[::2], rounds[1::2]))
        metrics["trace.overhead_s"] = metric(overhead, "s")
        for key, value in metrics.items():
            print(f"  {key:40s} {value['value']:14.6g} {value['unit']}", file=sys.stderr)
    else:
        work = sum(o.units for op, o in zip(ops, reference) if op.principal)
        metrics = {
            "setup_s": metric(statistics.median(setup_walls), "s"),
            "wall_s": metric(median_round(), "s"),
            "peak_rss_mb": metric(max(o.rss_kb for outs in untraced for o in outs) / 1024, "MB"),
            "work_per_s": metric(work / median_round(principal_only=True), "1/s"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report(ops: list[Op], rounds) -> None:
    print(f"{len(rounds)} rounds of {len(ops)} operations", file=sys.stderr)
    for i, op in enumerate(ops):
        for traced in (False, True):
            outs = [outs[i] for t, outs in rounds if t == traced]
            if not outs:
                continue
            errors = sorted({o.error for o in outs if o.error})
            print(f"  {op.name + (' [traced]' if traced else ''):38s} "
                  f"fastest {min(o.wall for o in outs):8.4f} s  "
                  f"median {statistics.median(o.wall for o in outs):8.4f} s  "
                  f"rss {max(o.rss_kb for o in outs) / 1024:7.1f} MB  "
                  f"{errors[0] if errors else 'ok'}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
