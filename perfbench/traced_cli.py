"""Run the causetkit CLI with timing wrappers around its public functions.

    python3 perfbench/traced_cli.py TRACE.json <causetkit arguments...>

Behaves as `causetkit <arguments>` (same stdout, stderr and exit code) and
writes TRACE.json at exit:

- "functions": per wrapped function, as "<module>.<function>": calls, self
  time "s" (its time minus that of wrapped functions it called), exceptions
  raised, and a work count where one applies (bytes, events, paths).
- "spans": [name, start, end, parent index] for every call of a non
  per-element function, in start order; parent is -1 at the root.

Per-element functions (called once per poset element or lattice row) are
counted and timed but get no span.  Each wrapper replaces the function under
every name a causetkit module looks it up by, e.g. `cli.load_poset` as well
as `poset.load_poset`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import causetkit.cli
from causetkit import checkerboard, exact, kinematics, poset, quantify

PER_ELEMENT = {"poset.leq", "quantify.forward_project", "quantify.backward_project",
               "checkerboard.born"}

# wrapped function -> work count taken from (args, result)
COUNTS = {
    "poset.build_poset": ("events", lambda args, result: len(result.events)),
    "checkerboard.kernel_pathsum": ("paths", lambda args, result: 2 ** args[0]),
    "cli.rows_to_csv": ("bytes", lambda args, result: len(result.encode())),
    "cli.canonical_json": ("bytes", lambda args, result: len(result.encode())),
}

TARGETS = {
    poset: ["load_poset", "build_poset", "validate"],
    quantify: ["forward_project", "backward_project", "quantification_rows"],
    kinematics: ["random_sequence", "sequence_to_path", "path_rows", "count_orderings"],
    checkerboard: ["step_field", "field_kernel", "born", "kernel_pathsum",
                   "kernel_discrepancy"],
    exact: ["sqrt_exact"],
    causetkit.cli: ["main", "cmd_validate", "cmd_quantify", "cmd_particle",
                    "cmd_checkerboard", "rows_to_csv", "canonical_json",
                    "probability_svg"],
}


class Tracer:
    def __init__(self):
        self.functions: dict[str, dict] = {}
        self.spans: list[list] = []
        # one [span index, time spent in wrapped callees] per active call
        self.stack: list[list] = [[-1, 0.0]]

    def wrap(self, name: str, fn):
        stats = self.functions.setdefault(
            name, {"calls": 0, "s": 0.0, "exceptions": 0})
        count_key, count = COUNTS.get(name, (None, None))
        if count_key:
            stats[count_key] = 0
        stack, spans = self.stack, self.spans

        if name in PER_ELEMENT:
            def wrapper(*args, **kwargs):
                frame = [-1, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stats["exceptions"] += 1
                    raise
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    stack[-1][1] += elapsed
                    stats["calls"] += 1
                    stats["s"] += elapsed - frame[1]
            return wrapper

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1][0]]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            span[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats["exceptions"] += 1
                raise
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                stack[-1][1] += end - start
                stats["calls"] += 1
                stats["s"] += end - start - frame[1]
            if count_key:
                stats[count_key] += count(args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "causetkit" or key.startswith("causetkit.")]
        for module, names in TARGETS.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self.wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        # leq is a method: wrap it on the class every poset instance uses
        poset.CausalPoset.leq = self.wrap("poset.leq", poset.CausalPoset.leq)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.functions, "spans": self.spans}, fh)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return causetkit.cli.main(argv)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
