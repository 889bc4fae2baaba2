"""Output checks for the benchmark's operations.

Every check parses the artifact first (JSON with json.loads, CSV with the csv
module, SVG with ElementTree) and compares it against a value computed here,
apart from the program, or against a property the method must have.  A check
returns the work units it verified and raises CheckError on a mismatch.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import xml.etree.ElementTree as ET
from collections import defaultdict
from fractions import Fraction

# particle state JSON carries binomials with thousands of digits
sys.set_int_max_str_digits(0)

TOL = 1e-12

QUANTIFY_COLUMNS = ["event_id", "p_fwd", "p_bwd", "q_fwd", "q_bwd", "t", "x"]
KERNEL_COLUMNS = ["t", "x", "helicity", "amp_re", "amp_im", "probability"]
PATH_COLUMNS = ["step", "t", "x", "move", "beta", "helicity"]


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def parse_csv(text: str, columns: list[str]) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    expect(header == columns, f"CSV header {header!r}, expected {columns!r}")
    rows = []
    for cells in reader:
        expect(len(cells) == len(columns), f"CSV row has {len(cells)} cells")
        rows.append(dict(zip(columns, cells)))
    return rows


def _num(cell):
    """CSV cell -> float, or None for an empty (absent) cell."""
    return None if cell in ("", None) else float(cell)


# -- quantify ------------------------------------------------------------------


def projections(doc: dict, chain: str) -> tuple[dict, dict]:
    """Forward and backward projection indices onto `chain`, from reachability.

    fwd(v) is the least k with v <= c_k.  Because v <= c_k implies
    v <= c_{k+1}, fwd(v) is k when v = c_k and otherwise the least fwd over
    v's immediate successors; bwd is the dual over predecessors.  One pass
    in reverse topological order (forward) and one in order (backward).
    """
    succ: dict[str, list[str]] = defaultdict(list)
    pred: dict[str, list[str]] = defaultdict(list)
    for order in doc["chains"].values():
        for a, b in zip(order, order[1:]):
            succ[a].append(b)
            pred[b].append(a)
    for a, b in doc["influence"]:
        succ[a].append(b)
        pred[b].append(a)
    ids = [e["id"] for e in doc["events"]]
    indegree = {e: len(pred[e]) for e in ids}
    ready = [e for e in ids if indegree[e] == 0]
    topo = []
    while ready:
        v = ready.pop()
        topo.append(v)
        for t in succ[v]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    expect(len(topo) == len(ids), "generated document is cyclic")
    position = {e: k for k, e in enumerate(doc["chains"][chain])}
    fwd: dict[str, int | None] = {}
    for v in reversed(topo):
        found = [fwd[s] for s in succ[v] if fwd[s] is not None]
        fwd[v] = position[v] if v in position else min(found, default=None)
    bwd: dict[str, int | None] = {}
    for v in topo:
        found = [bwd[p] for p in pred[v] if bwd[p] is not None]
        bwd[v] = position[v] if v in position else max(found, default=None)
    return fwd, bwd


def ladder_projections(doc: dict, offset: int) -> dict[str, dict]:
    """Closed form for a two-chain ladder with offset k (chains P, Q).

    q_j projects forward onto P at j+k and backward at j-k (and p_j onto Q
    likewise); a projection outside the chain is absent.
    """
    n = len(doc["chains"]["P"])

    def inside(k):
        return k if 0 <= k < n else None

    expected = {}
    for e in doc["events"]:
        j = int(e["id"][1:])
        own = {"fwd": j, "bwd": j}
        other = {"fwd": inside(j + offset), "bwd": inside(j - offset)}
        on_p = e["chain"] == "P"
        expected[e["id"]] = {
            "p_fwd": own["fwd"] if on_p else other["fwd"],
            "p_bwd": own["bwd"] if on_p else other["bwd"],
            "q_fwd": other["fwd"] if on_p else own["fwd"],
            "q_bwd": other["bwd"] if on_p else own["bwd"],
        }
    return expected


def expected_quantify(doc: dict, facts: dict, coordinated: bool) -> dict[str, dict]:
    if "ladder_offset" in facts:
        table = ladder_projections(doc, facts["ladder_offset"])
    else:
        p_fwd, p_bwd = projections(doc, "P")
        q_fwd, q_bwd = projections(doc, "Q")
        table = {
            e: {"p_fwd": p_fwd[e], "p_bwd": p_bwd[e], "q_fwd": q_fwd[e], "q_bwd": q_bwd[e]}
            for e in p_fwd
        }
    for row in table.values():
        if not coordinated:
            row["q_fwd"] = row["q_bwd"] = None
        both = row["p_fwd"] is not None and row["q_fwd"] is not None
        row["t"] = (row["p_fwd"] + row["q_fwd"]) / 2 if coordinated and both else None
        row["x"] = (row["p_fwd"] - row["q_fwd"]) / 2 if coordinated and both else None
    return table


def check_chain_monotone(doc: dict, got: dict[str, dict]) -> None:
    """Along every chain, projections never decrease; absent forward
    projections form a tail and absent backward projections a head."""
    for order in doc["chains"].values():
        for key in ("p_fwd", "p_bwd", "q_fwd", "q_bwd"):
            values = [got[e][key] for e in order]
            present = [v for v in values if v is not None]
            expect(present == sorted(present), f"{key} not monotone along a chain")
            if key.endswith("fwd"):
                expect(values[: len(present)] == present, f"{key} absent before present")
            elif present:
                expect(values[len(values) - len(present):] == present,
                       f"{key} present before absent")


def check_quantify(text: str, doc: dict, facts: dict, coordinated: bool, emit: str) -> int:
    if emit == "json":
        parsed = json.loads(text)
        expect(parsed["chain"] == "P", "quantify JSON chain")
        expect(parsed["chain2"] == ("Q" if coordinated else None), "quantify JSON chain2")
        rows = parsed["rows"]
    else:
        rows = [{k: (v if k == "event_id" else _num(v)) for k, v in r.items()}
                for r in parse_csv(text, QUANTIFY_COLUMNS)]
    expect([r["event_id"] for r in rows] == [e["id"] for e in doc["events"]],
           "quantify rows do not list the document's events in order")
    expected = expected_quantify(doc, facts, coordinated)
    got = {}
    for row in rows:
        want = expected[row["event_id"]]
        for key, value in want.items():
            expect(row[key] == value,
                   f"{row['event_id']}.{key} = {row[key]!r}, expected {value!r}")
        got[row["event_id"]] = row
    check_chain_monotone(doc, got)
    return len(rows)


def check_validate(text: str, facts: dict) -> int:
    expect(text == f"ok: {facts['events']} events, {facts['chains']} chains\n",
           f"validate printed {text[:120]!r}")
    return facts["events"]


# -- checkerboard ----------------------------------------------------------------


def propagator_magnitudes(flags: dict) -> tuple[float, float]:
    if "theta" in flags:
        theta = float(flags["theta"])
        return math.cos(theta), math.sin(theta)
    if "mass" in flags:
        angle = float(flags["mass"]) * float(flags.get("eps", 1.0))
        return math.cos(angle), math.sin(angle)
    r = math.sqrt(0.5)
    return r, r


def _compositions(total: int, parts: int) -> int:
    """Ways to write `total` as an ordered sum of `parts` positive integers."""
    if parts == 0:
        return 1 if total == 0 else 0
    return math.comb(total - 1, parts - 1) if total >= parts else 0


def closed_form_amplitude(steps: int, x: int, initial: str, final: str,
                          a: float, b: float) -> complex:
    """Kernel amplitude as a sum over move strings grouped by reversal count.

    A move string is a sequence of r runs that alternate direction.  With the
    first run in direction f and the last in `final`, the P- and Q-runs split
    the (steps+x)/2 P-moves and (steps-x)/2 Q-moves into positive parts,
    counted by binomials; the string has R = (r-1) + [f != initial]
    reversals and weight a^(steps-R) (i b)^R in the canonical gauge.
    """
    if steps == 0:
        return complex(1.0 if (x == 0 and final == initial) else 0.0)
    if (steps + x) % 2 or abs(x) > steps:
        return 0j
    moves = {"P": (steps + x) // 2, "Q": (steps - x) // 2}
    re_terms, im_terms = [], []
    for first in "PQ":
        other = "Q" if first == "P" else "P"
        for runs in range(1, steps + 1):
            if (runs % 2 == 1) != (first == final):
                continue
            first_runs = (runs + 1) // 2
            count = (_compositions(moves[first], first_runs)
                     * _compositions(moves[other], runs - first_runs))
            if not count:
                continue
            reversals = runs - 1 + (first != initial)
            magnitude = count * a ** (steps - reversals) * b ** reversals
            phase = reversals % 4
            (re_terms if phase % 2 == 0 else im_terms).append(
                magnitude if phase < 2 else -magnitude)
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def check_kernel_rows(rows: list[dict], flags: dict, first_t: int, sample_ts) -> int:
    """Light cone and Born normalisation per slice; closed form at sampled t."""
    steps = int(flags["steps"])
    initial = flags.get("initial", "P")
    a, b = propagator_magnitudes(flags)
    slices: dict[int, list[float]] = defaultdict(list)
    for row in rows:
        t, x = int(row["t"]), int(row["x"])
        expect(abs(x) <= t and (x - t) % 2 == 0, f"row (t={t}, x={x}) outside the light cone")
        expect(row["helicity"] in ("P", "Q"), "helicity")
        re, im, prob = float(row["amp_re"]), float(row["amp_im"]), float(row["probability"])
        expect(abs(prob - (re * re + im * im)) <= 1e-15, f"Born rule at (t={t}, x={x})")
        slices[t].append(prob)
        if t in sample_ts:
            want = closed_form_amplitude(t, x, initial, row["helicity"], a, b)
            expect(abs(complex(re, im) - want) <= TOL,
                   f"amplitude at (t={t}, x={x}, {row['helicity']}) is {complex(re, im)}, "
                   f"closed form {want}")
    expect(sorted(slices) == list(range(first_t, steps + 1)), "missing time slices")
    for t, probs in slices.items():
        expect(abs(math.fsum(probs) - 1.0) <= TOL, f"probability at t={t} sums to {math.fsum(probs)}")
    return len(rows)


def check_checkerboard(text: str, stderr: str, flags: dict, emit: str, sample_ts) -> int:
    method = flags.get("method", "matrix")
    first_t = int(flags["steps"]) if method == "pathsum" else 0
    if emit == "svg":
        return check_svg(text, flags)
    if emit == "json":
        doc = json.loads(text)
        a, b = propagator_magnitudes(flags)
        expect(doc["steps"] == int(flags["steps"]) and doc["method"] == method, "JSON header")
        expect(doc["initial_helicity"] == flags.get("initial", "P"), "JSON initial helicity")
        expect(abs(doc["a"] - a) <= 1e-15 and abs(doc["b"] - b) <= 1e-15, "JSON propagators")
        rows = doc["rows"]
        discrepancy = doc.get("max_discrepancy")
    else:
        rows = parse_csv(text, KERNEL_COLUMNS)
        discrepancy = None
        for line in stderr.splitlines():
            if line.startswith("max_discrepancy "):
                discrepancy = float(line.split()[1])
    if method == "both":
        expect(discrepancy is not None and discrepancy <= TOL,
               f"max_discrepancy {discrepancy!r}")
    return check_kernel_rows(rows, flags, first_t, sample_ts)


def check_svg(text: str, flags: dict) -> int:
    root = ET.fromstring(text)
    slices: dict[int, list[float]] = {}
    current = None
    for el in root:
        tag = el.tag.rsplit("}", 1)[-1]
        if tag == "text":
            current = int(el.text.removeprefix("t="))
            slices[current] = []
        elif tag == "rect":
            title = next(iter(el)).text
            x_part, p_part = title.split()
            x, p = int(x_part.removeprefix("x=")), float(p_part.removeprefix("p="))
            expect(abs(x) <= current and (x - current) % 2 == 0, "SVG bar outside the light cone")
            slices[current].append(p)
    steps = int(flags["steps"])
    expect(sorted(slices) == list(range(steps + 1)), "SVG time slices")
    for t, probs in slices.items():
        expect(abs(math.fsum(probs) - 1.0) <= TOL, f"SVG probability at t={t}")
    return 0


# -- particle --------------------------------------------------------------------


def check_particle_state(text: str, flags: dict) -> int:
    state = json.loads(text)
    n_p, n_q = state["counts"]["P"], state["counts"]["Q"]
    if "counts" in flags:
        expect(f"{n_p},{n_q}" == flags["counts"], "counts")
    if "sequence" in state:
        seq = state["sequence"]
        expect(len(seq) == int(flags["random"][0]), "sequence length")
        expect((seq.count("P"), seq.count("Q")) == (n_p, n_q), "counts vs sequence")
    expect(state["orderings"] == math.comb(n_p + n_q, n_p), "orderings != binomial")
    if "dp" in flags:
        n = int(flags.get("events", n_p + n_q))
        r_p = Fraction(n) / Fraction(flags["dp"])
        r_q = Fraction(n) / Fraction(flags["dq"])
        kin = state["kinematics"]
        energy, momentum = (r_p + r_q) / 2, (r_q - r_p) / 2
        exact = {"rP": r_p, "rQ": r_q, "E": energy, "p": momentum, "beta": momentum / energy}
        for key, value in exact.items():
            expect(kin[key] == float(value), f"{key} = {kin[key]!r}, expected {float(value)!r}")
        mass = math.sqrt(float(r_p * r_q))
        expect(abs(kin["M"] - mass) <= TOL * mass, f"M = {kin['M']!r}, expected {mass!r}")
    return 0


def check_particle_path(text: str, flags: dict) -> int:
    rows = parse_csv(text, PATH_COLUMNS)
    n = int(flags["random"][0])
    expect(len(rows) == n + 1, "path rows")
    t = x = Fraction(0)
    n_p = 0
    for i, row in enumerate(rows):
        expect(int(row["step"]) == i, "path step")
        if i:
            move = row["move"]
            expect(move in ("P", "Q") and row["helicity"] == move, "path move")
            expect(int(row["beta"]) == (1 if move == "P" else -1), "path beta")
            n_p += move == "P"
            t += Fraction(1, 2)
            x += Fraction(1, 2) if move == "P" else Fraction(-1, 2)
        expect(float(row["t"]) == t and float(row["x"]) == x, f"path point at step {i}")
    expect((t, x) == (Fraction(n, 2), Fraction(n_p - (n - n_p), 2)), "path endpoint")
    return 0
