"""Command-line front end: poset validation, quantification tables, particle
paths and kinematics, and checkerboard kernels.

All output is deterministic for fixed inputs, flags and seed.  Exit codes:
0 success, 1 domain violation, 2 I/O or parse error, 3 resource cap exceeded
or out of memory.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
import warnings
from typing import TYPE_CHECKING, Iterable, Iterator

from . import DEFAULT_ENUMERATION_CAP
from .errors import CapExceededError, CausetkitError, SchemaError

if TYPE_CHECKING:
    from fractions import Fraction

_PARTICLE_NOTES = (
    "Conventions: a P-move steps +1/2 in x with segment beta = +1, a Q-move "
    "steps -1/2 with beta = -1.  Momentum is p = (rQ - rP)/2, so a particle "
    "that influences chain P more often carries negative momentum and "
    "negative beta = p/E."
)

_CHECKERBOARD_NOTES = (
    "The lattice uses one integer site step per time step (P -> +1, Q -> -1); "
    "half-unit spacetime coordinates are recovered as (t, x) = (step/2, site/2). "
    "Propagator magnitudes come from --theta as (cos, sin), or from --mass and "
    "--eps as (cos(m*eps), sin(m*eps))."
)


# -- deterministic serialization ----------------------------------------------


def format_number(value) -> str:
    """Fixed 17-significant-digit float formatting for golden-file stability."""
    if isinstance(value, int):
        try:
            return str(value)
        except ValueError:  # past 4,300 digits; Decimal is exact and unlimited
            import decimal

            return str(decimal.Decimal(value))
    return format(float(value), ".17g")


def canonical_json(obj) -> str:
    """JSON with sorted keys and fixed float formatting."""
    return _json(obj)


def _json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        # the string encoder of json.dumps(obj, ensure_ascii=False)
        from json.encoder import encode_basestring

        return encode_basestring(obj)
    if isinstance(obj, (int, float)):
        return format_number(obj)
    if isinstance(obj, dict):
        pairs = (f"{_json(str(key))}: {_json(obj[key])}" for key in sorted(obj))
        return "{" + ", ".join(pairs) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json, obj)) + "]"
    # the one other value a command writes: quantify's --mu
    from fractions import Fraction

    if not isinstance(obj, Fraction):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return format_number(obj)


def _csv_cell(value) -> str:
    """None is an empty cell, numbers go through format_number, and text that
    holds a comma, a quote, a newline or a carriage return is quoted."""
    if value is None:
        return ""
    if not isinstance(value, str):
        return format_number(value)
    if any(c in value for c in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    """CSV of row dicts, one "\n"-terminated line per row and a header line.

    The commands write their tables from integer columns instead; this is the
    general path, and the reference their bytes are tested against.
    """
    lines = [columns, *([row.get(c) for c in columns] for row in rows)]
    return "".join(",".join(map(_csv_cell, line)) + "\n" for line in lines)


# -- SVG (optional decoration) --------------------------------------------------


def probability_svg(slices) -> Iterator[str]:
    """Bar chart of Born probability vs position, one band per (step,
    KernelColumns) slice, as text chunks.

    The header needs the extent of every slice, so the first chunk reads them
    all, keeping each as its per-position totals; each band after it is
    formatted when its chunk is asked for.
    """
    from array import array

    bar, band = 8, 64
    totals = []
    for step, cols in slices:
        # positions are sorted: P + Q of one site are neighbours; arrays hold
        # every slice's totals in 16 bytes per position
        xs, ps, last = array("q"), array("d"), None
        for x, p in zip(cols.positions, cols.probabilities):
            if x == last:
                ps[-1] += p
            else:
                xs.append(x)
                ps.append(p)
                last = x
        totals.append((step, xs, ps))
    lo = min(xs[0] for _, xs, _ in totals)
    hi = max(xs[-1] for _, xs, _ in totals)
    width = (hi - lo + 1) * bar + 80
    height = band * len(totals) + 20
    yield f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
    for i, (step, xs, ps) in enumerate(totals, start=1):
        base = i * band
        # round() rounds half to even
        heights = [max(1, round(p * (band - 14))) for p in ps]
        bars = [
            f'<rect x="{60 + (x - lo) * bar}" y="{base - h}" width="{bar - 1}" height="{h}" '
            f'fill="#336699"><title>x={x} p={p:.17g}</title></rect>\n'
            for x, p, h in zip(xs, ps, heights)
        ]
        yield f'<text x="4" y="{base - band // 2}" font-size="10">t={step}</text>\n' + "".join(bars)
    yield "</svg>\n"


# -- output plumbing -------------------------------------------------------------


def _deliver(args, artifacts: dict[str, Iterable[str]], primary: str) -> None:
    """Write all artifacts into the output directory, or print the primary one.

    An artifact is an iterable of text chunks, built only as it is written, so
    every check belongs before this call.  A file is written under a temporary
    name and renamed into place once whole, so a failed write leaves nothing.
    """
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for name, chunks in artifacts.items():
            path = os.path.join(args.outdir, name)
            partial = os.path.join(args.outdir, f".{name}.{os.getpid()}.partial")
            try:
                with open(partial, "w", encoding="utf-8") as fh:
                    fh.writelines(chunks)
                os.replace(partial, path)
            finally:
                if os.path.exists(partial):  # the write failed
                    os.unlink(partial)
            print(path)
    else:
        sys.stdout.writelines(artifacts[primary])


def _json_document(doc: dict, groups: Iterable[str]) -> Iterator[str]:
    """canonical_json(doc) + "\n" in chunks, doc["rows"] being the JSON rows
    that `groups` holds as texts of rows joined by ", ", one chunk per text;
    only the first text may be empty.  The document and the first text are
    formatted now, so errors precede output.
    """
    head, _, tail = canonical_json({**doc, "rows": []}).partition('"rows": []')
    groups = iter(groups)
    first = head + '"rows": [' + next(groups, "")
    return itertools.chain([first], (", " + group for group in groups), ["]" + tail + "\n"])


# -- commands ---------------------------------------------------------------------


def cmd_validate(args) -> int:
    from .poset import load_poset, validate

    poset = load_poset(args.poset)
    report = validate(poset)
    if args.emit == "json":
        doc = {
            "ok": report.ok,
            "violations": [
                {"rule": v.rule, "message": v.message, "events": list(v.events)}
                for v in report.violations
            ],
        }
        print(canonical_json(doc))
    else:
        if report.ok:
            print(f"ok: {poset.n_events} events, {len(poset.chains)} chains")
        for v in report.violations:
            print(f"violation[{v.rule}]: {v.message}")
    return 0 if report.ok else 1


def _fraction(text: str, flag: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # "1/0" raises the latter
        raise ValueError(f"{flag} expects a rational number such as 3/2, got {text!r}") from None


_QUANTIFY_COLUMNS = ["event_id", "p_fwd", "p_bwd", "q_fwd", "q_bwd", "t", "x"]
# one JSON row, keys in sorted order
_QUANTIFY_JSON_ROW = (
    '{"event_id": %s, "p_bwd": %s, "p_fwd": %s, "q_bwd": %s, "q_fwd": %s, "t": %s, "x": %s}'
)


def _quantify_columns(poset, chain: str, chain2: str | None, mu: Fraction, absent: str):
    """The p_fwd, p_bwd, q_fwd, q_bwd, t and x cells of `quantify`, one list each.

    Every coordinate is s*mu/2 for an integer s: s = 2k for a projection at
    chain position k, and kp + kq or kp - kq for t and x.  With mu = a/b the
    cell is '%.17g' % (s*a/(2*b)), which is what format_number prints for the
    Fraction s*mu/2, because int/int division rounds correctly.  A missing
    projection gives `absent`.
    """
    p_fwd, p_bwd = (poset._projection_positions(chain, side) for side in (0, 1))
    q_fwd = q_bwd = [None] * poset.n_events
    n_p, n_q = len(poset.chains[chain]), 0
    if chain2 is not None:
        q_fwd, q_bwd = (poset._projection_positions(chain2, side) for side in (0, 1))
        n_q = len(poset.chains[chain2])
    # each s that can occur and none larger than the largest that does, so
    # mu overflows a float here only if it overflows in a printed cell
    a, b = mu.numerator, mu.denominator
    cell = {s: "%.17g" % (s * a / (2 * b)) for s in range(min(0, 1 - n_q), 2 * max(n_p, n_q) - 1)}
    projection = {k: cell[2 * k] for k in range(max(n_p, n_q))}
    projection[None] = absent
    columns = [list(map(projection.__getitem__, ks)) for ks in (p_fwd, p_bwd, q_fwd, q_bwd)]
    pairs = list(zip(p_fwd, q_fwd))
    for sign in (1, -1):
        columns.append(
            [absent if kp is None or kq is None else cell[kp + sign * kq] for kp, kq in pairs]
        )
    return columns


def cmd_quantify(args) -> int:
    from .poset import load_poset

    poset = load_poset(args.poset)
    mu = _fraction(args.mu, "--mu")
    absent = "null" if args.emit == "json" else ""
    columns = _quantify_columns(poset, args.chain, args.chain2, mu, absent)
    if args.emit == "json":
        p_fwd, p_bwd, q_fwd, q_bwd, t, x = columns
        from json.encoder import encode_basestring

        ids = map(encode_basestring, poset.events)
        rows = map(_QUANTIFY_JSON_ROW.__mod__, zip(ids, p_bwd, p_fwd, q_bwd, q_fwd, t, x))
        doc = {"chain": args.chain, "chain2": args.chain2, "mu": mu}
        chunks = _json_document(doc, [", ".join(rows)])
    else:
        lines = [_QUANTIFY_COLUMNS, *zip(map(_csv_cell, poset.events), *columns)]
        chunks = ["\n".join(map(",".join, lines)) + "\n"]
    _deliver(args, {f"quantify.{args.emit}": chunks}, f"quantify.{args.emit}")
    return 0


def _parse_counts(text: str) -> tuple[int, int]:
    try:
        p, q = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--counts expects 'P,Q' integers, got {text!r}") from None
    return p, q


def _parse_random(values: list[str]) -> tuple[int, float, int]:
    try:
        return int(values[0]), float(values[1]), int(values[2])
    except ValueError:
        raise ValueError(
            f"--random expects LENGTH PROB_P SEED (int, float, int), got {' '.join(values)!r}"
        ) from None


# the most moves `particle` takes, checked before any work, as the count of
# orderings, the sequence and the path CSV all grow with it: as processes on a
# 2-core x86-64 VM, 100,000 moves take 0.3-0.6 s, 200,000 of --counts 0.9 s and
# 10^6 of --random 14 s
_PARTICLE_MOVE_CAP = 100_000


def _check_move_count(flag: str, moves: int) -> None:
    if moves > _PARTICLE_MOVE_CAP:
        raise CapExceededError(
            f"{flag} asks for more than the cap of {_PARTICLE_MOVE_CAP} moves"
        )


# the cells after t and x of a path CSV row, by move
_PATH_MOVE_CELLS = {"P": "P,1,P", "Q": "Q,-1,Q"}


def _path_csv(seq) -> Iterator[str]:
    """`particle`'s path CSV, built when consumed: point i sits at (t, x) =
    (i/2, h/2) for its half-unit position h, and '%.17g' % (n/2) prints what
    format_number prints for the Fraction n/2."""
    from .kinematics import half_unit_positions

    rows = [
        "%d,%.17g,%.17g,%s\n" % (i, i / 2, h / 2, _PATH_MOVE_CELLS[move])
        for i, (move, h) in enumerate(zip(seq.moves, half_unit_positions(seq)[1:]), start=1)
    ]
    yield "step,t,x,move,beta,helicity\n0,0,0,,,\n" + "".join(rows)


def cmd_particle(args) -> int:
    from . import kinematics as kin

    sources = [s for s in (args.counts, args.sequence, args.random) if s is not None]
    if not sources:
        raise ValueError("one of --counts, --sequence or --random is required")
    if len(sources) > 1:
        raise ValueError("--counts, --sequence and --random are mutually exclusive")

    seq = None
    seed = None
    if args.sequence is not None:
        _check_move_count("--sequence", len(args.sequence))
        seq = kin.InfluenceSequence.from_string(args.sequence)
        counts = seq.counts()
    elif args.random is not None:
        length, prob_p, seed = _parse_random(args.random)
        _check_move_count("--random", length)
        seq = kin.random_sequence(length, prob_p, seed)
        counts = seq.counts()
    else:
        counts = kin.UnorderedInfluenceCount(*_parse_counts(args.counts))
        _check_move_count("--counts", counts.P + counts.Q)

    # a path CSV printed alone leaves the state JSON, and its orderings count, unbuilt
    state_written = seq is None or args.emit != "csv" or args.outdir
    state: dict = {"counts": {"P": counts.P, "Q": counts.Q}}
    if state_written:
        state["orderings"] = kin.count_orderings(counts)
    if seq is not None:
        state["sequence"] = str(seq)
    if seed is not None:
        state["seed"] = seed
    if args.dp is not None or args.dq is not None:
        if args.dp is None or args.dq is None:
            raise ValueError("--dp and --dq must be given together")
        n_events = args.events if args.events is not None else counts.P + counts.Q
        r_p, r_q = kin.rates(n_events, _fraction(args.dp, "--dp"), _fraction(args.dq, "--dq"))
        ks = kin.kinematic_state(r_p, r_q)
        state["kinematics"] = {
            "rP": float(r_p),
            "rQ": float(r_q),
            "M": float(ks.mass),
            "E": float(ks.energy),
            "p": float(ks.momentum),
            "beta": float(ks.beta),
        }

    if args.emit == "csv" and seq is None:
        raise ValueError("path CSV requires --sequence or --random")
    artifacts = {"particle_state.json": [canonical_json(state) + "\n"]} if state_written else {}
    if seq is not None:
        artifacts["particle_path.csv"] = _path_csv(seq)
    _deliver(args, artifacts, "particle_path.csv" if args.emit == "csv" else "particle_state.json")
    return 0


# one row per (t, x, helicity); '%.17g' prints the same digits as format_number
_KERNEL_CSV_ROW = "%d,%d,%s,%.17g,%.17g,%.17g\n"
_KERNEL_JSON_ROW = (
    '{"amp_im": %.17g, "amp_re": %.17g, "helicity": "%s", '
    '"probability": %.17g, "t": %d, "x": %d}'
)


def cmd_checkerboard(args) -> int:
    from . import checkerboard as cb

    if args.theta is not None:
        if args.mass is not None or args.eps is not None:
            raise ValueError("--theta and --mass/--eps are mutually exclusive")
        pp = cb.propagators_from_theta(args.theta)
    elif args.mass is not None:
        pp = cb.propagators_from_mass(args.mass, args.eps if args.eps is not None else 1.0)
    elif args.eps is not None:
        raise ValueError("--eps requires --mass")
    else:
        pp = cb.zero_momentum_propagators()

    steps = args.steps
    doc = {"steps": steps, "a": pp.a, "b": pp.b, "initial_helicity": args.initial,
           "method": args.method, "tolerance": cb._TOL}
    # items are (t, source) slices, and columns(source) their KernelColumns
    if args.method != "pathsum":
        # slice t holds at most 2(t+1) rows
        row_bound = (steps + 1) * (steps + 2)
        if row_bound > args.cap:
            raise CapExceededError(
                f"the matrix method writes up to {row_bound} rows for {steps} steps, "
                f"over the cap of {args.cap}"
            )
        # the point source is allocated here, before any output, and the
        # fields are stepped as the writer reads each slice
        try:
            fields = cb._stepped_fields(steps, pp, args.initial)
        except (MemoryError, OverflowError):
            raise CapExceededError(
                f"--steps {steps} needs a lattice too large to allocate"
            ) from None
        items, columns = enumerate(fields), cb.KernelColumns.from_field
    if args.method != "matrix":
        pathsum = cb.kernel_pathsum(steps, pp, args.initial, cap=args.cap)
        if args.method == "pathsum":
            items, columns = [(steps, pathsum)], cb.KernelColumns.from_kernel
        else:
            # the path-sum cap bounds steps, so every field fits; the last is kernel_matrix's
            items = list(items)
            discrepancy = cb.kernel_discrepancy(cb.field_kernel(items[-1][1]), pathsum)
            if args.emit == "json":
                doc["max_discrepancy"] = discrepancy
            else:
                print(f"max_discrepancy {format_number(discrepancy)}", file=sys.stderr)

    primary = f"checkerboard.{args.emit}"
    if args.emit == "svg":
        chunks = probability_svg((t, columns(source)) for t, source in items)
    else:

        def text(item) -> str:
            t, source = item
            return _slice_text(t, columns(source), args.emit)

        mapper = map
        if args.method == "matrix" and row_bound >= _FORK_ROW_BOUND:
            from ._forked import forked_map as mapper
        texts = mapper(text, items)
        if args.emit == "json":
            chunks = _json_document(doc, texts)
        else:
            chunks = itertools.chain(["t,x,helicity,amp_re,amp_im,probability\n"], texts)
    _deliver(args, {primary: chunks}, primary)
    return 0


def _slice_text(step: int, cols, emit: str) -> str:
    """A (step, KernelColumns) slice's CSV rows concatenated, or its JSON rows
    joined by ", "."""
    t, x, helicity = itertools.repeat(step), cols.positions, cols.helicities
    re, im = [a.real for a in cols.amplitudes], [a.imag for a in cols.amplitudes]
    probability = cols.probabilities
    if emit == "json":
        return ", ".join(map(_KERNEL_JSON_ROW.__mod__, zip(im, re, helicity, probability, t, x)))
    return "".join(map(_KERNEL_CSV_ROW.__mod__, zip(t, x, helicity, re, im, probability)))


# the row bound from which `checkerboard --method matrix` formats CSV and JSON
# in two processes (180 steps, 32,942 rows).  As fresh processes on a 2-core
# x86-64 VM with both cores free, forking (forced below the bound) was 7-13 ms
# slower at 6 and 40 steps, 2-6% faster at 100, 14-16% faster at 150, and 22%
# and 29% faster at 180 and 250 steps.  It stays here because the gain needs a
# free second CPU, and where other work keeps it busy two processes are
# slower than one; no benchmark workload runs the matrix method below it
_FORK_ROW_BOUND = 2**15


# -- parser -------------------------------------------------------------------------


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causetkit",
        description="Causal posets quantified by observer chains, and the "
        "checkerboard amplitude calculus built on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a poset document against the ordering rules")
    p_val.add_argument("poset", help="poset document (JSON)")
    p_val.add_argument("--emit", choices=["text", "json"], default="text")
    p_val.set_defaults(func=cmd_validate)

    p_q = sub.add_parser(
        "quantify",
        help="chain-based coordinates for every event",
        description="Single-chain mode emits forward/backward projection pairs; "
        "adding --chain2 emits coordinated (t, x) coordinates.",
    )
    p_q.add_argument("poset")
    p_q.add_argument("--chain", required=True, help="observer chain id")
    p_q.add_argument("--chain2", default=None, help="second coordinated chain id")
    p_q.add_argument("--mu", default="1", help="unit of measure along the chains")
    p_q.add_argument("--emit", choices=["csv", "json"], default="csv")
    p_q.add_argument("--outdir", default=None)
    p_q.set_defaults(func=cmd_quantify)

    p_p = sub.add_parser(
        "particle",
        help="influence sequences, zig-zag paths and rate kinematics",
        description=_PARTICLE_NOTES,
    )
    p_p.add_argument("--counts", default=None, metavar="P,Q", help="unordered move counts")
    p_p.add_argument("--sequence", default=None, metavar="MOVES", help="move string, e.g. PPQPQ")
    p_p.add_argument(
        "--random",
        nargs=3,
        default=None,
        metavar=("LENGTH", "PROB_P", "SEED"),
        help="seed-deterministic random sequence",
    )
    p_p.add_argument("--initial-helicity", choices=["P", "Q"], default=None,
                     help="accepted for compatibility; changes no particle output")
    p_p.add_argument("--dp", default=None, help="projected interval length on chain P")
    p_p.add_argument("--dq", default=None, help="projected interval length on chain Q")
    p_p.add_argument("--events", type=int, default=None, help="event count for rates")
    p_p.add_argument("--emit", choices=["json", "csv"], default="json")
    p_p.add_argument("--outdir", default=None)
    p_p.set_defaults(func=cmd_particle)

    p_c = sub.add_parser(
        "checkerboard",
        help="propagator kernels by path sum or transfer matrix",
        description=_CHECKERBOARD_NOTES,
    )
    p_c.add_argument("--steps", type=nonnegative_int, required=True)
    p_c.add_argument("--theta", type=float, default=None, help="(a, b) = (cos, sin) of theta")
    p_c.add_argument("--mass", type=float, default=None)
    p_c.add_argument("--eps", type=float, default=None, help="time step of --mass (default 1.0)")
    p_c.add_argument("--initial", choices=["P", "Q"], default="P", help="initial helicity")
    p_c.add_argument("--method", choices=["matrix", "pathsum", "both"], default="matrix")
    p_c.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                     help="most move strings for pathsum, most rows for matrix")
    p_c.add_argument("--emit", choices=["csv", "json", "svg"], default="csv")
    p_c.add_argument("--outdir", default=None)
    p_c.set_defaults(func=cmd_checkerboard)

    # argparse reads only -2 and -0.5 style tokens as values; no option starts
    # with a digit, inf or nan, so -3/2, -1e-3, -.5, -inf and -NaN are values too
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its help or usage error
        return exc.code
    with warnings.catch_warnings():
        # one line per warning, without the library's file name and source line
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except CapExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except MemoryError:  # the last resort for work that no cap bounds
            print(f"error: {args.command} ran out of memory", file=sys.stderr)
            return 3
        except (SchemaError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (CausetkitError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OverflowError as exc:  # e.g. --mu 1e400 puts coordinates past the largest float
            print(f"error: a value exceeds the float range: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
