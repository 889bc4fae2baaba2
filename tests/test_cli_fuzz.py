"""Fuzz of the command line: every input ends in a documented exit code.

Poset documents start from a valid ladder and are mutated (values of the
wrong type, missing keys, control characters, cycles, broken JSON text);
argv for every subcommand is drawn from valid and malformed tokens.  Each
run must exit 0, 1, 2 or 3 (argparse's usage errors among the 2s) without a
traceback, and `--emit json` output must parse.
"""

import json
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causetkit.cli import build_parser
from causetkit.poset import poset_document
from conftest import ladder_poset, run_cli

BASE_DOC = poset_document(ladder_poset(n=4, offset=1))

ODD_STRINGS = [
    "", "p0", "q1", "P", "Q", "zz", "line\nbreak", "ctl\x01\x7f", "\x00", "ünï", '"\\'
]

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.5, 1.0, -0.0, 1e308]),
    st.sampled_from(ODD_STRINGS),
    st.text(max_size=4),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(ODD_STRINGS), inner, max_size=3),
    ),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def poset_bytes(draw) -> bytes:
    """The base document with a few structural mutations, then maybe a raw one."""
    doc = json.loads(json.dumps(BASE_DOC))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["replace", "delete", "cycle", "rename"]))
        if kind == "cycle":
            edges = doc.get("influence")
            if isinstance(edges, list):
                # an earlier "replace" may have set any edge, not only the first, to null
                pairs = [edge for edge in edges if isinstance(edge, list)]
                if pairs:
                    edges.append(list(reversed(draw(st.sampled_from(pairs)))))
            continue
        paths = list(_paths(doc))
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        container = _at(doc, path)
        if kind == "replace":
            container[key] = draw(json_values)
        elif kind == "delete":
            del container[key]
        elif isinstance(container, dict):  # rename a key
            container[draw(st.sampled_from(ODD_STRINGS))] = container.pop(key)
        else:  # rename an event, chain or array element
            container[key] = draw(st.sampled_from(ODD_STRINGS))
    data = json.dumps(doc, ensure_ascii=draw(st.booleans())).encode()
    raw = draw(st.sampled_from(["none"] * 6 + ["truncate", "nest", "not-utf-8"]))
    if raw == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif raw == "nest":  # arrays nested past the interpreter's recursion limit
        depth = draw(st.sampled_from([1, 100_000]))
        data = b"[" * depth + data + b"]" * depth
    elif raw == "not-utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def tokens(*valid):
    """A flag value, valid or malformed."""
    malformed = ["", "-1", "0", "nan", "inf", "-inf", "1/0", "0/0", "abc", "1e308", "\x00", "2,x"]
    return st.one_of(st.sampled_from(valid), st.sampled_from(malformed))


def flags(required: dict, optional: dict) -> st.SearchStrategy[list[str]]:
    """The required options and any subset of the optional ones, in any order,
    each followed by its values."""
    picked = st.fixed_dictionaries(required, optional=optional)
    return picked.flatmap(
        lambda chosen: st.permutations(sorted(chosen)).map(
            lambda order: [token for name in order for token in [name, *chosen[name]]]
        )
    )


def one(strategy):
    return strategy.map(lambda value: [value])


EMIT = tokens("csv", "json", "text", "svg")

# per subcommand: (required options, optional options)
SUBCOMMANDS = {
    "validate": ({}, {"--emit": one(EMIT)}),
    "quantify": (
        {"--chain": one(tokens("P", "Q", "zz"))},
        {
            "--chain2": one(tokens("P", "Q")),
            "--mu": one(tokens("1", "1/2", "3", "-2", "0.25", "1e400", "1e-400")),
            "--emit": one(EMIT),
        },
    ),
    "particle": (
        {},
        {
            "--counts": one(tokens("3,2", "0,0", "1,4", "-1,2", "2")),
            "--sequence": one(tokens("PQP", "", "PPQQ", "PX")),
            "--random": st.tuples(
                tokens("5", "12"), tokens("0.5", "1", "1.5"), tokens("7", "99")
            ).map(list),
            "--initial-helicity": one(tokens("P", "Q")),
            "--dp": one(tokens("5", "3/2", "-2", "1e400", "1e-400")),
            "--dq": one(tokens("2", "7/3", "1e400", "1e-400")),
            "--events": one(tokens("10", "3")),
            "--emit": one(EMIT),
        },
    ),
    "checkerboard": (
        {"--steps": one(tokens("0", "3", "8", "12", "-3"))},
        {
            "--theta": one(tokens("0", "0.7", "1.5707963267948966", "3")),
            "--mass": one(tokens("0.4", "1", "1e308")),
            "--eps": one(tokens("0.5", "10")),
            "--initial": one(tokens("P", "Q")),
            "--method": one(tokens("matrix", "pathsum", "both")),
            "--cap": one(tokens("100", "4096", "1000000")),
            "--emit": one(EMIT),
        },
    ),
}

# subcommands whose first positional argument is a poset document
TAKES_POSET = {"validate", "quantify"}


@st.composite
def argvs(draw, command: str) -> list[str]:
    argv = [command, *draw(flags(*SUBCOMMANDS[command]))]
    if command in TAKES_POSET:
        argv.insert(1, "POSET")
    if draw(st.integers(0, 4)) == 0:  # drop a token, or add a stray one
        if len(argv) > 1 and draw(st.booleans()):
            del argv[draw(st.integers(1, len(argv) - 1))]
        else:
            stray = draw(st.sampled_from(["--bogus", "-h", "extra", "--emit"]))
            argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


def run_main(argv):
    code, out, err = run_cli(argv)
    # argparse's exits start with its usage line: on stdout for --help, on stderr on error
    exited = out.startswith("usage: ") or err.startswith("usage: ")
    emit = None if exited else build_parser().parse_args(argv).emit
    return code, emit, out, err


def check_run(command: list[str], data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/poset.json"
        with open(path, "wb") as fh:
            fh.write(data)
        argv = [path if token == "POSET" else token for token in command]
        code, emit, out, err = run_main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if emit == "json" and out:
        json.loads(out)


VALID_DOCUMENT = json.dumps(BASE_DOC).encode()
FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(command=st.sampled_from(sorted(SUBCOMMANDS)).flatmap(argvs))
def test_mutated_argv(command):
    check_run(command, VALID_DOCUMENT)


@FUZZ
@given(
    command=st.sampled_from([
        ["validate", "POSET"],
        ["validate", "POSET", "--emit", "json"],
        ["quantify", "POSET", "--chain", "P"],
        ["quantify", "POSET", "--chain", "Q", "--chain2", "P", "--emit", "json"],
    ]),
    data=poset_bytes(),
)
def test_mutated_documents(command, data):
    check_run(command, data)
