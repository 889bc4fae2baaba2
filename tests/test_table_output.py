"""Golden pins of `causetkit quantify` and `causetkit particle` output.

Each case pins the SHA-256 of stdout and checks that stderr is empty.  The
digests were taken from the implementation that built one Fraction per cell
and formatted it through `format_number`, so any faster writer must print
the same bytes.  The quantify cases cover one and two chains, a unit of 1
and of 3/7, CSV and JSON, absent projections, and event ids holding commas,
quotes, newlines and carriage returns; the particle cases cover the state
JSON and the path CSV of given, random and counted sequences.
"""

import contextlib
import csv
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causetkit
from causetkit import (
    ChainValuation,
    InfluenceSequence,
    build_poset,
    path_rows,
    quantification_rows,
    save_poset,
    sequence_to_path,
)
from causetkit.cli import canonical_json, main, rows_to_csv
from conftest import ladder_poset, random_valid_poset

SRC = os.path.dirname(os.path.dirname(causetkit.__file__))

ODD_P = ["p,0", 'p"1', "p\n2", "p\r3", "p 4"]
ODD_Q = ["q\t0", '"', ",", "ünï", "q\\4", "q5"]


def odd_ids_poset():
    """Ids CSV must quote, a chain name JSON must escape, and absent projections:
    nothing on Q lies above p3 or p 4, nothing on P below the first Q events,
    and chain R is influenced by nothing."""
    q = 'Q "odd"'
    events = [(e, "P") for e in ODD_P] + [(e, q) for e in ODD_Q] + [("r0", "R")]
    chains = {"P": ODD_P, q: ODD_Q, "R": ["r0"]}
    influence = [(ODD_P[0], ODD_Q[1]), (ODD_Q[0], ODD_P[2]), (ODD_P[2], ODD_Q[4])]
    return build_poset(events, chains, influence)


DOCUMENTS = {
    "ladder": (ladder_poset(n=30, offset=3), "P", "Q"),
    "odd": (odd_ids_poset(), "P", 'Q "odd"'),
}

QUANTIFY_GOLDEN = {
    ("ladder", 1, "1", "csv"):
        "be105e0a9cafa3522d9352dd95575e0d0b1e011f282a5b224ac9839c5c83c3ad",
    ("ladder", 1, "1", "json"):
        "bca3a93471d5a4692b30df211c646aeb60287152d6c81e3897ddc7c1b4bfd15d",
    ("ladder", 1, "3/7", "csv"):
        "69c0027c8924a6ec8d1684e1ba22b87adcbc6d31ff5216aa3b746d18fce48c24",
    ("ladder", 1, "3/7", "json"):
        "3f694b62c161076d4473186e21e55e032a1b2b99e78baa4de97192f24b1ac9e2",
    ("ladder", 2, "1", "csv"):
        "ed45ee68fc5f009bdfbdd1cde2832bea450a94294a80e5d93d30c1d2d128d1f2",
    ("ladder", 2, "1", "json"):
        "f3f30ff4196cc5feea51de56175954a1aea192e5ad4f9b1007d0506b4d12e358",
    ("ladder", 2, "3/7", "csv"):
        "fd1465f0ab2988ef06b2dffab3c93caeb021215cf2c10b29d21aadc14943d767",
    ("ladder", 2, "3/7", "json"):
        "8d1cec1076b6fc07a98c064b50ed6d0d993a0a0db8a61ae9adc729c4ff151064",
    ("odd", 1, "1", "csv"):
        "96a14135d05ee24c157e3963682fa594177334b6dc03f55449d6a8f56ec3532b",
    ("odd", 1, "1", "json"):
        "0228b10e87847510eb588f7fc786cec77a732865f57e6cc1a768dbf2033f30ec",
    ("odd", 1, "3/7", "csv"):
        "3aca745b12cd3f4fb93a1c11a995cf0851b9c279d9b97e0d66794a507d91cf21",
    ("odd", 1, "3/7", "json"):
        "e5a5285263bd661317f6476e52b14c47f2146ed1b4bfe4d7205d02ab1671ead8",
    ("odd", 2, "1", "csv"):
        "a2bbd58936a313ec8c91c03053b90fe2abc2ab48d7b7cc2c53cf3665ba44c5f5",
    ("odd", 2, "1", "json"):
        "b308530f00a08f7d4e413823c6b217d95b6e5fd8797ac0c8c00090c35baa1f7d",
    ("odd", 2, "3/7", "csv"):
        "982bd50e2703a6b459b755384876dd196889622a49e9b91975f4703b8c4557e4",
    ("odd", 2, "3/7", "json"):
        "4df7419b538af42c0fd42f75c08451e2b948445b0d14d64cc0f8489340d88127",
}

PARTICLE_GOLDEN = [
    (("--sequence", "PPQPQQQP"),
     "30230cdae3fde4ef4d437a3106d98f59ffb8b9eff7ee8200982c72b2a0e58fa2"),
    (("--sequence", "PPQPQQQP", "--emit", "csv"),
     "0922611055bd733ac08f05648435d0f0d651b9a259ffccd974a8509200e58aa5"),
    (("--sequence", "", "--emit", "csv"),
     "632eeb5bc190a71fcfa7fe6d4853813d9d9328678741c12ef2d6a8c5881053f8"),
    (("--sequence", "QQPQ", "--initial-helicity", "P", "--dp", "3/2", "--dq", "7/3",
      "--events", "10"),
     "d70a2d22f1926be9e92ae951b44e547e9d656bdb27c69d7bb5c852ae10d4938a"),
    (("--sequence", "QQPQ", "--initial-helicity", "P", "--emit", "csv"),
     "23b5800b33d4f6cfac970f57a1b3b4bd1965a23d467563f42f11e0861d0b3c16"),
    (("--random", "200", "0.4", "7", "--emit", "csv"),
     "1a6d91171cc8f647fef7c18bb27da08560dd036f86e3c21c3618a7cb2f204be1"),
    (("--random", "200", "0.4", "7", "--initial-helicity", "Q", "--dp", "5", "--dq", "2"),
     "76539ef745162053aeb5f9dae8eb9eada71626589ffc62aa2c282b286ac05629"),
    (("--counts", "3,2", "--dp", "5", "--dq", "2", "--events", "10"),
     "38b363d3d5e3ecaae7e1872a9e6c8e02f724d8e4dd304492b950428aaae64755"),
    (("--counts", "7300,7300"),
     "1485b094f21f10703bc155f16680845008d14eba40a541deb2704c7e5de64895"),
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def quantify_argv(tmp_path, document, n_chains, mu, emit):
    poset, chain, chain2 = DOCUMENTS[document]
    path = tmp_path / f"{document}.json"
    save_poset(poset, str(path))
    argv = ["quantify", str(path), "--chain", chain, "--mu", mu, "--emit", emit]
    if n_chains == 2:
        argv += ["--chain2", chain2]
    return argv


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "case, digest", QUANTIFY_GOLDEN.items(), ids=["-".join(map(str, c)) for c in QUANTIFY_GOLDEN]
)
def test_quantify_output_is_pinned(tmp_path, case, digest):
    code, out, err = run_main(quantify_argv(tmp_path, *case))
    assert (code, err) == (0, "")
    assert sha256(out) == digest


@pytest.mark.parametrize(
    "argv, digest", PARTICLE_GOLDEN, ids=[" ".join(argv) for argv, _ in PARTICLE_GOLDEN]
)
def test_particle_output_is_pinned(argv, digest):
    code, out, err = run_main(["particle", *argv])
    assert (code, err) == (0, "")
    assert sha256(out) == digest


@pytest.mark.parametrize("n_chains", [1, 2])
@pytest.mark.parametrize("mu", ["1", "3/7"])
def test_quantify_csv_reads_back(tmp_path, n_chains, mu):
    # every id comes back whole, carriage return included
    code, out, _ = run_main(quantify_argv(tmp_path, "odd", n_chains, mu, "csv"))
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert code == 0
    assert rows[0] == ["event_id", "p_fwd", "p_bwd", "q_fwd", "q_bwd", "t", "x"]
    assert [row[0] for row in rows[1:]] == list(DOCUMENTS["odd"][0].events)
    assert {len(row) for row in rows} == {7}


# -- delivery: --outdir writes what stdout prints, and nothing on an error --------

PARTICLE_ARGV = ["particle", "--sequence", "QQPQ", "--initial-helicity", "P",
                 "--dp", "3/2", "--dq", "7/3", "--events", "10"]
# per case: the command, and each artifact with the flags that print it
OUTDIR_CASES = {
    "particle": (PARTICLE_ARGV, {"particle_state.json": [],
                                 "particle_path.csv": ["--emit", "csv"]}),
    "quantify-csv": (None, {"quantify.csv": []}),
    "quantify-json": (None, {"quantify.json": []}),
    "checkerboard-csv": (["checkerboard", "--steps", "7", "--theta", "0.4"],
                         {"checkerboard.csv": []}),
    "checkerboard-json": (["checkerboard", "--steps", "7", "--emit", "json"],
                          {"checkerboard.json": []}),
    "checkerboard-svg": (["checkerboard", "--steps", "7", "--initial", "Q", "--emit", "svg"],
                         {"checkerboard.svg": []}),
}


@pytest.mark.parametrize("case", OUTDIR_CASES)
def test_outdir_artifacts_match_stdout(tmp_path, case):
    argv, artifacts = OUTDIR_CASES[case]
    if argv is None:  # quantify, with ids CSV must quote
        argv = quantify_argv(tmp_path, "odd", 2, "3/7", case.split("-")[1])
    outdir = tmp_path / "out"
    code, out, err = run_main([*argv, "--outdir", str(outdir)])
    assert (code, err) == (0, "")
    assert out.splitlines() == [str(outdir / name) for name in artifacts]
    for name, flags in artifacts.items():
        printed = run_main([*argv, *flags])[1]
        assert (outdir / name).read_bytes().decode("utf-8") == printed


def one_event_document(tmp_path) -> str:
    path = tmp_path / "one.json"
    save_poset(build_poset([("e0", "P")], {"P": ["e0"]}, []), str(path))
    return str(path)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        # only the JSON header's "mu" is past the float range: no cell is
        ([None, "--chain", "P", "--mu", "1e400", "--emit", "json"], 1),
        (["checkerboard", "--steps", "999"], 3),
        (["checkerboard", "--steps", "21", "--method", "both", "--emit", "json"], 3),
    ],
    ids=["quantify-mu-header", "checkerboard-row-cap", "checkerboard-pathsum-cap"],
)
def test_error_writes_nothing(tmp_path, argv, exit_code):
    if argv[0] is None:
        argv = ["quantify", one_event_document(tmp_path), *argv[1:]]
    outdir = tmp_path / "d"
    code, out, err = run_main([*argv, "--outdir", str(outdir)])
    assert (code, out) == (exit_code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not outdir.exists()


# a fresh interpreter that runs a command and prints its exit status and max RSS
RSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(status, usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
@pytest.mark.parametrize("emit", ["json", "svg"])
def test_checkerboard_streams_in_bounded_memory(emit):
    # A child's ru_maxrss carries over the RSS of the process that forked it,
    # so the command is started from a small launcher, not from this process.
    # Built whole, the JSON peaked at 226 MB and the SVG at 117 MB; written
    # slice by slice, ~31 MB and ~34 MB.
    cli = [sys.executable, "-m", "causetkit.cli", "checkerboard", "--steps", "600",
           "--emit", emit]
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", RSS_LAUNCHER, *cli], env=env,
                          capture_output=True, text=True, check=True)
    status, max_rss_kib = map(int, proc.stdout.split())
    assert status == 0
    assert max_rss_kib < 60 * 1024


# -- the writers against the general path, kept as the oracle ------------------


def reference_quantify(poset, chain, chain2, mu, emit) -> str:
    """`quantify` output the general way: Fraction rows from quantification_rows,
    serialised by rows_to_csv or canonical_json."""
    valuation_p = ChainValuation.from_poset(poset, chain, mu)
    valuation_q = ChainValuation.from_poset(poset, chain2, mu) if chain2 is not None else None
    rows = quantification_rows(poset, valuation_p, valuation_q)
    if emit == "csv":
        return rows_to_csv(rows, ["event_id", "p_fwd", "p_bwd", "q_fwd", "q_bwd", "t", "x"])
    return canonical_json({"chain": chain, "chain2": chain2, "mu": mu, "rows": rows}) + "\n"


@st.composite
def posets_with_odd_ids(draw):
    # the empty poset gives an empty "rows" and a CSV of only the header
    if draw(st.integers(0, 15)) == 0:
        return build_poset([], {"P": []}, [])
    poset = random_valid_poset(random.Random(draw(st.integers(0, 2**32))), max_events=24)
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=poset.n_events,
                          max_size=poset.n_events, unique=True))
    rename = dict(zip(poset.events, names))
    return build_poset(
        [(rename[e], poset.chain_of[e]) for e in poset.events],
        {c: [rename[e] for e in order] for c, order in poset.chains.items()},
        [(rename[a], rename[b]) for a, b in poset.influence_edges],
    )


HUGE = 10**400
units = st.one_of(
    st.fractions(max_denominator=50),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
    st.sampled_from([Fraction(0), Fraction(HUGE), Fraction(1, HUGE), Fraction(-3, 7),
                     Fraction(10**305), Fraction(HUGE + 1, HUGE - 1), Fraction(1, 10**320)]),
)


@settings(max_examples=150, deadline=None)
@given(poset=posets_with_odd_ids(), data=st.data(), mu=units,
       emit=st.sampled_from(["csv", "json"]))
def test_quantify_matches_the_fraction_rows(poset, data, mu, emit):
    chain = data.draw(st.sampled_from(sorted(poset.chains)))
    chain2 = data.draw(st.sampled_from([None, *sorted(poset.chains)]))
    try:
        expected = reference_quantify(poset, chain, chain2, mu, emit)
    except OverflowError:
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poset.json")
        save_poset(poset, path)
        # "--mu=" so that a negative unit does not read as an option
        argv = ["quantify", path, "--chain", chain, f"--mu={mu}", "--emit", emit]
        code, out, err = run_main(argv + (["--chain2", chain2] if chain2 else []))
    if expected is None:  # a coordinate past the largest float
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert (code, out, err) == (0, expected, "")


@settings(max_examples=100, deadline=None)
@given(moves=st.text(alphabet="PQ", max_size=300))
def test_path_csv_matches_the_fraction_rows(moves):
    path = sequence_to_path(InfluenceSequence.from_string(moves))
    expected = rows_to_csv(path_rows(path), ["step", "t", "x", "move", "beta", "helicity"])
    assert run_main(["particle", "--sequence", moves, "--emit", "csv"]) == (0, expected, "")
