"""Command-line behavior: exit codes, deterministic CSV/JSON, artifacts."""

import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from causetkit import ChainValuation, build_poset, quantification_rows, save_poset
from causetkit.cli import rows_to_csv
from conftest import SRC, ladder_poset, run_cli, run_python, sha256


@pytest.fixture
def cyclic_file(tmp_path):
    doc = {
        "version": 1,
        "events": [{"id": "a", "chain": "P"}, {"id": "b", "chain": "Q"}],
        "chains": {"P": ["a"], "Q": ["b"]},
        "influence": [["a", "b"], ["b", "a"]],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    return str(path)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestValidateCommand:
    def test_valid_file_exits_zero(self, ladder_file):
        code, out, _ = run_cli(["validate", ladder_file])
        assert code == 0
        assert "ok" in out

    def test_cyclic_file_exits_one_and_names_events(self, cyclic_file):
        code, out, _ = run_cli(["validate", cyclic_file])
        assert code == 1
        assert "cycle" in out
        assert "'a'" in out and "'b'" in out

    def test_outdir_is_a_usage_error(self, tmp_path, ladder_file):
        # validate prints its report and writes no artifacts
        outdir = tmp_path / "d"
        code, out, err = run_cli(["validate", ladder_file, "--outdir", str(outdir)])
        assert (code, out) == (2, "")
        assert err.startswith("usage: causetkit ")
        assert err.endswith(f"causetkit: error: unrecognized arguments: --outdir {outdir}\n")
        assert not outdir.exists()

    def test_missing_file_exits_two(self, tmp_path):
        code, _, err = run_cli(["validate", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error" in err

    def test_malformed_file_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, _ = run_cli(["validate", str(path)])
        assert code == 2

    def test_json_report(self, cyclic_file):
        code, out, _ = run_cli(["validate", cyclic_file, "--emit", "json"])
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["violations"][0]["rule"] == "cycle"

    @pytest.mark.parametrize("emit, digest", [
        ("text", "5c97200c108196af8c89510820c3d50dc61a55baf62612e57d66d14755ae4d71"),
        ("json", "4114ac2e534db7911cad3f22649aec1422865845888785c28bcf82177479760d"),
    ])
    def test_report_of_every_rule_is_pinned(self, tmp_path, emit, digest):
        # two intra-chain edges, a cycle through both chains and an event
        # missing from its chain's order; ids that repr and JSON escape
        doc = {
            "version": 1,
            "events": [
                {"id": "a", "chain": "P"}, {"id": "b", "chain": "P"},
                {"id": "c", "chain": "Q"}, {"id": "dé", "chain": "Q"},
                {"id": "it's", "chain": "Q"},
            ],
            "chains": {"P": ["a", "b"], "Q": ["c", "dé"]},
            "influence": [["a", "b"], ["b", "c"], ["c", "a"], ["c", "dé"]],
        }
        path = tmp_path / "every_rule.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["validate", str(path), "--emit", emit])
        assert (code, err) == (1, "")
        assert out.count("intra-chain-influence") == 2
        assert "cycle" in out and "chain-not-total" in out
        assert sha256(out) == digest

    @pytest.mark.parametrize("bad_id", [[1], 1])
    def test_non_string_id_exits_two(self, tmp_path, bad_id):
        doc = {
            "version": 1,
            "events": [{"id": bad_id, "chain": "P"}],
            "chains": {"P": [bad_id]},
            "influence": [],
        }
        path = tmp_path / "bad_id.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["validate", str(path)])
        assert code == 2
        assert "must be strings" in err

    @pytest.mark.parametrize(
        "field, value",
        [("chains", {"P": "ab"}), ("influence", ["ab"]), ("influence", {"ab": 1})],
    )
    def test_string_or_object_where_array_expected_exits_two(self, tmp_path, field, value):
        doc = {
            "version": 1,
            "events": [{"id": "a", "chain": "P"}, {"id": "b", "chain": "P"}],
            "chains": {"P": ["a", "b"]},
            "influence": [],
        }
        doc[field] = value
        path = tmp_path / "not_arrays.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["validate", str(path)])
        assert code == 2
        assert out == ""
        assert "must be arrays" in err

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
    def test_version_other_than_int_one_exits_two(self, tmp_path, version):
        doc = {
            "version": version,
            "events": [{"id": "a", "chain": "P"}],
            "chains": {"P": ["a"]},
            "influence": [],
        }
        path = tmp_path / "version.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["validate", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: schema-version mismatch: got {version!r}, expected 1\n"

    def test_unknown_key_warns_in_one_line(self, tmp_path, ladder_file):
        with open(ladder_file) as fh:
            doc = json.load(fh)
        doc["extra"] = {"note": 1}
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        plain = run_cli(["validate", ladder_file])
        code, out, err = run_cli(["validate", str(path)])
        assert (code, out) == plain[:2]
        assert err == "warning: ignoring unknown poset document keys: extra\n"

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf-8", "deep"]
    )
    def test_unreadable_document_exits_two(self, tmp_path, data):
        path = tmp_path / "unreadable.json"
        path.write_bytes(data)
        code, out, err = run_cli(["validate", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed poset document")

    def test_chains_not_an_object_exits_two(self, tmp_path):
        path = tmp_path / "bad_chains.json"
        path.write_text(json.dumps({"version": 1, "events": [], "chains": [], "influence": []}))
        code, _, err = run_cli(["validate", str(path)])
        assert code == 2
        assert "malformed poset document" in err

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds allocation on Linux"
    )
    def test_out_of_memory_exits_three(self, tmp_path):
        # The address-space limit is set in the child only.  200 MB holds the
        # interpreter and a 100,000-event ladder, but not this 400,000-event
        # one, and no cap bounds a document's size.  So loading or building it
        # raises MemoryError, which must end in one line and exit 3.
        n = 200_000
        # the document's text is built directly, which keeps this process small
        events = ", ".join(f'{{"id": "{c}{i}", "chain": "{c}"}}' for c in "PQ" for i in range(n))
        chains = ", ".join(f'"{c}": [' + ", ".join(f'"{c}{i}"' for i in range(n)) + "]"
                           for c in "PQ")
        influence = ", ".join(f'["{a}{i}", "{b}{i + 2}"]'
                              for i in range(n - 2) for a, b in ("PQ", "QP"))
        path = tmp_path / "ladder.json"
        path.write_text(
            f'{{"version": 1, "events": [{events}], "chains": {{{chains}}}, '
            f'"influence": [{influence}]}}'
        )
        import resource

        limit = 200 * 2**20
        proc = run_python(
            "-m", "causetkit.cli", "validate", str(path), check=False,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: validate ran out of memory\n"


class TestQuantifyCommand:
    def test_coordinated_table(self, ladder_file):
        code, out, _ = run_cli(["quantify", ladder_file, "--chain", "P", "--chain2", "Q"])
        assert code == 0
        rows = {row["event_id"]: row for row in parse_csv(out)}
        assert rows["p0"]["t"] == "1"
        assert rows["p0"]["x"] == "-1"
        assert rows["q0"]["x"] == "1"
        # an event above the other chain has no forward projection: null fields
        assert rows["q7"]["p_fwd"] == ""
        assert rows["q7"]["t"] == ""

    def test_single_chain_pairs(self, ladder_file):
        code, out, _ = run_cli(["quantify", ladder_file, "--chain", "P"])
        assert code == 0
        rows = {row["event_id"]: row for row in parse_csv(out)}
        assert rows["q3"]["p_fwd"] == "5"
        assert rows["q3"]["p_bwd"] == "1"
        assert rows["q3"]["q_fwd"] == ""

    def test_fractional_unit(self, ladder_file):
        code, out, _ = run_cli(["quantify", ladder_file, "--chain", "P", "--mu", "1/2"])
        rows = {row["event_id"]: row for row in parse_csv(out)}
        assert rows["p7"]["p_fwd"] == "3.5"

    def test_negative_unit_as_separate_argument(self, ladder_file):
        # argparse by itself reads "-3/7" as an unknown option, not as the value
        flags = ("quantify", ladder_file, "--chain", "P", "--chain2", "Q")
        separate = run_cli([*flags, "--mu", "-3/7"])
        assert separate == run_cli([*flags, "--mu=-3/7"])
        assert separate[0] == 0

    @pytest.mark.parametrize("mu", ["1/0", "0/0", "abc"])
    def test_bad_unit_exits_one(self, ladder_file, mu):
        code, out, err = run_cli(["quantify", ladder_file, "--chain", "P", "--mu", mu])
        assert code == 1
        assert out == ""
        assert err == f"error: --mu expects a rational number such as 3/2, got {mu!r}\n"

    @pytest.mark.parametrize("emit", ["csv", "json"])
    def test_unit_past_float_range_exits_one(self, ladder_file, emit):
        code, out, err = run_cli(
            ["quantify", ladder_file, "--chain", "P", "--mu", "1e400", "--emit", emit]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_chain_exits_one(self, ladder_file):
        code, _, err = run_cli(["quantify", ladder_file, "--chain", "Z"])
        assert code == 1
        assert "unknown chain" in err

    def test_empty_second_chain_id_names_a_chain(self, tmp_path):
        # "" is a chain id like any other, so the rows are coordinated ones
        poset = build_poset(
            [("p0", "P"), ("p1", "P"), ("e0", ""), ("e1", "")],
            {"P": ["p0", "p1"], "": ["e0", "e1"]},
            [("p0", "e1"), ("e0", "p1")],
        )
        path = tmp_path / "empty_chain_id.json"
        save_poset(poset, str(path))
        rows = quantification_rows(
            poset, ChainValuation.from_poset(poset, "P"), ChainValuation.from_poset(poset, "")
        )
        expected = rows_to_csv(rows, ["event_id", "p_fwd", "p_bwd", "q_fwd", "q_bwd", "t", "x"])
        code, out, _ = run_cli(["quantify", str(path), "--chain", "P", "--chain2", ""])
        assert (code, out) == (0, expected)
        assert "p0,0,0,1,,0.5,-0.5\n" in out

    def test_empty_second_chain_id_unknown_exits_one(self, ladder_file):
        code, out, err = run_cli(["quantify", ladder_file, "--chain", "P", "--chain2", ""])
        assert (code, out) == (1, "")
        assert "unknown chain id: ''" in err

    def test_json_emission(self, ladder_file):
        code, out, _ = run_cli(
            ["quantify", ladder_file, "--chain", "P", "--chain2", "Q", "--emit", "json"]
        )
        doc = json.loads(out)
        assert doc["chain"] == "P"
        assert doc["rows"][0]["event_id"] == "p0"

    def test_json_escapes_control_characters(self, tmp_path):
        ids = ["line\nbreak", "tab\tbed", "ctl\x01", 'quote"back\\slash', "ünï"]
        doc = {
            "version": 1,
            "events": [{"id": e, "chain": "P"} for e in ids],
            "chains": {"P": ids},
            "influence": [],
        }
        path = tmp_path / "odd_ids.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["quantify", str(path), "--chain", "P", "--emit", "json"])
        assert code == 0
        assert [row["event_id"] for row in json.loads(out)["rows"]] == ids

    def test_byte_identical_reruns(self, ladder_file):
        _, first, _ = run_cli(["quantify", ladder_file, "--chain", "P", "--chain2", "Q"])
        _, second, _ = run_cli(["quantify", ladder_file, "--chain", "P", "--chain2", "Q"])
        assert first == second


class TestParticleCommand:
    def test_counts_reports_orderings(self):
        code, out, _ = run_cli(["particle", "--counts", "3,2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["orderings"] == 10
        assert doc["counts"] == {"P": 3, "Q": 2}

    def test_orderings_past_int_string_limit(self):
        # C(14600, 7300) has 4,393 digits, past str(int)'s default limit
        code, out, _ = run_cli(["particle", "--counts", "7300,7300"])
        assert code == 0
        digits = json.loads(out, parse_int=str)["orderings"]
        assert len(digits) > 4300
        assert decimal.Decimal(digits) == math.comb(14600, 7300)

    def test_sequence_path_csv(self):
        code, out, _ = run_cli(["particle", "--sequence", "PPQ", "--emit", "csv"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4  # origin plus three segments
        assert rows[1]["move"] == "P"
        assert rows[1]["t"] == "0.5"
        assert rows[1]["x"] == "0.5"
        assert rows[3]["x"] == "0.5"
        assert rows[3]["beta"] == "-1"

    def test_kinematics_report(self):
        code, out, _ = run_cli(
            ["particle", "--counts", "3,2", "--dp", "5", "--dq", "2", "--events", "10"]
        )
        doc = json.loads(out)
        kin = doc["kinematics"]
        assert kin["rP"] == 2
        assert kin["rQ"] == 5
        assert math.isclose(kin["M"], math.sqrt(10), rel_tol=1e-15)
        assert kin["E"] == 3.5
        assert kin["p"] == 1.5

    @pytest.mark.parametrize("dp, dq, mass", [
        ("1e300", "3e300", 5.773502691896258e-300),
        ("1e-300", "3e-300", 5.773502691896257e300),
    ])
    def test_mass_in_the_float_range_whatever_its_square(self, dp, dq, mass):
        # M = sqrt(rP * rQ), where rP * rQ underflows or overflows a float
        code, out, _ = run_cli(["particle", "--counts", "5,5", "--dp", dp, "--dq", dq])
        kin = json.loads(out)["kinematics"]
        assert (code, kin["M"]) == (0, mass)
        e, p, m = (Fraction(kin[key]) for key in "EpM")
        assert math.isclose((e * e - p * p) / (m * m), 1, rel_tol=1e-15)

    def test_random_is_seed_deterministic(self):
        args = ("particle", "--random", "32", "0.5", "99")
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second
        doc = json.loads(first)
        assert doc["seed"] == 99
        assert len(doc["sequence"]) == 32

    @pytest.mark.parametrize("source", [
        ("--random", "50", "0.5", "7", "--dp", "3", "--dq", "2"),
        ("--sequence", "PQQP", "--emit", "csv"),
    ])
    def test_initial_helicity_changes_no_byte(self, source):
        plain = run_cli(["particle", *source])
        assert plain[0] == 0
        for helicity in ("P", "Q"):
            assert run_cli(["particle", *source, "--initial-helicity", helicity]) == plain

    @pytest.mark.parametrize(
        "values", [("1e3", "0.5", "1"), ("10", "0.5", "1.5"), ("10", "half", "1")]
    )
    def test_malformed_random_names_the_flag(self, values):
        code, out, err = run_cli(["particle", "--random", *values])
        assert (code, out) == (1, "")
        assert err.startswith("error: --random expects LENGTH PROB_P SEED")
        assert err.endswith(f", got {' '.join(values)!r}\n") and err.count("\n") == 1

    def test_source_flags_mutually_exclusive(self):
        code, _, err = run_cli(["particle", "--counts", "1,1", "--sequence", "PQ"])
        assert code == 1
        assert "mutually exclusive" in err

    def test_requires_some_source(self):
        code, _, _ = run_cli(["particle"])
        assert code == 1

    def test_csv_without_sequence_fails(self):
        code, _, err = run_cli(["particle", "--counts", "2,2", "--emit", "csv"])
        assert code == 1
        assert "requires" in err

    def test_zero_denominator_length_exits_one(self):
        code, _, err = run_cli(["particle", "--counts", "2,2", "--dp", "3", "--dq", "1/0"])
        assert code == 1
        assert "--dq expects a rational number" in err

    @pytest.mark.parametrize("source", [
        ("--counts", "3,4"),
        ("--sequence", "PPPQ"),
        ("--sequence", "PPPQ", "--emit", "csv"),
    ])
    def test_rate_past_float_range_exits_one(self, source):
        code, out, err = run_cli(["particle", *source, "--dp", "1e-400", "--dq", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_length_as_separate_argument(self):
        code, out, err = run_cli(["particle", "--counts", "3,2", "--dp", "-3/2", "--dq", "1"])
        assert (code, out) == (1, "")
        assert "projected lengths must be positive" in err

    def test_dp_without_dq_fails(self):
        code, _, _ = run_cli(["particle", "--counts", "2,2", "--dp", "3"])
        assert code == 1

    @pytest.mark.parametrize("flag, at_cap, past_cap, emit", [
        ("--counts", ["99999,1"], ["50001,50000"], "json"),
        ("--counts", ["0,100000"], ["100001,0"], "json"),
        ("--random", ["100000", "0.5", "1"], ["100001", "0.5", "1"], "csv"),
        # 10^8 moves ran out of memory in random_sequence before the cap
        ("--random", ["100000", "0.5", "1"], ["100000000", "0.5", "1"], "json"),
        ("--sequence", ["PQ" * 50000], ["PQ" * 50000 + "P"], "csv"),
        ("--sequence", ["PQ" * 50000], ["PQ" * 50000 + "P"], "json"),
    ])
    def test_move_cap_both_sides(self, monkeypatch, flag, at_cap, past_cap, emit):
        code, out, err = run_cli(["particle", flag, *at_cap, "--emit", emit])
        assert (code, err) == (0, "")
        # a header, the origin and one row per move, or one JSON line
        assert out.count("\n") == (100_002 if emit == "csv" else 1)

        # past the cap the command exits before it builds a sequence or counts orderings
        def no_work(*args):
            raise AssertionError("particle did work past the move cap")

        from causetkit import kinematics

        monkeypatch.setattr(kinematics, "random_sequence", no_work)
        monkeypatch.setattr(kinematics, "count_orderings", no_work)
        monkeypatch.setattr(kinematics.InfluenceSequence, "from_string", no_work)
        code, out, err = run_cli(["particle", flag, *past_cap, "--emit", emit])
        assert (code, out) == (3, "")
        assert err == f"error: {flag} asks for more than the cap of 100000 moves\n"

    def test_path_csv_alone_counts_no_orderings(self, monkeypatch):
        # the state JSON is not printed, so neither it nor its orderings count is built
        def no_count(counts):
            raise AssertionError("particle counted orderings for a state it does not print")

        from causetkit import kinematics

        monkeypatch.setattr(kinematics, "count_orderings", no_count)
        code, out, err = run_cli(["particle", "--random", "2000", "0.5", "1", "--emit", "csv"])
        assert (code, err) == (0, "")
        assert sha256(out) == (
            "6e86b4fcbf87ed15145cc3afa09b4afd33116e4449c3faac80f72bcfdc6a80ff"
        )

    def test_outdir_writes_both_artifacts(self, tmp_path):
        outdir = str(tmp_path / "artifacts")
        code, out, _ = run_cli(["particle", "--sequence", "PQP", "--outdir", outdir])
        assert code == 0
        assert os.path.exists(os.path.join(outdir, "particle_state.json"))
        assert os.path.exists(os.path.join(outdir, "particle_path.csv"))


class TestCheckerboardCommand:
    def test_both_methods_small_discrepancy(self):
        code, out, _ = run_cli([
            "checkerboard", "--steps", "2",
            "--theta", "0.7853981633974483", "--method", "both", "--emit", "json",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["max_discrepancy"] <= 1e-12
        assert doc["tolerance"] == 1e-12

    @pytest.mark.parametrize("method", ["matrix", "both"])
    def test_lattice_stepped_once(self, monkeypatch, method):
        from causetkit import checkerboard as cb

        calls = []
        step_field = cb.step_field
        monkeypatch.setattr(cb, "step_field", lambda *a: calls.append(1) or step_field(*a))
        code, _, _ = run_cli(["checkerboard", "--steps", "7", "--method", method])
        assert (code, len(calls)) == (0, 7)

    def test_matrix_conservation_column(self):
        code, out, _ = run_cli(["checkerboard", "--steps", "200", "--method", "matrix"])
        assert code == 0
        sums: dict[str, float] = {}
        for row in parse_csv(out):
            sums[row["t"]] = sums.get(row["t"], 0.0) + float(row["probability"])
        assert len(sums) == 201
        assert all(abs(total - 1) <= 1e-12 for total in sums.values())

    def test_pathsum_cap_exits_three(self):
        code, _, err = run_cli(["checkerboard", "--steps", "40", "--method", "pathsum"])
        assert code == 3
        assert "cap" in err

    def test_pathsum_final_slice_only(self):
        code, out, _ = run_cli(["checkerboard", "--steps", "3", "--method", "pathsum"])
        rows = parse_csv(out)
        assert {row["t"] for row in rows} == {"3"}

    @pytest.mark.parametrize("method", ["matrix", "both"])
    def test_matrix_row_cap_both_sides(self, method):
        # 9 steps write at most (9 + 1) * (9 + 2) = 110 rows
        argv = ("checkerboard", "--steps", "9", "--method", method)
        code, _, err = run_cli([*argv, "--cap", "109"])
        assert code == 3
        assert "110 rows" in err
        if method == "matrix":
            code, out, _ = run_cli([*argv, "--cap", "110"])
            assert code == 0
            assert len(parse_csv(out)) <= 110

    def test_negative_steps_rejected_by_parser(self):
        code, out, err = run_cli(["checkerboard", "--steps", "-3"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: causetkit checkerboard ")
        assert err.endswith(
            "causetkit checkerboard: error: argument --steps: must be nonnegative, got -3\n")

    @pytest.mark.parametrize("steps", ["1000000000000000", "10000000000000000000"],
                             ids=["memory", "index-size"])
    @pytest.mark.parametrize("emit", ["csv", "json", "svg"])
    def test_lattice_too_large_to_allocate_exits_three(self, tmp_path, emit, steps):
        # 10^15 steps need lists of 16 PB, past the address space, so the
        # allocation fails at once (MemoryError); 10^19 sites do not fit an
        # index (OverflowError).  The point source is built before any output.
        argv = ("checkerboard", "--steps", steps, "--cap", "1" + "0" * 40, "--emit", emit)
        expected = (3, "", f"error: --steps {steps} needs a lattice too large to allocate\n")
        assert run_cli(argv) == expected
        outdir = tmp_path / "d"
        assert run_cli([*argv, "--outdir", str(outdir)]) == expected
        assert not outdir.exists()

    def test_pathsum_cap_past_the_int_string_limit_exits_three(self):
        # 2^20000 sequences: the count has more digits than str() of an int allows
        code, out, err = run_cli(["checkerboard", "--steps", "20000", "--method", "pathsum"])
        assert (code, out) == (3, "")
        assert err.startswith("error: path sum over 2^20000 sequences exceeds the cap of 1000000")

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--mass", "nan"), "mass*epsilon must be finite, got mass=nan, epsilon=1.0"),
            (("--mass", "inf"), "mass*epsilon must be finite, got mass=inf, epsilon=1.0"),
            (("--eps", "inf", "--mass", "1"),
             "mass*epsilon must be finite, got mass=1.0, epsilon=inf"),
            (("--mass", "1e308", "--eps", "10"),
             "mass*epsilon must be finite, got mass=1e+308, epsilon=10.0"),
            (("--theta", "inf"), "theta must be finite, got inf"),
        ],
        ids=["nan-mass", "inf-mass", "inf-eps", "overflowing-product", "inf-theta"],
    )
    def test_non_finite_angle_names_the_value(self, flags, named):
        code, out, err = run_cli(["checkerboard", "--steps", "3", *flags])
        assert code == 1
        assert out == ""
        assert err == f"error: {named}\n"

    @pytest.mark.parametrize(
        "flags",
        [("--mass", "-inf"), ("--theta", "-nan"), ("--eps", "-inf", "--mass", "1"),
         ("--mass", "-INF"), ("--theta", "-NaN"), ("--mass", "-Infinity")],
        ids=" ".join,
    )
    def test_negative_non_finite_value_as_separate_argument(self, flags):
        # read as the value, as in the --name=value form, and not as an option
        joined = [f"{name}={value}" for name, value in zip(flags[::2], flags[1::2])]
        expected = run_cli(["checkerboard", "--steps", "2", *joined])
        assert expected[0] == 1 and "must be finite" in expected[2]
        assert run_cli(["checkerboard", "--steps", "2", *flags]) == expected

    def test_negative_mass_in_exponent_form(self):
        code, out, err = run_cli(["checkerboard", "--steps", "2", "--mass", "-1e-3"])
        assert (code, out) == (1, "")
        assert err == "error: propagator magnitudes must be nonnegative\n"

    def test_mass_and_theta_conflict(self):
        code, _, _ = run_cli(["checkerboard", "--steps", "2", "--theta", "0.3", "--mass", "1.0"])
        assert code == 1

    @pytest.mark.parametrize("emit", ["csv", "json", "svg"])
    def test_eps_without_mass_exits_one(self, emit):
        # --eps is the time step of the mass bridge; alone it used to be ignored
        code, out, err = run_cli(["checkerboard", "--steps", "3", "--eps", "2", "--emit", emit])
        assert (code, out) == (1, "")
        assert err == "error: --eps requires --mass\n"

    def test_svg_emission(self):
        code, out, _ = run_cli(["checkerboard", "--steps", "4", "--emit", "svg"])
        assert code == 0
        assert out.startswith("<svg")
        assert "<rect" in out

    @pytest.mark.parametrize("emit", ["csv", "svg"])
    def test_both_reports_discrepancy_on_stderr(self, emit):
        code, _, err = run_cli(
            ["checkerboard", "--steps", "3", "--method", "both", "--emit", emit]
        )
        assert code == 0
        assert err.startswith("max_discrepancy")

    def test_byte_identical_reruns(self):
        args = ("checkerboard", "--steps", "12", "--theta", "0.9", "--emit", "json")
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second


@pytest.mark.parametrize("command", ["quantify", "particle", "checkerboard", "validate"])
def test_outdir_env_variable_is_ignored(tmp_path, ladder_file, monkeypatch, command):
    # only --outdir sets the output directory
    argv = {
        "quantify": ("quantify", ladder_file, "--chain", "P"),
        "particle": ("particle", "--sequence", "PQP"),
        "checkerboard": ("checkerboard", "--steps", "2"),
        "validate": ("validate", ladder_file),
    }[command]
    monkeypatch.delenv("CAUSETKIT_OUTDIR", raising=False)
    expected = run_cli(argv)
    monkeypatch.setenv("CAUSETKIT_OUTDIR", str(tmp_path / "fromenv"))
    assert run_cli(argv) == expected
    assert expected[0] == 0 and expected[1]
    assert os.listdir(tmp_path) == ["ladder.json"]


def test_module_exits_with_argparse_codes():
    # `python -m causetkit.cli` exits with main's code, argparse's included
    proc = run_python("-m", "causetkit.cli", "--help", check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: causetkit")
    proc = run_python("-m", "causetkit.cli", "checkerboard", "--steps", "-3", check=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("--steps: must be nonnegative, got -3\n")
    assert "Traceback" not in proc.stderr


def run_limited(argv, file_size):
    """`python -m causetkit.cli *argv` in its own session, its files limited to
    `file_size` bytes when that is not None: the exit code, stdout and stderr,
    once no process of the session is left."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (file_size, file_size))

    # Popen, not run_python: the os.killpg check below needs the pid
    with subprocess.Popen([sys.executable, "-m", "causetkit.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": SRC},
                          preexec_fn=None if file_size is None else limit,
                          start_new_session=True) as proc:
        out, err = proc.communicate(timeout=120)
    # a forked writer's child is gone too
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, out.decode(), err.decode()


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="RLIMIT_FSIZE and sessions are POSIX")
@pytest.mark.parametrize("command", ["quantify", "checkerboard"])
def test_an_outdir_artifact_is_whole_or_absent(tmp_path, command):
    # each artifact passes 100,000 bytes: a 5,000-rung ladder's coordinates,
    # and a 300-step lattice, which the checkerboard writer formats in two
    # processes where two CPUs are allowed
    if command == "quantify":
        ladder = tmp_path / "ladder.json"
        save_poset(ladder_poset(5000), str(ladder))
        argv, name = ["quantify", str(ladder), "--chain", "P", "--chain2", "Q"], "quantify.csv"
    else:
        argv, name = ["checkerboard", "--steps", "300"], "checkerboard.csv"
    full = tmp_path / "full"
    assert run_limited([*argv, "--outdir", str(full)], None) == (0, f"{full / name}\n", "")
    assert os.listdir(full) == [name]
    code, expected, _ = run_limited(argv, None)
    assert (code, (full / name).read_text(encoding="utf-8")) == (0, expected)
    assert len(expected.encode()) > 100_000
    cut = tmp_path / "cut"
    assert run_limited([*argv, "--outdir", str(cut)], 100_000) == (
        2, "", "error: [Errno 27] File too large\n"
    )
    assert os.listdir(cut) == []
