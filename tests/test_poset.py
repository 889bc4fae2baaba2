"""Causal poset construction, validation, reachability and round trip."""

import io
import json
import random
from unittest import mock

import pytest
from hypothesis import given

from causetkit import (
    CycleError,
    PosetStructureError,
    SchemaError,
    ValidationReport,
    Violation,
    build_poset,
    causal_leq,
    dual,
    forward_project,
    load_poset,
    save_poset,
    topological_order,
    validate,
)
from causetkit import poset as poset_module
from conftest import (
    bfs_reachable,
    mutual_influence_poset,
    poset_reachable,
    random_valid_poset,
    two_chain_poset,
    unruly_posets,
)


class TestBuild:
    def test_two_chains_one_edge(self):
        poset = two_chain_poset()
        assert poset.n_events == 6
        assert poset.n_chain_edges == 4
        assert poset.n_influence_edges == 1

    def test_mutual_influence_accepted(self):
        poset = mutual_influence_poset()
        assert poset.is_acyclic
        assert validate(poset).ok

    def test_empty(self):
        poset = build_poset([], {}, [])
        assert poset.n_events == 0
        assert validate(poset).ok

    @staticmethod
    def error_text(events, chains, influence) -> str:
        with pytest.raises(PosetStructureError) as info:
            build_poset(events, chains, influence)
        return str(info.value)

    def test_duplicate_event_rejected(self):
        text = self.error_text([("a", "P"), ("a", "P")], {"P": ["a"]}, [])
        assert text == "duplicate EventId: 'a'"

    def test_unresolved_chain_member_rejected(self):
        text = self.error_text([("a", "P")], {"P": ["a", "ghost"]}, [])
        assert text == "unresolved EventId in chain 'P': 'ghost'"

    def test_unresolved_influence_endpoint_rejected(self):
        text = self.error_text([("a", "P")], {"P": ["a"]}, [("a", "ghost")])
        assert text == "unresolved EventId in influence edge: 'ghost'"

    @pytest.mark.parametrize("edge", [("ghost", "a"), ("ghost", "spook")])
    def test_unresolved_influence_source_named_first(self, edge):
        text = self.error_text([("a", "P")], {"P": ["a"]}, [edge])
        assert text == "unresolved EventId in influence edge: 'ghost'"

    def test_event_on_two_chains_rejected(self):
        # b is declared on Q but listed in P
        text = self.error_text([("a", "P"), ("b", "Q")], {"P": ["a", "b"], "Q": []}, [])
        assert text == "event 'b' assigned to two chains: 'Q' and 'P'"

    def test_event_listed_in_two_chains_rejected(self):
        # a is listed in its own chain P, then again in Q
        text = self.error_text(
            [("a", "P"), ("b", "Q")], {"P": ["a"], "Q": ["b", "a"]}, []
        )
        assert text == "event 'a' assigned to two chains: 'P' and 'Q'"

    def test_event_on_unknown_chain_rejected(self):
        text = self.error_text([("a", "P"), ("b", "Q")], {"P": ["a"]}, [])
        assert text == "event 'b' declared on unknown chain 'Q'"

    def test_event_repeated_in_chain_rejected(self):
        text = self.error_text([("a", "P"), ("b", "P")], {"P": ["a", "b", "a"]}, [])
        assert text == "event 'a' listed twice in chain 'P'"


class TestValidate:
    def test_valid_poset(self):
        assert validate(two_chain_poset()).ok

    def test_intra_chain_influence(self):
        poset = build_poset(
            [("a", "P"), ("b", "P")], {"P": ["a", "b"]}, [("a", "b")]
        )
        report = validate(poset)
        assert not report.ok
        assert [v.rule for v in report.violations] == ["intra-chain-influence"]

    def test_two_cycle(self):
        poset = build_poset(
            [("a", "P"), ("b", "Q")],
            {"P": ["a"], "Q": ["b"]},
            [("a", "b"), ("b", "a")],
        )
        report = validate(poset)
        assert not report.ok
        assert any(v.rule == "cycle" for v in report.violations)
        cycle = next(v for v in report.violations if v.rule == "cycle")
        assert set(cycle.events) == {"a", "b"}

    def test_chain_not_total(self):
        poset = build_poset(
            [("a", "P"), ("b", "P")], {"P": ["a"]}, []
        )
        report = validate(poset)
        assert [v.rule for v in report.violations] == ["chain-not-total"]
        assert report.violations[0].events == ("b",)

    def test_ok_iff_no_violations(self):
        report = validate(two_chain_poset())
        assert report.ok == (not report.violations)


class TestReportTypes:
    """Violation and ValidationReport: repr, hash, equality, immutability."""

    def cyclic_report(self):
        poset = build_poset(
            [("a", "P"), ("b", "Q")], {"P": ["a"], "Q": ["b"]}, [("a", "b"), ("b", "a")]
        )
        return validate(poset)

    def test_repr(self):
        report = self.cyclic_report()
        violation = (
            "Violation(rule='cycle', message=\"cycle detected among events: 'a', 'b'\", "
            "events=('a', 'b'))"
        )
        assert repr(report.violations[0]) == violation
        assert repr(report) == f"ValidationReport(violations=({violation},))"
        assert repr(ValidationReport(())) == "ValidationReport(violations=())"

    def test_hash_is_that_of_the_field_values(self):
        report = self.cyclic_report()
        v = report.violations[0]
        assert hash(v) == hash((v.rule, v.message, v.events))
        assert hash(report) == hash((report.violations,))

    def test_equal_reports_compare_and_hash_equal(self):
        first, second = self.cyclic_report(), self.cyclic_report()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != validate(two_chain_poset())
        assert len({first, second}) == 1

    def test_violation_equals_a_tuple_of_its_values(self):
        v = Violation("cycle", "m", ("a",))
        assert v == ("cycle", "m", ("a",))

    @pytest.mark.parametrize("field", ["rule", "message", "events"])
    def test_violation_fields_cannot_be_assigned(self, field):
        v = self.cyclic_report().violations[0]
        with pytest.raises(AttributeError):
            setattr(v, field, "x")

    def test_report_fields_cannot_be_assigned(self):
        report = self.cyclic_report()
        with pytest.raises(AttributeError):
            report.violations = ()
        with pytest.raises(AttributeError):
            report.ok = True

    def test_ok(self):
        assert ValidationReport(()).ok is True
        assert self.cyclic_report().ok is False


class TestCausalLeq:
    def test_reflexive(self):
        poset = two_chain_poset()
        assert causal_leq(poset, "pi1", "pi1")

    def test_chain_totality(self):
        poset = two_chain_poset()
        assert causal_leq(poset, "p1", "p3")
        assert not causal_leq(poset, "p3", "p1")

    def test_disconnected_chains_incomparable(self):
        # oracle: breadth-first search on the raw inputs
        events = [("a1", "A"), ("a2", "A"), ("b1", "B"), ("b2", "B")]
        chains = {"A": ["a1", "a2"], "B": ["b1", "b2"]}
        poset = build_poset(events, chains, [])
        assert bfs_reachable(events, chains, [], "a1", "b2") is False
        assert not causal_leq(poset, "a1", "b2")
        assert not causal_leq(poset, "b2", "a1")

    def test_cross_chain_through_influence(self):
        poset = two_chain_poset()
        assert causal_leq(poset, "pi1", "p3")

    def test_unknown_event(self):
        with pytest.raises(KeyError):
            causal_leq(two_chain_poset(), "pi1", "ghost")

    @staticmethod
    def assert_matches_bfs_oracle(poset, targets=None):
        for y in poset.events if targets is None else targets:
            for x in poset.events:
                assert causal_leq(poset, x, y) == poset_reachable(poset, x, y), (x, y)

    def test_matches_bfs_oracle_on_random_posets(self):
        rng = random.Random(7)
        for _ in range(25):
            self.assert_matches_bfs_oracle(random_valid_poset(rng))

    @given(unruly_posets())
    def test_matches_bfs_oracle_on_unruly_posets(self, poset):
        # cycles, self-loops, empty chains and events missing from their chain's order
        self.assert_matches_bfs_oracle(poset)

    def test_target_missing_from_its_chain_order(self):
        # m and n are declared on A but missing from its order, so a sweep back
        # from each answers: m projects onto a1, and n reaches nothing on A
        poset = build_poset(
            [("a0", "A"), ("a1", "A"), ("m", "A"), ("n", "A"), ("q", "Q")],
            {"A": ["a0", "a1"], "Q": ["q"]},
            [("q", "m"), ("m", "a1"), ("q", "n")],
        )
        assert forward_project(poset, "A", "m").event == "a1"
        assert not forward_project(poset, "A", "n").present
        assert causal_leq(poset, "q", "m") and causal_leq(poset, "q", "n")
        assert causal_leq(poset, "m", "m") and causal_leq(poset, "n", "n")
        assert not causal_leq(poset, "a0", "m") and not causal_leq(poset, "a1", "m")
        assert not causal_leq(poset, "a0", "n") and not causal_leq(poset, "m", "n")
        self.assert_matches_bfs_oracle(poset)

    def test_target_on_cycle_through_earlier_chain_element(self):
        # b -> a closes the chain a -> b into a cycle, so b projects onto a, an
        # earlier element of its chain that it reaches and that reaches it
        poset = build_poset(
            [("a", "A"), ("b", "A"), ("q0", "Q"), ("q1", "Q")],
            {"A": ["a", "b"], "Q": ["q0", "q1"]},
            [("b", "a"), ("q0", "b")],
        )
        assert forward_project(poset, "A", "b").event == "a"
        assert causal_leq(poset, "a", "b") and causal_leq(poset, "b", "a")
        assert causal_leq(poset, "q0", "b") and causal_leq(poset, "q0", "a")
        assert not causal_leq(poset, "q1", "b") and not causal_leq(poset, "b", "q0")
        self.assert_matches_bfs_oracle(poset)

    def test_many_chains_cache_only_the_queried_ones(self):
        rng = random.Random(11)
        n_chains, length = 50, 4
        chains = {f"c{c}": [f"c{c}e{k}" for k in range(length)] for c in range(n_chains)}
        events = [(e, c) for c, order in chains.items() for e in order]
        ids = [e for e, _ in events]
        influence = [tuple(rng.sample(ids, 2)) for _ in range(150)]
        poset = build_poset(events, chains, influence)
        queried = ["c3", "c17", "c42"]
        self.assert_matches_bfs_oracle(poset, [e for c in queried for e in chains[c]])
        assert set(poset._projections) == set(queried)

    def test_a_query_sweeps_only_the_forward_projection(self):
        poset = two_chain_poset()
        with mock.patch.object(poset_module, "_first_reached",
                               wraps=poset_module._first_reached) as sweep:
            assert causal_leq(poset, "pi2", "p3")
        assert sweep.call_count == 1
        assert poset._projections["P"][1] is None


class TestOrderAxioms:
    def test_partial_order_on_random_posets(self):
        rng = random.Random(11)
        for _ in range(20):
            poset = random_valid_poset(rng)
            assert validate(poset).ok
            es = poset.events
            for x in es:
                assert causal_leq(poset, x, x)
            for x in es:
                for y in es:
                    if causal_leq(poset, x, y) and causal_leq(poset, y, x):
                        assert x == y
            for x in es:
                for y in es:
                    if not causal_leq(poset, x, y):
                        continue
                    for z in es:
                        if causal_leq(poset, y, z):
                            assert causal_leq(poset, x, z)

    def test_topological_sort_succeeds_on_valid(self):
        rng = random.Random(13)
        for _ in range(20):
            poset = random_valid_poset(rng)
            order = topological_order(poset)
            position = {e: i for i, e in enumerate(order)}
            for x in poset.events:
                for y in poset.events:
                    if x != y and causal_leq(poset, x, y):
                        assert position[x] < position[y]

    def test_topological_order_is_pinned(self):
        # p0 has a chain successor (p1) and an influence successor (q0), and
        # so has q0 (q1, then p2): Kahn's algorithm takes successors in the
        # order chain edges first, then influence edges
        poset = build_poset(
            [("q0", "Q"), ("q1", "Q"), ("p0", "P"), ("p1", "P"), ("p2", "P")],
            {"Q": ["q0", "q1"], "P": ["p0", "p1", "p2"]},
            [("p0", "q0"), ("q0", "p2")],
        )
        assert topological_order(poset) == ["p0", "p1", "q0", "q1", "p2"]
        assert topological_order(dual(poset)) == ["q1", "p2", "p1", "q0", "p0"]

    def test_topological_sort_fails_on_cycle(self):
        poset = build_poset(
            [("a", "P"), ("b", "Q")],
            {"P": ["a"], "Q": ["b"]},
            [("a", "b"), ("b", "a")],
        )
        with pytest.raises(CycleError):
            topological_order(poset)

    def test_dual_of_valid_is_valid(self):
        rng = random.Random(17)
        for _ in range(20):
            poset = random_valid_poset(rng)
            mirror = dual(poset)
            assert validate(mirror).ok
            for x in poset.events:
                for y in poset.events:
                    assert causal_leq(poset, x, y) == causal_leq(mirror, y, x)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        poset = mutual_influence_poset()
        path = tmp_path / "poset.json"
        save_poset(poset, str(path))
        assert load_poset(str(path)) == poset

    def test_file_object_round_trip(self):
        poset = two_chain_poset()
        buf = io.StringIO()
        save_poset(poset, buf)
        assert load_poset(io.StringIO(buf.getvalue())) == poset

    def test_missing_chains_key(self):
        doc = {"version": 1, "events": [], "influence": []}
        with pytest.raises(SchemaError, match="chains"):
            load_poset(io.StringIO(json.dumps(doc)))

    def test_version_mismatch(self):
        doc = {"version": 2, "events": [], "chains": {}, "influence": []}
        with pytest.raises(SchemaError, match="version"):
            load_poset(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_the_int_one(self, version):
        doc = {"version": version, "events": [], "chains": {}, "influence": []}
        with pytest.raises(SchemaError, match="schema-version mismatch"):
            load_poset(io.StringIO(json.dumps(doc)))

    def test_unknown_keys_warn_but_load(self):
        doc = {
            "version": 1,
            "events": [{"id": "a", "chain": "P"}],
            "chains": {"P": ["a"]},
            "influence": [],
            "annotations": {"color": "pink"},
        }
        with pytest.warns(UserWarning, match="annotations"):
            poset = load_poset(io.StringIO(json.dumps(doc)))
        assert poset.n_events == 1

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_poset(io.StringIO("not json at all {"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_poset(str(tmp_path / "nope.json"))
