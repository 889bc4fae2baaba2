"""Influence sequences, zig-zag paths, and rate-based kinematics."""

import csv
import io
import itertools
import math
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetkit import (
    CapExceededError,
    ChainValuation,
    InfluenceSequence,
    LinearRelation,
    UnorderedInfluenceCount,
    build_poset,
    count_orderings,
    enumerate_orderings,
    kinematic_state,
    path_rows,
    quantification_rows,
    random_sequence,
    rates,
    save_poset,
    sequence_to_path,
    transform_energy_momentum,
    transform_rates,
)
from causetkit.exact import Surd, collapse, sqrt_exact
from conftest import bits, run_cli

positive_rates = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(40), max_denominator=30
)
positive_constants = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(12), max_denominator=12
)

HALF = Fraction(1, 2)


class TestCounting:
    def test_three_two(self):
        assert count_orderings(UnorderedInfluenceCount(3, 2)) == 10

    def test_two_one(self):
        assert count_orderings(UnorderedInfluenceCount(2, 1)) == 3

    def test_empty(self):
        assert count_orderings(UnorderedInfluenceCount(0, 0)) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_orderings(UnorderedInfluenceCount(-1, 2))

    def test_large_counts_exact(self):
        assert count_orderings(UnorderedInfluenceCount(60, 60)) == math.comb(120, 60)


class TestEnumeration:
    def test_two_one_listing(self):
        seqs = enumerate_orderings(UnorderedInfluenceCount(2, 1))
        assert [str(s) for s in seqs] == ["PPQ", "PQP", "QPP"]

    def test_singleton(self):
        assert [str(s) for s in enumerate_orderings(UnorderedInfluenceCount(1, 0))] == ["P"]

    def test_two_two_matches_permutation_oracle(self):
        # oracle: dedup of all letter permutations, sorted lexicographically
        expected = sorted({"".join(p) for p in itertools.permutations("PPQQ")})
        got = [str(s) for s in enumerate_orderings(UnorderedInfluenceCount(2, 2))]
        assert got == expected
        assert len(got) == count_orderings(UnorderedInfluenceCount(2, 2)) == 6

    @pytest.mark.parametrize("p, q", [(0, 0), (0, 3), (3, 0), (1, 4), (4, 3), (5, 2)])
    def test_matches_permutation_oracle(self, p, q):
        expected = sorted({"".join(s) for s in itertools.permutations("P" * p + "Q" * q)})
        assert [str(s) for s in enumerate_orderings(UnorderedInfluenceCount(p, q))] == expected

    def test_lexicographic_and_unique(self):
        seqs = [str(s) for s in enumerate_orderings(UnorderedInfluenceCount(3, 3))]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs) == 20

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_orderings(UnorderedInfluenceCount(2, 2), cap=5)

    @pytest.mark.parametrize("p", range(8))
    @pytest.mark.parametrize("q", range(8))
    def test_matches_next_permutation_oracle(self, p, q):
        expected = next_permutation_orderings(p, q)
        assert [str(s) for s in enumerate_orderings(UnorderedInfluenceCount(p, q))] == expected
        assert len(expected) == math.comb(p + q, p)

    def test_orderings_longer_than_the_recursion_limit(self):
        # 2,000 moves: deeper than the interpreter's default recursion limit of 1,000
        assert [str(s) for s in enumerate_orderings(UnorderedInfluenceCount(2000, 0))] == [
            "P" * 2000
        ]
        got = [str(s) for s in enumerate_orderings(UnorderedInfluenceCount(1, 1999))]
        assert got == ["Q" * i + "P" + "Q" * (1999 - i) for i in range(2000)]


def next_permutation_orderings(p, q):
    """The hand-written next-permutation that itertools.combinations replaced,
    kept as an oracle: the next ordering turns the last "PQ" into "Q" followed
    by the rest sorted."""
    text = "P" * p + "Q" * q
    out = []
    while True:
        out.append(text)
        i = text.rfind("PQ")
        if i < 0:
            return out
        tail = text[i + 1 :]
        n_p = tail.count("P") + 1
        text = text[:i] + "Q" + "P" * n_p + "Q" * (len(tail) - n_p)


class TestPaths:
    def test_worked_zigzag(self):
        path = sequence_to_path(InfluenceSequence.from_string("PQP"))
        assert path.points == (
            (0, 0),
            (HALF, HALF),
            (1, 0),
            (Fraction(3, 2), HALF),
        )
        assert path.betas == (1, -1, 1)
        assert path.helicities == ("P", "Q", "P")

    def test_uniform_maximum_speed(self):
        path = sequence_to_path(InfluenceSequence.from_string("PP"))
        assert path.net_displacement == (1, 1)
        assert path.betas == (1, 1)

    def test_every_segment_extremal(self):
        path = sequence_to_path(InfluenceSequence.from_string("PQQPPQ"))
        assert all(abs(b) == 1 for b in path.betas)

    def test_endpoint_depends_only_on_counts(self):
        counts = UnorderedInfluenceCount(3, 2)
        endpoints = {
            sequence_to_path(seq).net_displacement
            for seq in enumerate_orderings(counts)
        }
        assert endpoints == {(Fraction(5, 2), HALF)}

    def test_chessboard_parity(self):
        for seq in enumerate_orderings(UnorderedInfluenceCount(3, 3)):
            for t, x in sequence_to_path(seq).points:
                assert (t + x).denominator == 1

    def test_two_arrival_states_per_site(self):
        # helicity is the only memory: at most two (position, helicity)
        # arrival states exist anywhere, and interior sites show both
        arrivals: dict[tuple, set] = {}
        for seq in enumerate_orderings(UnorderedInfluenceCount(3, 3)):
            path = sequence_to_path(seq)
            for i, move in enumerate(path.helicities, start=1):
                arrivals.setdefault(path.points[i], set()).add(move)
        assert all(len(states) <= 2 for states in arrivals.values())
        assert arrivals[(1, 0)] == {"P", "Q"}

    def test_path_rows_shape(self):
        rows = path_rows(sequence_to_path(InfluenceSequence.from_string("PQ")))
        assert [row["step"] for row in rows] == [0, 1, 2]
        assert rows[0]["move"] is None
        assert rows[1]["move"] == "P"
        assert rows[2]["beta"] == -1


class TestRates:
    def test_worked_division(self):
        assert rates(10, 5, 2) == (2, 5)

    def test_rest_case(self):
        r_p, r_q = rates(8, 4, 4)
        assert r_p == r_q == 2

    def test_unit(self):
        assert rates(1, 1, 1) == (1, 1)

    def test_each_rate_keeps_its_own_type(self):
        r_p, r_q = rates(10, 5, 4.0)
        assert (r_p, r_q) == (2, 2.5)
        assert type(r_p) is Fraction and type(r_q) is float

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rates(0, 1, 1)
        with pytest.raises(ValueError):
            rates(3, 0, 1)
        with pytest.raises(ValueError):
            rates(3, 1, -2)


class TestKinematicState:
    def test_worked_state(self):
        state = kinematic_state(Fraction(2), Fraction(5))
        assert state.energy == Fraction(7, 2)
        assert state.momentum == Fraction(3, 2)
        assert state.mass_squared == 10
        assert state.energy**2 - state.momentum**2 == 10
        assert state.mass * state.mass == 10

    def test_rest(self):
        state = kinematic_state(Fraction(3), Fraction(3))
        assert state.momentum == 0
        assert state.energy == state.mass == 3
        assert state.beta == 0

    def test_beta_is_momentum_over_energy(self):
        state = kinematic_state(Fraction(1), Fraction(3))
        assert state.beta == Fraction(1, 2)

    def test_int_rates_stay_exact(self):
        state = kinematic_state(2, 5)
        assert list(map(bits, [state.energy, state.momentum, state.beta])) == list(
            map(bits, [Fraction(7, 2), Fraction(3, 2), Fraction(3, 7)])
        )
        assert state.mass == Surd(1, radicand=10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kinematic_state(0, 2)

    @given(r_p=positive_rates, r_q=positive_rates)
    def test_energy_momentum_identity_exact(self, r_p, r_q):
        state = kinematic_state(r_p, r_q)
        assert state.energy**2 - state.momentum**2 == state.mass_squared
        assert state.mass_squared == r_p * r_q


class TestRateTransforms:
    def test_identity_at_coordination(self):
        assert transform_rates(Fraction(2), Fraction(5), LinearRelation(3, 3)) == (2, 5)

    def test_worked_boost(self):
        r_p, r_q = transform_rates(Fraction(2), Fraction(5), LinearRelation(4, 1))
        assert (r_p, r_q) == (1, 10)
        assert r_p * r_q == 10

    def test_mass_invariant(self):
        r_p, r_q = transform_rates(Fraction(2), Fraction(5), LinearRelation(7, 3))
        assert r_p * r_q == 10

    def test_float_rates_supported(self):
        r_p, r_q = transform_rates(2.0, 5.0, LinearRelation(4, 1))
        assert math.isclose(r_p * r_q, 10.0, rel_tol=1e-12)

    def test_surd_relation_keeps_product(self):
        rel = LinearRelation(sqrt_exact(2), 2 * sqrt_exact(2))
        r_p, r_q = transform_rates(Fraction(2), Fraction(5), rel)
        assert r_p * r_q == 10

    def test_each_rate_keeps_its_own_type(self):
        r_p, r_q = transform_rates(2.0, Fraction(5), LinearRelation(4, 1))
        assert (r_p, r_q) == (1.0, 10)
        assert type(r_p) is float and type(r_q) is Fraction

    @given(r_p=positive_rates, r_q=positive_rates, m=positive_constants, n=positive_constants)
    def test_product_invariant_exactly(self, r_p, r_q, m, n):
        out_p, out_q = transform_rates(r_p, r_q, LinearRelation(m, n))
        assert out_p * out_q == r_p * r_q


# the type-branching rates, mass, transform_rates and k that the numeric tower
# replaced, kept as oracles: the library must give the same types and bits
def branching_rates(n_events, dp, dq):
    if isinstance(dp, Rational) and isinstance(dq, Rational):
        return Fraction(n_events, 1) / Fraction(dp), Fraction(n_events, 1) / Fraction(dq)
    return n_events / dp, n_events / dq


def branching_mass(r_p, r_q):
    if isinstance(r_p, (Rational, Surd)) and isinstance(r_q, (Rational, Surd)):
        product = r_p * r_q
        exact = product.as_fraction() if isinstance(product, Surd) else Fraction(product)
        return collapse(sqrt_exact(exact))
    return math.sqrt(r_p * r_q)


def branching_transform_rates(r_p, r_q, relation):
    boost = relation.boost()
    if isinstance(r_p, float) or isinstance(r_q, float):
        b = float(boost)
        return r_p / b, r_q * b
    return collapse(r_p / boost), collapse(r_q * boost)


def branching_k(m, n):
    if isinstance(m, (Rational, Surd)) and isinstance(n, (Rational, Surd)):
        return collapse(sqrt_exact(Fraction(m) * Fraction(n)))
    return math.sqrt(m * n)


ints = st.integers(1, 10**6)
floats = st.floats(1e-6, 1e6)
fractions = st.fractions(Fraction(1, 1000), Fraction(1000), max_denominator=1000)
positive_numbers = st.one_of(ints, floats, fractions)
# surds on one radicand, so that two of them add to a surd
surds = st.builds(Surd, fractions, st.just(2))
# both floats or both exact: a float beside an exact value, which the branches
# made a float, now keeps its own type (see test_each_rate_keeps_its_own_type)
same_kind_pairs = st.one_of(
    st.tuples(floats, floats),
    st.tuples(st.one_of(ints, fractions), st.one_of(ints, fractions)),
)


class TestAgainstTypeBranches:
    @given(n_events=st.integers(1, 10**4), lengths=same_kind_pairs)
    def test_rates(self, n_events, lengths):
        assert list(map(bits, rates(n_events, *lengths))) == list(
            map(bits, branching_rates(n_events, *lengths))
        )

    @given(r_p=positive_numbers, r_q=positive_numbers)
    def test_mass(self, r_p, r_q):
        assert bits(kinematic_state(r_p, r_q).mass) == bits(branching_mass(r_p, r_q))

    @given(pair=st.one_of(
        st.tuples(floats, st.one_of(floats, fractions, surds)),
        st.tuples(fractions, fractions),
        st.tuples(surds, surds),
    ))
    def test_energy_and_momentum_halve_as_division_did(self, pair):
        r_p, r_q = pair
        state = kinematic_state(r_p, r_q)
        assert list(map(bits, [state.energy, state.momentum])) == list(
            map(bits, [(r_p + r_q) / 2, (r_q - r_p) / 2])
        )

    @given(pair=same_kind_pairs, m=positive_numbers, n=positive_numbers)
    def test_transform_rates(self, pair, m, n):
        rel = LinearRelation(m, n)
        assert list(map(bits, transform_rates(*pair, rel))) == list(
            map(bits, branching_transform_rates(*pair, rel))
        )

    @given(m=positive_numbers, n=positive_numbers)
    def test_k(self, m, n):
        rel = LinearRelation(m, n)
        assert bits(rel.k) == bits(branching_k(rel.m, rel.n))


def gamma_energy_momentum(energy, momentum, relation):
    """The gamma form of the boost, E' = gamma*E + beta*gamma*p and
    p' = beta*gamma*E + gamma*p, which transform_energy_momentum used before it
    became transform_rates, kept as a float oracle."""
    gamma, beta_gamma = relation.gamma, relation.beta_gamma
    return gamma * energy + beta_gamma * momentum, beta_gamma * energy + gamma * momentum


class TestEnergyMomentumTransforms:
    def test_rest_particle(self):
        rel = LinearRelation(4, 1)
        state = kinematic_state(Fraction(3), Fraction(3))
        energy, momentum = transform_energy_momentum(state.energy, state.momentum, rel)
        gamma, beta_gamma = rel.gamma, rel.beta_gamma
        assert math.isclose(energy, gamma * 3, rel_tol=1e-14)
        assert math.isclose(momentum, beta_gamma * 3, rel_tol=1e-14)

    def test_identity_at_rest_frame(self):
        energy, momentum = transform_energy_momentum(5.0, 2.0, LinearRelation(2, 2))
        assert (energy, momentum) == (5.0, 2.0)

    @given(r_p=positive_rates, r_q=positive_rates, m=positive_constants, n=positive_constants)
    def test_two_path_consistency(self, r_p, r_q, m, n):
        rel = LinearRelation(m, n)
        direct = kinematic_state(*transform_rates(r_p, r_q, rel))
        state = kinematic_state(r_p, r_q)
        energy, momentum = transform_energy_momentum(
            float(state.energy), float(state.momentum), rel
        )
        scale = 1 + abs(energy)
        assert abs(float(direct.energy) - energy) < 1e-12 * scale
        assert abs(float(direct.momentum) - momentum) < 1e-12 * scale

    def test_result_types(self):
        energy, momentum = transform_energy_momentum(Fraction(3), 0, LinearRelation(4, 1))
        assert (energy, momentum) == (Fraction(15, 4), Fraction(9, 4))
        assert type(energy) is Fraction and type(momentum) is Fraction
        energy, momentum = transform_energy_momentum(3.0, 0.0, LinearRelation(4, 1))
        assert type(energy) is float and type(momentum) is float

    @given(r_p=positive_rates, r_q=positive_rates, m=positive_constants, n=positive_constants)
    def test_exact_input_is_the_rates_boost(self, r_p, r_q, m, n):
        rel = LinearRelation(m, n)
        state = kinematic_state(r_p, r_q)
        direct = kinematic_state(*transform_rates(r_p, r_q, rel))
        assert transform_energy_momentum(state.energy, state.momentum, rel) == (
            direct.energy, direct.momentum
        )

    @given(r_p=positive_rates, r_q=positive_rates, m=positive_constants, n=positive_constants)
    def test_matches_the_gamma_oracle(self, r_p, r_q, m, n):
        rel = LinearRelation(m, n)
        state = kinematic_state(r_p, r_q)
        energy, momentum = float(state.energy), float(state.momentum)
        got = transform_energy_momentum(energy, momentum, rel)
        expected = gamma_energy_momentum(energy, momentum, rel)
        scale = 1 + abs(expected[0])
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-12 * scale


class TestRandomSequences:
    def test_all_p(self):
        assert str(random_sequence(12, 1.0, 42)) == "P" * 12

    def test_all_q(self):
        assert str(random_sequence(12, 0.0, 42)) == "Q" * 12

    def test_deterministic(self):
        assert random_sequence(64, 0.3, 7) == random_sequence(64, 0.3, 7)
        assert random_sequence(64, 0.3, 7) != random_sequence(64, 0.3, 8)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_sequence(4, 1.5, 0)

    def test_negative_length(self):
        with pytest.raises(ValueError) as info:
            random_sequence(-1, 0.5, 1)
        assert str(info.value) == "length must be nonnegative"

    def test_long_run_fraction(self):
        seq = random_sequence(20000, 0.25, 123)
        fraction = sum(1 for m in seq.moves if m == "P") / len(seq)
        assert abs(fraction - 0.25) < 0.02


class TestSequenceType:
    def test_rejects_bad_moves(self):
        with pytest.raises(ValueError):
            InfluenceSequence.from_string("PXQ")

    def test_counts(self):
        assert InfluenceSequence.from_string("PPQPQ").counts() == (3, 2)

    def test_initial_helicity_validated(self):
        with pytest.raises(ValueError):
            InfluenceSequence(("P",), "R")


def particle_poset(moves):
    """The particle's influence poset: a chain X of events x0..xn and observer
    chains P and Q.  Move i+1 is an edge from x{i} to the next unused event of
    the chain it names, and x{n} also influences the next unused event of
    each chain, so that every x{i} projects onto both."""
    n = len(moves)
    used = {"P": 0, "Q": 0}
    edges = []
    for i, chain in enumerate(moves + "PQ"):
        edges.append((f"x{min(i, n)}", f"{chain.lower()}{used[chain]}"))
        used[chain] += 1
    chains = {"X": [f"x{i}" for i in range(n + 1)],
              **{c: [f"{c.lower()}{k}" for k in range(used[c])] for c in "PQ"}}
    return build_poset([(e, c) for c, order in chains.items() for e in order], chains, edges)


def cli_csv(argv):
    code, out, _ = run_cli(argv)
    assert code == 0
    return list(csv.DictReader(io.StringIO(out)))


@settings(deadline=None)
@given(moves=st.text("PQ", max_size=60))
def test_the_quantified_influence_poset_is_the_path(tmp_path_factory, moves):
    # the paper's particle simply influences two observers; the times and
    # places they assign its events are the zig-zag path of its moves
    poset = particle_poset(moves)
    rows = quantification_rows(poset, ChainValuation.from_poset(poset, "P"),
                               ChainValuation.from_poset(poset, "Q"))
    points = {row["event_id"]: (row["t"], row["x"]) for row in rows}
    path = sequence_to_path(InfluenceSequence.from_string(moves))
    assert [points[f"x{i}"] for i in range(len(moves) + 1)] == list(path.points)

    document = str(tmp_path_factory.mktemp("poset") / "particle.json")
    save_poset(poset, document)
    cells = {row["event_id"]: (row["t"], row["x"])
             for row in cli_csv(["quantify", document, "--chain", "P", "--chain2", "Q"])}
    particle = cli_csv(["particle", "--sequence", moves, "--emit", "csv"])
    assert [cells[f"x{i}"] for i in range(len(moves) + 1)] == [(r["t"], r["x"]) for r in particle]
