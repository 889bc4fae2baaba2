"""Amplitude calculus: sequence algebra, propagators, path weights, kernels."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causetkit import (
    BoundaryError,
    CapExceededError,
    CheckerboardField,
    DerivedWeighting,
    FeynmanWeighting,
    InfluenceSequence,
    KernelColumns,
    Spinor,
    UnorderedInfluenceCount,
    amp_add,
    amp_mul,
    born,
    kernel,
    kernel_discrepancy,
    kernel_history,
    kernel_matrix,
    kernel_pathsum,
    make_propagators,
    measurement_amplitude,
    parallel_join,
    path_weight,
    propagators_from_mass,
    propagators_from_theta,
    reversal_count,
    sequence_amplitude,
    series_join,
    step_field,
    transition_magnitude_solutions,
    unordered_amplitude,
    verify_propagator_constraints,
    zero_momentum_propagators,
)
from causetkit import checkerboard
from causetkit.checkerboard import field_kernel

SQRT1_2 = math.sqrt(0.5)

I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def law_weight(length: int, reversals: int) -> complex:
    """Independent reversal-law oracle: (1/sqrt(2))^L * i^R with sequential products."""
    magnitude = 1.0
    for _ in range(length):
        magnitude *= SQRT1_2
    return (magnitude + 0j) * I_POWERS[reversals % 4]


class TestAmplitudeOps:
    def test_i_squared(self):
        assert amp_mul(1j, 1j) == -1

    def test_born_pythagorean(self):
        assert born(complex(0.6, 0.8)) == 1.0

    def test_componentwise_addition(self):
        assert amp_add(complex(1, 2), complex(3, -2)) == complex(4, 0)


class TestSequenceAlgebra:
    def test_series_join(self):
        assert series_join(("m1", "m2"), ("m2", "m3")) == ("m1", "m2", "m3")

    def test_series_mismatch(self):
        with pytest.raises(ValueError):
            series_join(("m1", "m2"), ("m3", "m4"))

    def test_series_join_needs_nonempty_sequences(self):
        with pytest.raises(ValueError) as info:
            series_join((), ("a",))
        assert str(info.value) == "series join requires nonempty sequences"

    def test_parallel_join_coarse_grains(self):
        a = ("m1", "m2a", "m3")
        b = ("m1", "m2b", "m3")
        assert parallel_join(a, b) == ("m1", ("m2a", "m2b"), "m3")

    def test_parallel_requires_single_difference(self):
        with pytest.raises(ValueError):
            parallel_join(("m1", "m2"), ("m3", "m4"))
        with pytest.raises(ValueError):
            parallel_join(("m1", "m2"), ("m1", "m2", "m3"))

    def _random_pair_amplitudes(self, rng, atoms):
        return {
            (x, y): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for x in atoms
            for y in atoms
        }

    def test_series_homomorphism(self):
        # amplitude of a series join equals the product of the parts
        rng = random.Random(5)
        atoms = "abcd"
        for _ in range(50):
            amps = self._random_pair_amplitudes(rng, atoms)
            a = tuple(rng.choice(atoms) for _ in range(3))
            b = (a[-1],) + tuple(rng.choice(atoms) for _ in range(2))
            joined = series_join(a, b)
            expected = amp_mul(
                measurement_amplitude(a, amps), measurement_amplitude(b, amps)
            )
            assert abs(measurement_amplitude(joined, amps) - expected) < 1e-12

    def test_parallel_homomorphism(self):
        rng = random.Random(6)
        atoms = "abcd"
        for _ in range(50):
            amps = self._random_pair_amplitudes(rng, atoms)
            stem = tuple(rng.choice(atoms) for _ in range(3))
            i = rng.randrange(3)
            x, y = rng.sample(atoms, 2)
            a = stem[:i] + (x,) + stem[i + 1 :]
            b = stem[:i] + (y,) + stem[i + 1 :]
            joined = parallel_join(a, b)
            expected = amp_add(
                measurement_amplitude(a, amps), measurement_amplitude(b, amps)
            )
            assert abs(measurement_amplitude(joined, amps) - expected) < 1e-12


class TestPropagators:
    @pytest.mark.usefixtures("np")
    def test_zero_momentum_matrices(self):
        pp = zero_momentum_propagators()
        assert pp.a == pp.b == SQRT1_2
        assert pp.phase_alpha == 0.0
        assert pp.phase_beta == math.pi / 2
        assert pp.P[0, 0] == complex(SQRT1_2, 0)
        assert pp.P[0, 1] == complex(0, SQRT1_2)
        assert pp.P[1, 0] == pp.P[1, 1] == 0
        assert pp.Q[1, 0] == complex(0, SQRT1_2)
        assert pp.Q[1, 1] == complex(SQRT1_2, 0)
        assert pp.Q[0, 0] == pp.Q[0, 1] == 0

    def test_boundary_case_non_reversing(self):
        pp = make_propagators(1.0, 0.0)
        assert verify_propagator_constraints(pp).ok

    def test_normalization_rejected(self):
        with pytest.raises(ValueError):
            make_propagators(0.9, 0.1)

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: make_propagators(math.nan, 1.0), "a=nan"),
            (lambda: make_propagators(1.0, 0.0, phase_beta=math.inf), "phase_beta=inf"),
            (lambda: propagators_from_mass(math.nan, 1.0), "mass=nan, epsilon=1.0"),
            (lambda: propagators_from_mass(math.inf, 1.0), "mass=inf, epsilon=1.0"),
            (lambda: propagators_from_mass(1.0, math.inf), "mass=1.0, epsilon=inf"),
            # finite factors whose product overflows
            (lambda: propagators_from_mass(1e308, 10.0), "mass=1e[+]308, epsilon=10.0"),
            (lambda: propagators_from_theta(math.inf), "theta must be finite, got inf"),
            (lambda: propagators_from_theta(-math.inf), "theta must be finite, got -inf"),
            (lambda: propagators_from_theta(math.nan), "theta must be finite, got nan"),
        ],
    )
    def test_non_finite_parameters_rejected(self, build, named):
        # NaN passes every range check and cos(inf) raises a bare "math domain
        # error", so both must be caught by name
        with pytest.raises(ValueError, match=named):
            build()

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            make_propagators(-0.6, 0.8)

    def test_constraints_zero_momentum(self):
        report = verify_propagator_constraints(zero_momentum_propagators())
        assert report.ok
        assert set(report.residuals) == {
            "completeness",
            "norm-preserving-row-p",
            "norm-preserving-row-q",
            "off-diagonal-wz",
            "off-diagonal-zw",
            "unitarity",
        }

    def test_constraints_random_angle_sweep(self):
        rng = random.Random(9)
        for _ in range(50):
            theta = rng.uniform(0, math.pi / 2)
            report = verify_propagator_constraints(propagators_from_theta(theta))
            assert report.ok, report.residuals

    def test_missing_quarter_turn_breaks_off_diagonal(self):
        pp = make_propagators(SQRT1_2, SQRT1_2, phase_beta=0.0)
        report = verify_propagator_constraints(pp)
        assert not report.ok
        assert report.residuals["off-diagonal-wz"] > 0.9
        assert not report.canonical_gauge

    @pytest.mark.parametrize("pp", [
        zero_momentum_propagators(),
        propagators_from_theta(0.3),
        make_propagators(1.0, 0.0),
        make_propagators(0.6, 0.8, 0.3, 1.1),
        make_propagators(SQRT1_2, SQRT1_2, phase_beta=0.0),
    ], ids=["zero-momentum", "theta-0.3", "non-reversing", "gauge", "no-quarter-turn"])
    def test_matrix_residuals_are_the_largest_entry(self, np, pp):
        residuals = dict(verify_propagator_constraints(pp).residuals)
        largest = max(residuals[key] for key in (
            "norm-preserving-row-p", "norm-preserving-row-q", "off-diagonal-wz", "off-diagonal-zw"
        ))
        assert residuals["completeness"] == residuals["unitarity"] == largest
        # the matrix products in numpy, the reference, round differently
        P, Q, identity = pp.P, pp.Q, np.eye(2)
        completeness = np.max(np.abs(Q.conj().T @ Q + P.conj().T @ P - identity))
        unitarity = np.max(np.abs((P + Q).conj().T @ (P + Q) - identity))
        assert abs(completeness - largest) <= 1e-15
        assert abs(unitarity - largest) <= 1e-15

    def test_mass_bridge_normalized(self):
        pp = propagators_from_mass(2.0, 0.05)
        assert verify_propagator_constraints(pp).ok
        assert pp.b == math.sin(0.1)

    def test_magnitude_solutions_satisfy_system(self):
        rng = random.Random(21)
        for _ in range(50):
            theta = rng.uniform(0.01, math.pi / 2 - 0.01)
            a, b = math.cos(theta), math.sin(theta)
            for c, d in transition_magnitude_solutions(a, b):
                assert abs(c * c + d * d - 1) < 1e-12
                assert abs(a * c - b * d) < 1e-12
                assert (a == d and b == c) or (b == -c and a == -d)


GAUGE_PAIR = make_propagators(0.6, 0.8, 0.3, 1.1)
GAUGE_PAIR_REPR = "PropagatorPair(a=0.6, b=0.8, phase_alpha=0.3, phase_beta=1.1)"
# each immutable value type: two equal instances built apart, a different
# instance, and the exact repr
VALUE_TYPES = {
    "PropagatorPair": (
        lambda: make_propagators(0.6, 0.8, 0.3, 1.1),
        make_propagators(0.8, 0.6, 0.3, 1.1),
        GAUGE_PAIR_REPR,
    ),
    "PathWeight": (
        lambda: checkerboard.PathWeight(2, complex(-0.01, 0.0)),
        checkerboard.PathWeight(2, 0.01j),
        "PathWeight(reversals=2, weight=(-0.01+0j))",
    ),
    "FeynmanWeighting": (
        lambda: FeynmanWeighting(1.0, 0.1),
        FeynmanWeighting(1.0, 0.2),
        "FeynmanWeighting(mass=1.0, epsilon=0.1)",
    ),
    "DerivedWeighting": (
        lambda: DerivedWeighting(make_propagators(0.6, 0.8, 0.3, 1.1)),
        DerivedWeighting(zero_momentum_propagators()),
        f"DerivedWeighting(propagators={GAUGE_PAIR_REPR})",
    ),
    "Spinor": (
        lambda: Spinor(complex(0.6, 0.1), complex(-0.0, -0.77)),
        Spinor(complex(0.6, 0.1), 0j),
        "Spinor(phi_p=(0.6+0.1j), phi_q=(-0-0.77j))",
    ),
}


class TestValueTypes:
    """The six value classes: repr, equality, hash, immutability, defaults."""

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_repr(self, name):
        build, _, expected = VALUE_TYPES[name]
        assert repr(build()) == expected

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_equal_instances_compare_and_hash_equal(self, name):
        build, other, _ = VALUE_TYPES[name]
        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != other
        assert len({first, second, other}) == 2

    def test_hash_is_that_of_the_field_values(self):
        assert hash(GAUGE_PAIR) == hash((0.6, 0.8, 0.3, 1.1))
        assert hash(Spinor(1j, 2.0)) == hash((1j, 2.0))

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_fields_cannot_be_assigned(self, name):
        value = VALUE_TYPES[name][0]()
        for field in type(value).__annotations__:
            with pytest.raises(AttributeError):
                setattr(value, field, 0.0)

    def test_report_fields_cannot_be_assigned(self):
        report = verify_propagator_constraints(GAUGE_PAIR)
        for field in ("residuals", "tolerance", "canonical_gauge"):
            with pytest.raises(AttributeError):
                setattr(report, field, None)

    def test_report_repr_and_equality(self):
        report = verify_propagator_constraints(make_propagators(1.0, 0.0))
        residuals = ", ".join(f"'{key}': 0.0" for key in (
            "completeness", "norm-preserving-row-p", "norm-preserving-row-q",
            "off-diagonal-wz", "off-diagonal-zw", "unitarity",
        ))
        assert repr(report) == (
            f"ConstraintReport(residuals={{{residuals}}}, tolerance=1e-12, canonical_gauge=True)"
        )
        assert report == verify_propagator_constraints(make_propagators(1.0, 0.0))
        assert report != verify_propagator_constraints(GAUGE_PAIR)
        with pytest.raises(TypeError):  # the residuals are a dict
            hash(report)

    def test_report_defaults(self):
        report = checkerboard.ConstraintReport({"x": 0.5})
        assert report.tolerance == 1e-12
        assert report.canonical_gauge is True
        assert repr(report) == (
            "ConstraintReport(residuals={'x': 0.5}, tolerance=1e-12, canonical_gauge=True)"
        )
        assert report.ok is False
        assert checkerboard.ConstraintReport({"x": 0.5}, tolerance=0.5).ok is True

    def test_propagator_defaults_are_the_canonical_gauge(self):
        pp = checkerboard.PropagatorPair(0.6, 0.8)
        assert (pp.phase_alpha, pp.phase_beta) == (0.0, math.pi / 2)
        assert pp.is_canonical_gauge and not GAUGE_PAIR.is_canonical_gauge

    def test_matrices(self, np):
        diag, rev = GAUGE_PAIR.diagonal_entry, GAUGE_PAIR.reversal_entry
        assert diag == 0.6 * complex(math.cos(0.3), math.sin(0.3))
        assert rev == 0.8 * complex(math.cos(1.1), math.sin(1.1))
        for matrix, expected in (
            (GAUGE_PAIR.P, [[diag, rev], [0, 0]]),
            (GAUGE_PAIR.Q, [[0, 0], [rev, diag]]),
        ):
            assert matrix.shape == (2, 2) and matrix.dtype == complex
            assert np.array_equal(matrix, np.array(expected, dtype=complex))
        assert np.array_equal(Spinor(1j, 2.0).as_array(), np.array([1j, 2.0]))
        # each access builds a new array
        assert GAUGE_PAIR.P is not GAUGE_PAIR.P

    def test_values_are_named_tuples(self):
        a, b, alpha, beta = GAUGE_PAIR
        assert (a, b, alpha, beta) == GAUGE_PAIR == (0.6, 0.8, 0.3, 1.1)
        assert Spinor(1j, 2.0) == (1j, 2.0)

    def test_path_weight_dispatches_on_the_weighting_type(self):
        seq = InfluenceSequence.from_string("PQP", "P")
        feynman = path_weight(seq, FeynmanWeighting(1.0, 0.1))
        derived = path_weight(seq, DerivedWeighting(GAUGE_PAIR))
        assert type(feynman) is type(derived) is checkerboard.PathWeight
        assert feynman == checkerboard.PathWeight(2, (0.1j) * (0.1j))
        rev, diag = GAUGE_PAIR.reversal_entry, GAUGE_PAIR.diagonal_entry
        assert derived == checkerboard.PathWeight(2, (1 + 0j) * diag * rev * rev)

    @pytest.mark.parametrize("weighting", [
        (1.0, 0.1), (GAUGE_PAIR,), GAUGE_PAIR, None, "derived",
    ], ids=["mass-epsilon-tuple", "pair-tuple", "pair", "none", "text"])
    def test_path_weight_rejects_other_weightings(self, weighting):
        # a tuple of a weighting's values is not that weighting
        with pytest.raises(TypeError, match="unsupported weighting"):
            path_weight(InfluenceSequence.from_string("PQP", "P"), weighting)


class TestReversals:
    def test_pqp(self):
        assert reversal_count(InfluenceSequence.from_string("PQP", "P")) == 2

    def test_no_reversals(self):
        assert reversal_count(InfluenceSequence.from_string("PPP", "P")) == 0

    def test_initial_reversal_counts(self):
        assert reversal_count(InfluenceSequence.from_string("QPP", "P")) == 2

    def test_missing_initial_helicity(self):
        with pytest.raises(ValueError):
            reversal_count(InfluenceSequence.from_string("PQ"))


class TestPathWeight:
    def test_feynman_two_reversals(self):
        got = path_weight(
            InfluenceSequence.from_string("PQP", "P"), FeynmanWeighting(1.0, 0.1)
        )
        assert got.reversals == 2
        assert abs(got.weight - (-0.01)) < 1e-15
        assert got.weight.imag == 0.0

    def test_derived_straight_path(self):
        got = path_weight(
            InfluenceSequence.from_string("PP", "P"),
            DerivedWeighting(zero_momentum_propagators()),
        )
        assert got.weight.imag == 0.0
        assert abs(got.weight.real - 0.5) < 1e-15

    def test_derived_single_reversal(self):
        got = path_weight(
            InfluenceSequence.from_string("PQ", "P"),
            DerivedWeighting(zero_momentum_propagators()),
        )
        assert got.weight.real == 0.0
        assert abs(got.weight.imag - 0.5) < 1e-15

    def test_reversal_law_exact(self):
        # each reversal contributes exactly i on top of the (1/sqrt 2)^L magnitude
        rng = random.Random(33)
        weighting = DerivedWeighting(zero_momentum_propagators())
        for _ in range(200):
            length = rng.randint(1, 40)
            moves = "".join(rng.choice("PQ") for _ in range(length))
            initial = rng.choice("PQ")
            seq = InfluenceSequence.from_string(moves, initial)
            # independent reversal count straight off the move string
            transitions = zip(initial + moves, moves)
            oracle_reversals = sum(1 for prev, move in transitions if prev != move)
            got = path_weight(seq, weighting)
            assert got.reversals == oracle_reversals
            assert got.weight == law_weight(length, oracle_reversals)

    def test_unknown_weighting(self):
        with pytest.raises(TypeError):
            path_weight(InfluenceSequence.from_string("P", "P"), object())


UNIT_SPINORS = {"P": Spinor(1 + 0j, 0j), "Q": Spinor(0j, 1 + 0j)}
# zero momentum, two angles, a mass bridge and a non-canonical gauge
THREE_ROUTE_PAIRS = [
    zero_momentum_propagators(),
    propagators_from_theta(0.7),
    propagators_from_theta(1.4),
    propagators_from_mass(0.9, 0.6),
    make_propagators(0.6, 0.8, 0.3, 1.1),
]
THREE_ROUTE_IDS = ["zero-momentum", "theta-0.7", "theta-1.4", "mass-0.9-eps-0.6", "gauge"]


class TestSpinorPropagation:
    @pytest.mark.usefixtures("np")
    def test_single_move_formula(self):
        pp = propagators_from_theta(0.7)
        initial = Spinor(complex(0.3, 0.1), complex(-0.2, 0.4))
        out = sequence_amplitude(InfluenceSequence.from_string("P"), pp, initial)
        expected = pp.P[0, 0] * initial.phi_p + pp.P[0, 1] * initial.phi_q
        assert out.phi_p == expected
        assert out.phi_q == 0

    def test_empty_sequence_is_identity(self):
        pp = zero_momentum_propagators()
        initial = Spinor(0.6, 0.8j)
        out = sequence_amplitude(InfluenceSequence.from_string(""), pp, initial)
        assert (out.phi_p, out.phi_q) == (initial.phi_p, initial.phi_q)

    def test_reversed_order_matrix_product(self, np):
        # [P, Q] acts as the matrix product Q @ P on the initial spinor
        pp = propagators_from_theta(0.4)
        initial = Spinor(complex(0.5, -0.1), complex(0.2, 0.7))
        out = sequence_amplitude(InfluenceSequence.from_string("PQ"), pp, initial)
        expected = pp.Q @ pp.P @ initial.as_array()
        assert np.allclose(out.as_array(), expected, atol=1e-15)

    def test_unordered_two_paths(self, np):
        pp = zero_momentum_propagators()
        initial = Spinor(1, 0)
        out = unordered_amplitude(UnorderedInfluenceCount(1, 1), pp, initial)
        expected = (pp.Q @ pp.P + pp.P @ pp.Q) @ initial.as_array()
        assert np.allclose(out.as_array(), expected, atol=1e-15)

    def test_unordered_single_ordering(self, np):
        pp = propagators_from_theta(0.3)
        initial = Spinor(0.6, 0.8)
        out = unordered_amplitude(UnorderedInfluenceCount(1, 0), pp, initial)
        expected = pp.P @ initial.as_array()
        assert np.allclose(out.as_array(), expected, atol=1e-15)

    def test_unordered_three_paths_brute_force(self, np):
        pp = propagators_from_theta(1.1)
        initial = Spinor(complex(0.1, 0.4), complex(0.9, -0.2))
        out = unordered_amplitude(UnorderedInfluenceCount(2, 1), pp, initial)
        # oracle: explicit reversed-order matrix sums for PPQ, PQP, QPP
        P, Q = pp.P, pp.Q
        expected = (Q @ P @ P + P @ Q @ P + P @ P @ Q) @ initial.as_array()
        assert np.allclose(out.as_array(), expected, atol=1e-14)

    def test_unordered_single_long_ordering(self):
        pp = propagators_from_theta(0.3)
        initial = Spinor(0.6, 0.8)
        out = unordered_amplitude(UnorderedInfluenceCount(2000, 0), pp, initial)
        expected = sequence_amplitude(InfluenceSequence(("P",) * 2000), pp, initial)
        assert out == expected

    @pytest.mark.parametrize("pp", THREE_ROUTE_PAIRS, ids=THREE_ROUTE_IDS)
    @pytest.mark.parametrize("initial", ["P", "Q"])
    def test_unordered_equals_pathsum(self, pp, initial):
        # the orderings with c Q moves are the strings that end at n - 2c, and
        # both sums add them in the same order, so == holds, not just a tolerance
        unit = UNIT_SPINORS[initial]
        got, want = [], []
        for n in range(11):
            k = kernel_pathsum(n, pp, initial)
            for c in range(n + 1):
                out = unordered_amplitude(UnorderedInfluenceCount(n - c, c), pp, unit)
                got += [out.phi_p, out.phi_q]
                want += [k.get((n - 2 * c, "P"), 0j), k.get((n - 2 * c, "Q"), 0j)]
        assert got == want

    @pytest.mark.parametrize("pp", THREE_ROUTE_PAIRS, ids=THREE_ROUTE_IDS)
    def test_sequence_equals_derived_path_weight(self, pp):
        weighting = DerivedWeighting(pp)
        mismatches = []
        for initial in ("P", "Q"):
            for length in range(9):
                for moves in itertools.product(("P", "Q"), repeat=length):
                    seq = InfluenceSequence(moves, initial)
                    out = sequence_amplitude(seq, pp, UNIT_SPINORS[initial])
                    weight = path_weight(seq, weighting).weight
                    last = moves[-1] if moves else initial
                    expected = (weight, 0j) if last == "P" else (0j, weight)
                    if (out.phi_p, out.phi_q) != expected:
                        mismatches.append(seq)
        assert mismatches == []

    def test_unordered_cap(self):
        with pytest.raises(CapExceededError):
            unordered_amplitude(
                UnorderedInfluenceCount(10, 10), zero_momentum_propagators(), Spinor(1, 0), cap=10
            )

    def test_spinor_norm_and_normalize(self):
        spinor = Spinor(3, 4j)
        assert spinor.norm() == 25
        assert abs(spinor.normalized().norm() - 1) < 1e-15
        with pytest.raises(ValueError):
            Spinor(0, 0).normalized()


class TestFieldStepping:
    def test_single_step_hand_values(self):
        pp = zero_momentum_propagators()
        field = CheckerboardField.point_source("P", 1)
        out = step_field(field, pp)
        assert out.spinor_at(1).phi_p == complex(SQRT1_2, 0)
        assert out.spinor_at(-1).phi_q == complex(0, SQRT1_2)
        probs = [born(out.spinor_at(1).phi_p), born(out.spinor_at(-1).phi_q)]
        assert abs(probs[0] - 0.5) < 1e-15
        assert abs(probs[1] - 0.5) < 1e-15
        assert out.step_count == 1

    def test_non_reversing_limit_translates(self):
        pp = make_propagators(1.0, 0.0)
        field = CheckerboardField.point_source("P", 5)
        for _ in range(5):
            field = step_field(field, pp)
        assert field.spinor_at(5).phi_p == 1
        assert field.total_probability() == 1.0

    def test_probability_conserved(self):
        pp = propagators_from_theta(0.9)
        field = CheckerboardField.point_source("Q", 50)
        for _ in range(50):
            field = step_field(field, pp)
            assert abs(field.total_probability() - 1.0) < 1e-12

    def test_boundary_is_hard_error(self):
        pp = zero_momentum_propagators()
        field = CheckerboardField.point_source("P", 1)  # radius 2
        field = step_field(field, pp)
        field = step_field(field, pp)
        with pytest.raises(BoundaryError):
            step_field(field, pp)

    def test_sites_mapping(self):
        field = CheckerboardField.point_source("P", 2)
        assert set(field.sites) == {0}
        assert field.sites[0].phi_p == 1

    def test_fields_take_no_step_size(self):
        # the lattice is dimensionless; a step size is never read, so an old
        # positional or keyword epsilon fails instead of landing elsewhere
        field = CheckerboardField([0j] * 3, [1 + 0j, 0j, 0j], 1)
        assert field.step_count == 0
        with pytest.raises(TypeError):
            CheckerboardField([0j] * 3, [0j] * 3, 1, 0.05)
        with pytest.raises(TypeError):
            CheckerboardField.point_source("P", 2, epsilon=0.05)

    def test_arrays_must_cover_the_lattice(self):
        with pytest.raises(ValueError) as info:
            CheckerboardField([0j] * 3, [0j] * 5, 1)
        assert str(info.value) == "field arrays must cover sites -radius..+radius"

    def test_point_source_needs_a_helicity(self):
        with pytest.raises(ValueError) as info:
            CheckerboardField.point_source("X", 3)
        assert str(info.value) == "helicity must be 'P' or 'Q', got 'X'"

    def test_site_outside_the_lattice_rejected(self):
        field = CheckerboardField.point_source("P", 2)  # radius 3
        assert field.spinor_at(3).phi_p == 0
        with pytest.raises(ValueError) as info:
            field.spinor_at(4)
        assert str(info.value) == "site 4 outside allocated radius 3"


# -- per-site loops: the reference for the column extraction -----------------


def loop_sites(field):
    out = {}
    for i in range(2 * field.radius + 1):
        p, q = field.psi_p[i], field.psi_q[i]
        if p != 0 or q != 0:
            out[i - field.radius] = Spinor(complex(p), complex(q))
    return out


def loop_kernel(field):
    out = {}
    for position, spinor in loop_sites(field).items():
        if spinor.phi_p != 0:
            out[(position, "P")] = spinor.phi_p
        if spinor.phi_q != 0:
            out[(position, "Q")] = spinor.phi_q
    return out


def same_items(got: dict, expected: dict) -> bool:
    # repr tells -0.0 from 0.0 and lets NaN equal itself; order matters
    return repr(list(got.items())) == repr(list(expected.items()))


# signed zeros, NaN, a subnormal and ordinary values, so the nonzero filter
# sees every case the loop's `!= 0` distinguishes
COMPONENTS = [0.0, -0.0, 1.0, -0.5, 5e-324, math.nan, math.inf]
site_values = st.builds(complex, st.sampled_from(COMPONENTS), st.sampled_from(COMPONENTS))
# (radius, psi_p, psi_q) of a user-built field
arbitrary_fields = st.integers(0, 6).flatmap(
    lambda r: st.tuples(
        st.just(r),
        st.lists(site_values, min_size=2 * r + 1, max_size=2 * r + 1),
        st.lists(site_values, min_size=2 * r + 1, max_size=2 * r + 1),
    )
)
thetas = st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2))


class TestColumnsAgainstLoops:
    @given(psi=arbitrary_fields)
    def test_arbitrary_fields(self, psi):
        radius, psi_p, psi_q = psi
        field = CheckerboardField(psi_p, psi_q, radius)
        expected = loop_kernel(field)
        assert same_items(field.sites, loop_sites(field))
        assert same_items(field_kernel(field), expected)
        assert repr(KernelColumns.from_field(field).probabilities) == repr(
            [born(amp) for amp in expected.values()]
        )

    @given(steps=st.integers(0, 40), theta=thetas, initial=st.sampled_from(["P", "Q"]))
    def test_history_matches_stepped_fields(self, steps, theta, initial):
        pp = propagators_from_theta(theta)
        history = kernel_history(steps, pp, initial)
        assert len(history) == steps + 1
        field = CheckerboardField.point_source(initial, steps)
        for t, columns in enumerate(history):
            if t:
                field = step_field(field, pp)
            expected = loop_kernel(field)
            assert same_items(columns.as_kernel(), expected)
            assert repr(columns.probabilities) == repr(
                [born(amp) for amp in expected.values()]
            )
        assert same_items(kernel_matrix(steps, pp, initial), loop_kernel(field))

    def test_from_kernel_sorts_and_keeps_zeros(self):
        # theta 0 forbids reversals: the path sum holds exact-zero entries
        k = kernel_pathsum(6, propagators_from_theta(0.0), "Q")
        assert 0j in k.values()
        columns = KernelColumns.from_kernel(k)
        assert same_items(columns.as_kernel(), dict(sorted(k.items())))

    def test_from_kernel_of_no_entries_is_empty(self):
        assert KernelColumns.from_kernel({}) == KernelColumns([], [], [])


# -- whole numpy arrays: the reference for the light-cone list stepping -------


def numpy_step(psi_p, psi_q, pp):
    """One transfer-matrix step of whole complex128 arrays; None where
    `step_field` must raise BoundaryError."""
    import numpy as np

    if psi_p[0] != 0 or psi_q[0] != 0 or psi_p[-1] != 0 or psi_q[-1] != 0:
        return None
    diag, off = pp.diagonal_entry, pp.reversal_entry
    new_p, new_q = np.zeros_like(psi_p), np.zeros_like(psi_q)
    with np.errstate(all="ignore"):  # NaN and inf sites
        new_p[1:] = diag * psi_p[:-1] + off * psi_q[:-1]
        new_q[:-1] = off * psi_p[1:] + diag * psi_q[1:]
    return new_p, new_q


def numpy_columns(psi_p, psi_q, radius):
    """(positions, helicities, amplitudes, probabilities) of the nonzero
    components, site-major with P before Q."""
    import numpy as np

    stacked = np.stack((psi_p, psi_q), axis=1)
    site, helicity = np.nonzero(stacked)
    amplitudes = stacked[site, helicity]
    with np.errstate(all="ignore"):
        probabilities = amplitudes.real**2 + amplitudes.imag**2
    return [
        (site - radius).tolist(),
        np.array(["P", "Q"])[helicity].tolist(),
        amplitudes.tolist(),
        probabilities.tolist(),
    ]


def list_columns(columns):
    return [*columns, columns.probabilities]


lattice_pairs = st.one_of(
    st.builds(propagators_from_theta, thetas),
    # b = sin(mass*eps) so small that a few reversals underflow to zero inside
    # the light cone, with signed zeros where an i*i product lands
    st.builds(propagators_from_mass, st.floats(5e-324, 1e-100), st.floats(0.5, 2.0)),
)


class TestListsAgainstNumpy:
    # repr tells -0.0 from 0.0, so every column value must match bit for bit
    @settings(deadline=None)
    @given(steps=st.integers(0, 150), pp=lattice_pairs, initial=st.sampled_from(["P", "Q"]))
    def test_history_bit_for_bit(self, np, steps, pp, initial):
        radius = steps + 1
        psi = {h: np.zeros(2 * radius + 1, dtype=complex) for h in "PQ"}
        psi[initial][radius] = 1
        psi_p, psi_q = psi["P"], psi["Q"]
        history = kernel_history(steps, pp, initial)
        for t, columns in enumerate(history):
            if t:
                psi_p, psi_q = numpy_step(psi_p, psi_q, pp)
            assert repr(list_columns(columns)) == repr(numpy_columns(psi_p, psi_q, radius))

    @pytest.mark.parametrize("initial", ["P", "Q"])
    @pytest.mark.parametrize(
        "pp",
        [propagators_from_theta(math.pi / 2), propagators_from_mass(1e-200, 1.0),
         propagators_from_theta(0.0), zero_momentum_propagators()],
        ids=["theta-pi/2", "tiny-mass", "theta-0", "zero-momentum"],
    )
    def test_point_source_stepped_to_its_edges(self, np, pp, initial):
        # sized for 24 steps, stepped on while the edge sites stay zero: where
        # a^t and b*a^(t-1) underflow, the light cone reaches both edges
        radius = 25
        field = CheckerboardField.point_source(initial, radius - 1)
        arrays = tuple(np.array(psi, dtype=complex) for psi in (field.psi_p, field.psi_q))
        for _ in range(2 * radius):
            arrays = numpy_step(*arrays, pp)
            if arrays is None:
                with pytest.raises(BoundaryError):
                    step_field(field, pp)
                return
            field = step_field(field, pp)
            assert repr([field.psi_p, field.psi_q]) == repr([a.tolist() for a in arrays])
            assert repr(list_columns(KernelColumns.from_field(field))) == repr(
                numpy_columns(*arrays, radius)
            )
        assert pp.a < 1e-16  # only theta pi/2 never raises

    # the edge sites feed their inner neighbours, here a signed zero
    @example(psi=(1, [complex(-0.0, 0.0)] * 3, [complex(-0.0, 0.0)] * 3), theta=0.5)
    @given(psi=arbitrary_fields, theta=thetas)
    def test_arbitrary_fields_step_bit_for_bit(self, np, psi, theta):
        radius, psi_p, psi_q = psi
        pp = propagators_from_theta(theta)
        arrays = (np.array(psi_p, dtype=complex), np.array(psi_q, dtype=complex))
        field = CheckerboardField(*arrays, radius)  # numpy arrays are copied to lists
        # a field of 2*radius + 1 sites reaches its edge within radius + 1 steps
        for _ in range(radius + 2):
            arrays = numpy_step(*arrays, pp)
            if arrays is None:
                with pytest.raises(BoundaryError):
                    step_field(field, pp)
                return
            field = step_field(field, pp)
            assert repr([field.psi_p, field.psi_q]) == repr([a.tolist() for a in arrays])
            assert repr(list_columns(KernelColumns.from_field(field))) == repr(
                numpy_columns(*arrays, radius)
            )

    @pytest.mark.parametrize("helicity", ["P", "Q"])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_boundary_on_both_sides(self, helicity, side):
        radius, pp = 3, zero_momentum_propagators()

        def field_at(position):
            psi = {"P": [0j] * (2 * radius + 1), "Q": [0j] * (2 * radius + 1)}
            psi[helicity][position + radius] = 1
            return CheckerboardField(psi["P"], psi["Q"], radius)

        step_field(field_at(side * (radius - 1)), pp)
        with pytest.raises(BoundaryError):
            step_field(field_at(side * radius), pp)


class TestKernels:
    def test_one_step_matches_field(self):
        pp = zero_momentum_propagators()
        for method in ("pathsum", "matrix"):
            k = kernel(1, pp, "P", method=method)
            assert k[(1, "P")] == complex(SQRT1_2, 0)
            assert k[(-1, "Q")] == complex(0, SQRT1_2)

    def test_two_step_four_path_oracle(self):
        # enumerate the four move strings by hand with plain complex arithmetic
        a, b = SQRT1_2, SQRT1_2
        same, flip = complex(a, 0), complex(0, b)
        expected = {
            (2, "P"): same * same,          # PP
            (0, "Q"): same * flip,          # PQ
            (0, "P"): flip * flip,          # QP
            (-2, "Q"): flip * same,         # QQ
        }
        pp = zero_momentum_propagators()
        for method in ("pathsum", "matrix"):
            got = kernel(2, pp, "P", method=method)
            assert set(got) == set(expected)
            for key, value in expected.items():
                assert abs(got[key] - value) < 1e-15

    def test_methods_agree_at_depth_ten(self):
        for theta in (0.2, 0.7853981633974483, 1.2):
            pp = propagators_from_theta(theta)
            for initial in ("P", "Q"):
                left = kernel_pathsum(10, pp, initial)
                right = kernel_matrix(10, pp, initial)
                assert kernel_discrepancy(left, right) < 1e-12

    def test_discrepancy_of_empty_kernels_is_zero(self):
        assert kernel_discrepancy({}, {}) == 0.0

    def test_pathsum_cap(self):
        with pytest.raises(CapExceededError):
            kernel_pathsum(40, zero_momentum_propagators(), "P")

    @pytest.mark.parametrize("steps", [0, 5, 15])
    def test_pathsum_cap_boundary(self, steps):
        pp = zero_momentum_propagators()
        assert kernel_pathsum(steps, pp, "P", cap=2**steps)
        with pytest.raises(CapExceededError):
            kernel_pathsum(steps, pp, "P", cap=2**steps - 1)

    def test_kernel_probabilities_sum_to_one(self):
        pp = propagators_from_theta(0.5)
        k = kernel_matrix(30, pp, "P")
        assert abs(sum(born(v) for v in k.values()) - 1) < 1e-12

    def test_pathsum_endpoints_on_one_parity(self):
        k = kernel_pathsum(5, zero_momentum_propagators(), "P")
        assert all((pos + 5) % 2 == 0 for pos, _ in k)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            kernel(2, zero_momentum_propagators(), "P", method="magic")

    @pytest.mark.parametrize("call", [
        lambda pp: kernel_matrix(-1, pp, "P"),
        lambda pp: kernel_history(-3, pp, "Q"),
        lambda pp: kernel_pathsum(-1, pp, "P"),
        lambda pp: kernel(-1, pp, "P"),
        lambda pp: kernel(-2, pp, "Q", method="pathsum"),
        lambda pp: CheckerboardField.point_source("P", -1),
    ], ids=["kernel_matrix", "kernel_history", "kernel_pathsum", "kernel-matrix",
            "kernel-pathsum", "point_source"])
    def test_negative_steps_rejected(self, call):
        with pytest.raises(ValueError, match="steps must be nonnegative, got -"):
            call(zero_momentum_propagators())

    def test_pathsum_cap_far_past_the_int_string_limit(self):
        # 2^20000 has 6,021 digits, more than str() of an int allows
        with pytest.raises(CapExceededError, match=r"2\^20000 sequences"):
            kernel_pathsum(20000, zero_momentum_propagators(), "P", cap=10**40)

    def test_bad_helicity(self):
        with pytest.raises(ValueError):
            kernel_pathsum(2, zero_momentum_propagators(), "X")


class TestSmallStepBridge:
    def test_reversal_amplitude_matches_corner_weight(self):
        # i*sin(m*eps) vs i*m*eps agree to cubic order in the step size
        for m_eps in (0.1, 0.01):
            pp = propagators_from_mass(m_eps, 1.0)
            derived = pp.reversal_entry
            corner = 1j * m_eps
            assert abs(derived - corner) < abs(m_eps) ** 3

    def test_bridge_across_step_sizes(self):
        rng = random.Random(2)
        for _ in range(50):
            mass = rng.uniform(0.1, 2.0)
            eps = rng.uniform(1e-4, 0.2)
            pp = propagators_from_mass(mass, eps)
            assert abs(pp.reversal_entry - 1j * mass * eps) <= abs(mass * eps) ** 3


# -- per-path loop: the reference for the blocked path sum --------------------


def loop_pathsum(steps, pp, initial_helicity):
    """One complex product per move and one dict update per move string, in
    itertools.product order."""
    entry = {
        ("P", "P"): pp.diagonal_entry,
        ("Q", "Q"): pp.diagonal_entry,
        ("P", "Q"): pp.reversal_entry,
        ("Q", "P"): pp.reversal_entry,
    }
    out = {}
    for moves in itertools.product(("P", "Q"), repeat=steps):
        weight = 1 + 0j
        position = 0
        previous = initial_helicity
        for move in moves:
            weight *= entry[(previous, move)]
            position += 1 if move == "P" else -1
            previous = move
        key = (position, previous)
        out[key] = out.get(key, 0j) + weight
    return out


def hex_items(k: dict) -> list:
    # float.hex tells -0.0 from 0.0 and shows every bit; order matters
    return [(key, v.real.hex(), v.imag.hex()) for key, v in k.items()]


BLOCK_EXPONENT = checkerboard._BLOCK_EXPONENT

angles = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]),
    st.floats(-2 * math.pi, 2 * math.pi),
)
propagator_pairs = st.one_of(
    st.builds(propagators_from_theta, st.sampled_from([0.0, math.pi / 2])),
    st.builds(propagators_from_theta, st.floats(0.0, math.pi / 2)),
    # mass*epsilon within [0, pi/2], where cos and sin are nonnegative
    st.builds(propagators_from_mass, st.floats(0.0, 1.5), st.floats(0.01, 1.0)),
    st.floats(0.0, math.pi / 2).flatmap(
        lambda t: st.builds(make_propagators, st.just(math.cos(t)), st.just(math.sin(t)),
                            angles, angles)
    ),
)


class TestPathsumAgainstLoop:
    @settings(deadline=None)
    @given(steps=st.integers(0, 13), pp=propagator_pairs, initial=st.sampled_from(["P", "Q"]))
    def test_bit_identical(self, steps, pp, initial):
        got = kernel_pathsum(steps, pp, initial)
        assert hex_items(got) == hex_items(loop_pathsum(steps, pp, initial))

    @pytest.mark.parametrize(
        "steps, pp, initial",
        [
            (BLOCK_EXPONENT - 1, propagators_from_mass(0.37, 0.61), "Q"),
            (BLOCK_EXPONENT, make_propagators(math.cos(0.4), math.sin(0.4), 1.1, -2.3), "P"),
            (BLOCK_EXPONENT + 1, propagators_from_theta(0.0), "Q"),
            (18, zero_momentum_propagators(), "P"),
        ],
        ids=["below-block", "one-block", "two-blocks", "steps-18"],
    )
    def test_bit_identical_across_blocks(self, steps, pp, initial):
        got = kernel_pathsum(steps, pp, initial)
        assert hex_items(got) == hex_items(loop_pathsum(steps, pp, initial))


def pathsum_peak_bytes(steps: int) -> int:
    """Peak traced allocation of one path sum."""
    tracemalloc.start()
    try:
        kernel_pathsum(steps, zero_momentum_propagators(), "P")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPathsumMemory:
    def test_peak_stays_flat_past_one_block(self):
        # 14 steps fill one block of strings and 18 steps weigh 16 of them, one
        # after another; a sum holding every string at once peaks 16x higher
        assert pathsum_peak_bytes(18) <= 2 * pathsum_peak_bytes(14)


# -- an exact oracle for the transfer matrix at any depth ------------------------
#
# With (a, b) = (3/5, 4/5) in the canonical gauge one step maps
#   5*psi_p'(x) = 3*psi_p(x-1) + 4i*psi_q(x-1)
#   5*psi_q'(x) = 4i*psi_p(x+1) + 3*psi_q(x+1)
# so 5^t times the field after t steps is a Gaussian integer at every site, and
# Python ints step it with no rounding at all (Feynman & Hibbs 1965, problem 2-6).
# The zero-momentum pair a = b = 1/sqrt(2) maps sqrt(2)*psi the same way with
# entries 1 and i, so there 2^(t/2) times the field is a Gaussian integer.

PYTHAGOREAN = make_propagators(0.6, 0.8)
ORACLE_BOUND = 1e-13


def exact_fields(steps: int, initial_helicity: str, diagonal: int, reversal: int):
    """s^t times the field after t = 0..steps steps, for a step matrix that is
    1/s times diagonal entry `diagonal` and reversal entry `reversal`*i: the
    lists (psi_p, psi_q) of (re, im) ints at the sites -t, -t+2, ..., t."""
    psi_p, psi_q = ([(1, 0)], [(0, 0)]) if initial_helicity == "P" else ([(0, 0)], [(1, 0)])
    yield psi_p, psi_q
    for _ in range(steps):
        # site k of step t feeds psi_p at site k + 1 and psi_q at site k of step t + 1
        pairs = list(zip(psi_p, psi_q))
        psi_p = [(0, 0)] + [
            (diagonal * pr - reversal * qi, diagonal * pi + reversal * qr)
            for (pr, pi), (qr, qi) in pairs
        ]
        psi_q = [
            (diagonal * qr - reversal * pi, diagonal * qi + reversal * pr)
            for (pr, pi), (qr, qi) in pairs
        ] + [(0, 0)]
        yield psi_p, psi_q


def oracle_error(columns, exact, scale) -> float:
    """Largest componentwise |float - exact/scale| over the sites of one
    exact_fields step; infinite if the columns hold any other entry."""
    psi_p, psi_q = exact
    t = len(psi_p) - 1
    got = columns.as_kernel()
    worst = 0.0
    for helicity, values in (("P", psi_p), ("Q", psi_q)):
        for k, (re, im) in enumerate(values):
            amp = got.pop((2 * k - t, helicity), 0j)
            worst = max(worst, abs(amp.real - re / scale), abs(amp.imag - im / scale))
    return math.inf if got else worst


def exact_born_sum(exact) -> int:
    return sum(re * re + im * im for values in exact for re, im in values)


class TestExactTransferMatrix:
    # worst seen: 3.4e-15 at 1000 steps from P, 1.6e-15 at 300 steps from Q
    @pytest.mark.parametrize("steps, initial", [(1000, "P"), (300, "Q")])
    def test_kernel_history_against_exact_oracle(self, steps, initial):
        history = kernel_history(steps, PYTHAGOREAN, initial)
        assert len(history) == steps + 1
        for t, (columns, exact) in enumerate(zip(history, exact_fields(steps, initial, 3, 4))):
            assert oracle_error(columns, exact, 5**t) < ORACLE_BOUND
        # Born probability is conserved exactly: the exact sum is 25^t
        assert exact_born_sum(exact) == 25**steps

    # the CLI's default propagator; worst seen: 1.1e-14 at 1000 steps from P, 4.7e-15 from Q
    @pytest.mark.parametrize("steps, initial", [(1000, "P"), (300, "Q")])
    def test_zero_momentum_history_against_exact_oracle(self, steps, initial):
        history = kernel_history(steps, zero_momentum_propagators(), initial)
        assert len(history) == steps + 1
        for t, (columns, exact) in enumerate(zip(history, exact_fields(steps, initial, 1, 1))):
            assert oracle_error(columns, exact, 2 ** (t / 2)) < ORACLE_BOUND
        assert exact_born_sum(exact) == 2**steps
