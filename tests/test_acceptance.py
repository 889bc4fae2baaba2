"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
Criteria 03 and 09 have their one home in the unit tests that README's
criteria table names.
"""

import math
import random
import time
from fractions import Fraction

from causetkit import (
    IntervalPair,
    InfluenceSequence,
    DerivedWeighting,
    LinearRelation,
    UnorderedInfluenceCount,
    causal_leq,
    count_orderings,
    decompose,
    distance,
    dual,
    enumerate_orderings,
    interval_scalar,
    kernel_discrepancy,
    kernel_matrix,
    kernel_pathsum,
    kinematic_state,
    make_propagators,
    path_weight,
    propagators_from_theta,
    reversal_count,
    step_field,
    transform_energy_momentum,
    transform_rates,
    validate,
    verify_propagator_constraints,
    zero_momentum_propagators,
)
from causetkit.checkerboard import CheckerboardField
from conftest import random_valid_poset

ANTICHAIN = "antichain-like"

I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def _run(number: int, description: str, body) -> None:
    try:
        body()
    except Exception:
        print(f"criterion {number:02d} FAIL - {description}")
        raise
    print(f"criterion {number:02d} PASS - {description}")


def _random_positive_fraction(rng, hi=30, max_den=20) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, max_den))


def test_criterion_01_counting():
    def body():
        start = time.perf_counter()
        assert count_orderings(UnorderedInfluenceCount(3, 2)) == 10
        listed = [str(s) for s in enumerate_orderings(UnorderedInfluenceCount(2, 1))]
        assert listed == ["PPQ", "PQP", "QPP"]
        assert time.perf_counter() - start < 1.0

    _run(1, "binomial counting and exact enumeration", body)


def test_criterion_02_figure_values():
    def body():
        assert distance(IntervalPair(Fraction(2), Fraction(-2))) == 2
        assert distance(IntervalPair(Fraction(3), Fraction(-1))) == 2
        sym, antisym = decompose(IntervalPair(Fraction(4), Fraction(2)))
        assert (sym.dp, sym.dq) == (3, 3)
        assert (antisym.dp, antisym.dq) == (1, -1)
        assert sym.dp * sym.dq + antisym.dp * antisym.dq == 8
        scalar = interval_scalar(IntervalPair(Fraction(2), Fraction(-2)))
        assert scalar.value == -4
        assert scalar.kind == ANTICHAIN

    _run(2, "distance, decomposition and interval scalar, exact arithmetic", body)


def test_criterion_04_kinematics_identity():
    def body():
        rng = random.Random(20240402)
        for _ in range(10_000):
            r_p = _random_positive_fraction(rng)
            r_q = _random_positive_fraction(rng)
            state = kinematic_state(r_p, r_q)
            assert state.energy**2 - state.momentum**2 == state.mass_squared
            m = _random_positive_fraction(rng, hi=12, max_den=10)
            n = _random_positive_fraction(rng, hi=12, max_den=10)
            rel = LinearRelation(m, n)
            direct = kinematic_state(*transform_rates(r_p, r_q, rel))
            via_energy = transform_energy_momentum(
                float(state.energy), float(state.momentum), rel
            )
            scale = 1 + abs(via_energy[0])
            assert abs(float(direct.energy) - via_energy[0]) <= 1e-12 * scale
            assert abs(float(direct.momentum) - via_energy[1]) <= 1e-12 * scale
        # rest case: E = M, and the boost produces (gamma*M, beta*gamma*M)
        rel = LinearRelation(4, 1)
        rest = kinematic_state(Fraction(3), Fraction(3))
        assert rest.energy == rest.mass == 3
        assert rest.momentum == 0
        energy, momentum = transform_energy_momentum(3.0, 0.0, rel)
        assert abs(energy - rel.gamma * 3) <= 1e-12
        assert abs(momentum - rel.beta_gamma * 3) <= 1e-12

    _run(4, "mass-energy-momentum identity and two-path transform consistency", body)


def test_criterion_05_propagator_constraints():
    def body():
        for i in range(100):
            theta = (math.pi / 2) * i / 99
            pp = make_propagators(math.cos(theta), math.sin(theta))
            report = verify_propagator_constraints(pp, tolerance=1e-12)
            assert report.ok, (theta, report.residuals)
        pp = zero_momentum_propagators()
        assert pp.a == pp.b == math.sqrt(0.5)
        assert pp.phase_alpha == 0.0
        assert pp.phase_beta == math.pi / 2
        # the entries of P = [[d, r], [0, 0]] and Q = [[0, 0], [r, d]], read
        # without numpy; test_checkerboard.py checks the arrays themselves
        assert pp.diagonal_entry == complex(math.sqrt(0.5), 0)
        assert pp.reversal_entry == complex(0, math.sqrt(0.5))

    _run(5, "conservation constraints across the angle grid, exact symmetric case", body)


def test_criterion_06_checkerboard_equivalence():
    def body():
        start = time.perf_counter()
        for theta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            pp = propagators_from_theta(theta)
            for steps in range(1, 17):
                left = kernel_pathsum(steps, pp, "P")
                right = kernel_matrix(steps, pp, "P")
                assert kernel_discrepancy(left, right) <= 1e-12, (theta, steps)
        assert time.perf_counter() - start < 60.0

    _run(6, "path-sum and transfer-matrix kernels agree componentwise", body)


def test_criterion_07_conservation_depth_1000():
    def body():
        start = time.perf_counter()
        pp = zero_momentum_propagators()
        field = CheckerboardField.point_source("P", 1000)
        for _ in range(1000):
            field = step_field(field, pp)
        assert abs(field.total_probability() - 1.0) <= 1e-9
        assert time.perf_counter() - start < 5.0

    _run(7, "Born probability conserved over 1000 transfer-matrix steps", body)


def test_criterion_08_reversal_law():
    def body():
        rng = random.Random(20240808)
        weighting = DerivedWeighting(zero_momentum_propagators())
        root = math.sqrt(0.5)
        for _ in range(1000):
            length = rng.randint(1, 50)
            moves = "".join(rng.choice("PQ") for _ in range(length))
            seq = InfluenceSequence.from_string(moves, rng.choice("PQ"))
            reversals = reversal_count(seq)
            magnitude = 1.0
            for _ in range(length):
                magnitude *= root
            expected = (magnitude + 0j) * I_POWERS[reversals % 4]
            got = path_weight(seq, weighting)
            assert got.reversals == reversals
            assert got.weight == expected

    _run(8, "derived zero-momentum weight equals (1/sqrt 2)^L * i^R exactly", body)


def test_criterion_10_poset_axioms():
    def body():
        rng = random.Random(20241010)
        for _ in range(100):
            poset = random_valid_poset(rng, max_events=12)
            assert validate(poset).ok
            events = poset.events
            for x in events:
                assert causal_leq(poset, x, x)
            for x in events:
                for y in events:
                    if causal_leq(poset, x, y) and causal_leq(poset, y, x):
                        assert x == y
            for x in events:
                for y in events:
                    if not causal_leq(poset, x, y):
                        continue
                    for z in events:
                        if causal_leq(poset, y, z):
                            assert causal_leq(poset, x, z)
            assert validate(dual(poset)).ok

    _run(10, "partial-order axioms and dual-order validity on random posets", body)
