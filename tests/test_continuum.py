"""The checkerboard kernel's continuum limit: the 1+1 Dirac propagator.

Feynman's checkerboard with the reversal weight i*m*epsilon approaches the
retarded Dirac propagator as the step shrinks (Feynman & Hibbs 1965, problem
2-6; Jacobson & Schulman 1984, J. Phys. A 17, 375).  From a P source, after
N = T/epsilon steps, at (t, x) = (T, site*epsilon) inside the light cone:

    K(x, Q) / epsilon  ->  i*m*J0(m*sqrt(t^2 - x^2))
    K(x, P) / epsilon  ->  -m*sqrt((t + x)/(t - x))*J1(m*sqrt(t^2 - x^2))

The edge of the cone, where the continuum kernel has its delta, is left
out: only |x| < 0.9t is compared.  The error is first order in epsilon, so
it halves as N doubles.

At any step size, the kernel's Fourier transform is the t-th power of the
one-step transfer matrix, whose eigenvalues give the lattice dispersion
relation cos(omega) = cos(m*epsilon)*cos(k).  Its group velocity
d(omega)/dk tends to a particle's beta = p/E at second order in epsilon.
"""

import cmath
import math
from fractions import Fraction

import pytest

from causetkit import kernel_matrix, kinematic_state, propagators_from_mass

MASS, T = 1.0, 3.0
# the largest error at N = 150, 300 and 600 is 2.155e-2, 1.067e-2 and 5.372e-3
LARGEST_ERROR_AT_600 = 5.5e-3


def bessel(order: int, z: float) -> float:
    """J0 or J1 by its power series, summed until a term no longer counts."""
    term = (z / 2) ** order / math.factorial(order)
    total, k = term, 0
    while abs(term) > 1e-17 * abs(total):
        k += 1
        term *= -((z / 2) ** 2) / (k * (k + order))
        total += term
    return total


def dirac_kernel(x: float, helicity: str) -> complex:
    s = MASS * math.sqrt(T * T - x * x)
    if helicity == "Q":
        return 1j * MASS * bessel(0, s)
    return -MASS * math.sqrt((T + x) / (T - x)) * bessel(1, s)


def largest_error(steps: int) -> float:
    eps = T / steps
    kernel = kernel_matrix(steps, propagators_from_mass(MASS, eps), "P")
    errors = [
        abs(amplitude / eps - dirac_kernel(site * eps, helicity))
        for (site, helicity), amplitude in kernel.items()
        if abs(site * eps) < 0.9 * T
    ]
    assert len(errors) > steps // 2  # both helicities at most sites inside the cone
    return max(errors)


def test_the_series_are_bessel_functions():
    # J0 and J1 at their first zeros and at a tabulated point
    assert abs(bessel(0, 2.404825557695773)) < 1e-15
    assert abs(bessel(1, 3.8317059702075125)) < 1e-15
    assert bessel(0, 1.0) == pytest.approx(0.7651976865579666, rel=1e-15)
    assert bessel(1, 1.0) == pytest.approx(0.44005058574493355, rel=1e-15)


def test_the_kernel_approaches_the_dirac_propagator_at_first_order():
    errors = [largest_error(steps) for steps in (150, 300, 600)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2
    assert errors[-1] < LARGEST_ERROR_AT_600


def transfer_matrix(steps: int, pp, k: float) -> list[list[complex]]:
    """U(k)^steps: entry (h, j) is the Fourier transform at wavenumber k of the
    kernel from a j source onto helicity h, sum over x of K(x, h) e^(-ikx)."""
    columns = [kernel_matrix(steps, pp, j) for j in "PQ"]
    return [
        [sum(a * cmath.exp(-1j * k * x) for (x, h), a in kernel.items() if h == row)
         for kernel in columns]
        for row in "PQ"
    ]


@pytest.mark.parametrize("k", [0.0, 0.3, 0.7, 1.2, math.pi / 2, 2.5, math.pi])
def test_the_kernel_keeps_the_lattice_dispersion_relation(k):
    # one step is U(k) = diag(e^(-ik), e^(ik)) [[cos(m eps), i sin(m eps)],
    # [i sin(m eps), cos(m eps)]]: det 1 and trace 2 cos(m eps) cos k, so its
    # eigenvalues are e^(+-i omega) with cos(omega) = cos(m eps) cos(k)
    # (Jacobson & Schulman 1984), and those of U(k)^t are e^(+-i t omega)
    mass, eps, steps = 1.0, 0.05, 40
    (a, b), (c, d) = transfer_matrix(steps, propagators_from_mass(mass, eps), k)
    omega = math.acos(math.cos(mass * eps) * math.cos(k))
    # the largest errors over these k were 7.0e-14 in the trace, 3.3e-15 in det
    assert abs((a * d - b * c) - 1) < 1e-13
    assert abs((a + d) - 2 * math.cos(steps * omega)) < 1e-12


def test_the_lattice_moves_at_the_particles_beta():
    # rates (1, 4) give M = 2 and p = 3/2.  On a lattice of mass 1 the packet
    # of wavenumber k = (p/M) eps moves at d(omega)/dk, read off the one-step
    # transfer matrix by a central difference: 0.598949, 0.599738, 0.599934
    # and 0.599984 at these eps, so beta - v quarters as eps halves.  The sign
    # of beta, which a P-heavy particle makes negative, is not tested here.
    state = kinematic_state(1, 4)
    assert (state.mass, state.momentum, state.beta) == (2, Fraction(3, 2), Fraction(3, 5))
    gaps = []
    for eps in (0.08, 0.04, 0.02, 0.01):
        pp = propagators_from_mass(1.0, eps)

        def omega(k):
            (a, _), (_, d) = transfer_matrix(1, pp, k)
            return math.acos((a + d).real / 2)

        k, delta = float(state.momentum / state.mass) * eps, 1e-4 * eps
        gaps.append(float(state.beta) - (omega(k + delta) - omega(k - delta)) / (2 * delta))
    assert all(gap > 0 for gap in gaps)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.9 <= coarse / fine <= 4.1
    assert gaps[-1] < 2e-5
