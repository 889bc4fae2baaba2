"""Amplitude calculus for influence sequences on the 1+1D checkerboard.

Sequences are quantified by pairs of real numbers (complex amplitudes):
parallel combination adds them, series combination multiplies them, and
probability follows the Born rule.  Requiring each one-step transition to
occur with total probability one constrains the per-move propagator matrices;
in the canonical gauge every reversal of direction carries a factor of i.
The kernel from an initial helicity state can be computed two independent
ways: brute-force summation over all move strings, or repeated transfer-matrix
steps of a spinor field on an integer lattice.

Every amplitude, from a spinor moved through one sequence to either kernel,
is computed in Python complex numbers.  Only `PropagatorPair.P`, `.Q` and
`Spinor.as_array` import numpy, inside their bodies, as they return arrays;
each call builds a new array.  The value types are named tuples, and
`kinematics`' influence sequences are only annotations here, so importing
this module loads neither `dataclasses` nor `kinematics`;
`unordered_amplitude` imports `kinematics` when it is called.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from . import DEFAULT_ENUMERATION_CAP, P_MOVE, Q_MOVE
from .errors import BoundaryError, CapExceededError

if TYPE_CHECKING:
    import numpy as np

    from .kinematics import InfluenceSequence, UnorderedInfluenceCount

Amplitude = complex

_TOL = 1e-12


def amp_add(a: Amplitude, b: Amplitude) -> Amplitude:
    """Component-wise sum (the parallel rule)."""
    return a + b


def amp_mul(a: Amplitude, b: Amplitude) -> Amplitude:
    """Complex product (the series rule)."""
    return a * b


def born(a: Amplitude) -> float:
    """Probability of a sequence with amplitude a: re^2 + im^2."""
    a = complex(a)
    return a.real * a.real + a.imag * a.imag


# -- measurement-sequence algebra ------------------------------------------
#
# A measurement sequence is a tuple of outcomes; an outcome is an atom or a
# tuple of atoms for a coarse-grained slot that does not distinguish them.


def series_join(a: tuple, b: tuple) -> tuple:
    """Concatenate sequences that share one common endpoint."""
    a, b = tuple(a), tuple(b)
    if not a or not b:
        raise ValueError("series join requires nonempty sequences")
    if a[-1] != b[0]:
        raise ValueError(
            f"series join endpoint mismatch: {a[-1]!r} != {b[0]!r}"
        )
    return a + b[1:]


def _atoms(outcome) -> tuple:
    return outcome if isinstance(outcome, tuple) else (outcome,)


def parallel_join(a: tuple, b: tuple) -> tuple:
    """Merge two sequences identical except in one slot into a coarse-grained one."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("parallel join requires sequences of equal length")
    differing = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if len(differing) != 1:
        raise ValueError(
            "parallel join requires sequences differing in exactly one outcome"
        )
    i = differing[0]
    merged = tuple(sorted(set(_atoms(a[i])) | set(_atoms(b[i])), key=repr))
    return a[:i] + (merged,) + a[i + 1 :]


def expand_sequence(seq: tuple) -> list[tuple]:
    """All fully ordered sequences a coarse-grained sequence contains."""
    return list(itertools.product(*(_atoms(o) for o in seq)))


def measurement_amplitude(seq: tuple, pair_amplitude: Mapping) -> Amplitude:
    """Amplitude of a (possibly coarse-grained) sequence from its adjacent-pair amplitudes.

    Expansions add, adjacent pairs multiply; this realizes the series/parallel
    calculus on concrete data.
    """
    total = 0j
    for expansion in expand_sequence(seq):
        weight = 1 + 0j
        for x, y in zip(expansion, expansion[1:]):
            weight *= pair_amplitude[(x, y)]
        total += weight
    return total


# -- propagator pair ---------------------------------------------------------


def _unit_phase(angle: float) -> complex:
    # Canonical gauge angles stay exactly on the complex axes so that axis
    # components that must vanish are exactly zero.
    if angle == 0.0:
        return 1 + 0j
    if angle == math.pi / 2:
        return 1j
    if angle == -math.pi / 2:
        return -1j
    if angle == math.pi:
        return -1 + 0j
    return complex(math.cos(angle), math.sin(angle))


class PropagatorPair(NamedTuple):
    """Per-move 2x2 amplitude matrices acting on helicity spinors.

    P = [[a*e^(i*alpha), b*e^(i*beta)], [0, 0]] and
    Q = [[0, 0], [b*e^(i*beta), a*e^(i*alpha)]] with a^2 + b^2 = 1.
    The canonical gauge is alpha = 0, beta = pi/2 (reversals carry a factor
    of i); other phases are accepted but flagged as non-canonical.
    """

    a: float
    b: float
    phase_alpha: float = 0.0
    phase_beta: float = math.pi / 2

    @property
    def diagonal_entry(self) -> complex:
        """Amplitude of a direction-preserving step: a*e^(i*alpha)."""
        return self.a * _unit_phase(self.phase_alpha)

    @property
    def reversal_entry(self) -> complex:
        """Amplitude of a direction reversal: b*e^(i*beta)."""
        return self.b * _unit_phase(self.phase_beta)

    @property
    def P(self) -> np.ndarray:
        import numpy as np

        return np.array(
            [[self.diagonal_entry, self.reversal_entry], [0, 0]], dtype=complex
        )

    @property
    def Q(self) -> np.ndarray:
        import numpy as np

        return np.array(
            [[0, 0], [self.reversal_entry, self.diagonal_entry]], dtype=complex
        )

    @property
    def is_canonical_gauge(self) -> bool:
        return self.phase_alpha == 0.0 and self.phase_beta == math.pi / 2

    def transition_entry(self, previous: str, move: str) -> complex:
        """Matrix entry for arriving with helicity `move` after helicity `previous`."""
        return self.diagonal_entry if previous == move else self.reversal_entry


def make_propagators(
    a: float, b: float, phase_alpha: float = 0.0, phase_beta: float = math.pi / 2
) -> PropagatorPair:
    """Build the per-move matrices, enforcing a, b >= 0 and a^2 + b^2 = 1."""
    # every comparison with NaN is false, so the range checks below would pass it
    given = {"a": a, "b": b, "phase_alpha": phase_alpha, "phase_beta": phase_beta}
    if bad := [f"{name}={value!r}" for name, value in given.items() if not math.isfinite(value)]:
        raise ValueError(f"propagator parameters must be finite, got {', '.join(bad)}")
    # grid endpoints like cos(pi/2) land a rounding error below zero
    if a < -_TOL or b < -_TOL:
        raise ValueError("propagator magnitudes must be nonnegative")
    if abs(a * a + b * b - 1.0) > _TOL:
        raise ValueError(
            f"propagator magnitudes must satisfy a^2 + b^2 = 1, got {a * a + b * b}"
        )
    return PropagatorPair(a, b, phase_alpha, phase_beta)


def propagators_from_theta(theta: float) -> PropagatorPair:
    """Propagators with (a, b) = (cos(theta), sin(theta)) for theta in [0, pi/2]."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return make_propagators(math.cos(theta), math.sin(theta))


def propagators_from_mass(mass: float, epsilon: float) -> PropagatorPair:
    """Mass-to-amplitude bridge: b = sin(mass*epsilon), a = cos(mass*epsilon).

    This is normalized exactly and reproduces the reversal weight
    i*mass*epsilon to first order in the step size.
    """
    angle = mass * epsilon
    if not math.isfinite(angle):
        raise ValueError(
            f"mass*epsilon must be finite, got mass={mass!r}, epsilon={epsilon!r}"
        )
    return make_propagators(math.cos(angle), math.sin(angle))


def zero_momentum_propagators() -> PropagatorPair:
    """The symmetric case a = b = 1/sqrt(2): each reversal carries a bare factor of i."""
    r = math.sqrt(0.5)
    return make_propagators(r, r)


class ConstraintReport(NamedTuple):
    """Residuals of the probability-conservation constraints on a propagator pair."""

    residuals: dict
    tolerance: float = _TOL
    canonical_gauge: bool = True

    @property
    def ok(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals.values())


def verify_propagator_constraints(
    pp: PropagatorPair, tolerance: float = _TOL
) -> ConstraintReport:
    """Check Q†Q + P†P = I, the entry-level constraints, and unitarity of P + Q.

    The entries of Q†Q + P†P - I are the four entry-level residuals; as P†Q = 0,
    (P + Q)†(P + Q) = Q†Q + P†P, so completeness and unitarity are their largest.
    """
    x = z = pp.diagonal_entry  # P = [[x, y], [0, 0]] and Q = [[0, 0], [w, z]]
    y = w = pp.reversal_entry
    residuals = {
        "norm-preserving-row-p": abs(w.conjugate() * w + x.conjugate() * x - 1),
        "norm-preserving-row-q": abs(z.conjugate() * z + y.conjugate() * y - 1),
        "off-diagonal-wz": abs(w.conjugate() * z + x.conjugate() * y),
        "off-diagonal-zw": abs(z.conjugate() * w + y.conjugate() * x),
    }
    largest = max(residuals.values())
    residuals = {"completeness": largest, **residuals, "unitarity": largest}
    return ConstraintReport(residuals, tolerance, pp.is_canonical_gauge)


def transition_magnitude_solutions(a: float, b: float) -> list[tuple[float, float]]:
    """Solve the magnitude system a^2+b^2 = 1, c^2+d^2 = 1, a*c = b*d for (c, d).

    Exactly two families exist: (c, d) = (b, a) and (c, d) = (-b, -a).
    """
    if not abs(a * a + b * b - 1.0) <= _TOL:
        raise ValueError("magnitudes must satisfy a^2 + b^2 = 1")
    return [(b, a), (-b, -a)]


# -- path weights -------------------------------------------------------------


def reversal_count(seq: InfluenceSequence) -> int:
    """Changes of direction along the sequence, counting one against the initial helicity."""
    if seq.initial_helicity is None:
        raise ValueError("reversal counting requires an initial helicity")
    reversals = 0
    previous = seq.initial_helicity
    for move in seq.moves:
        if move != previous:
            reversals += 1
        previous = move
    return reversals


class PathWeight(NamedTuple):
    reversals: int
    weight: Amplitude


class FeynmanWeighting(NamedTuple):
    """Corner-counting weight (i*mass*epsilon)^R."""

    mass: float
    epsilon: float


class DerivedWeighting(NamedTuple):
    """Per-step matrix-entry product under a propagator pair."""

    propagators: PropagatorPair


def path_weight(seq: InfluenceSequence, weighting) -> PathWeight:
    """Amplitude of one zig-zag path.

    Feynman weighting multiplies one factor i*mass*epsilon per reversal;
    derived weighting multiplies the propagator matrix entry for every step,
    which equals a^(L-R) * (b*i)^R in the canonical gauge.
    """
    reversals = reversal_count(seq)
    if isinstance(weighting, FeynmanWeighting):
        factor = 1j * weighting.mass * weighting.epsilon
        weight = 1 + 0j
        for _ in range(reversals):
            weight *= factor
        return PathWeight(reversals, weight)
    if isinstance(weighting, DerivedWeighting):
        pp = weighting.propagators
        weight = 1 + 0j
        previous = seq.initial_helicity
        for move in seq.moves:
            weight *= pp.transition_entry(previous, move)
            previous = move
        return PathWeight(reversals, weight)
    raise TypeError(f"unsupported weighting: {weighting!r}")


# -- spinors -------------------------------------------------------------------


class Spinor(NamedTuple):
    """Two amplitude components indexed by helicity of the most recent move."""

    phi_p: Amplitude
    phi_q: Amplitude

    def norm(self) -> float:
        return born(self.phi_p) + born(self.phi_q)

    def normalized(self) -> "Spinor":
        n = math.sqrt(self.norm())
        if n == 0:
            raise ValueError("cannot normalize the zero spinor")
        return Spinor(self.phi_p / n, self.phi_q / n)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.phi_p, self.phi_q], dtype=complex)


def sequence_amplitude(
    seq: InfluenceSequence, pp: PropagatorPair, initial: Spinor
) -> Spinor:
    """Propagate a spinor through an ordered sequence.

    Matrices apply right-to-left (the sequence written in reverse order), so
    the first move's matrix hits the initial spinor first.
    """
    p, q = complex(initial.phi_p), complex(initial.phi_q)
    diag, rev = pp.diagonal_entry, pp.reversal_entry
    for move in seq.moves:  # step_field's per-site formula
        p, q = (diag * p + rev * q, 0j) if move == P_MOVE else (0j, rev * p + diag * q)
    return Spinor(p, q)


def unordered_amplitude(
    counts: UnorderedInfluenceCount,
    pp: PropagatorPair,
    initial: Spinor,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Spinor:
    """Sum of sequence amplitudes over every ordering of the given counts, added
    in enumeration order, as `kernel_pathsum` adds each endpoint's weights."""
    from .kinematics import enumerate_orderings

    total_p = total_q = 0j
    for seq in enumerate_orderings(counts, cap=cap):
        out = sequence_amplitude(seq, pp, initial)
        total_p += out.phi_p
        total_q += out.phi_q
    return Spinor(total_p, total_q)


# -- lattice field -------------------------------------------------------------
#
# One site step per time step (P -> +1, Q -> -1); the half-unit spacetime grid
# is recovered by halving both coordinates: (t, x) = (step/2, site/2).


class CheckerboardField:
    """Helicity spinor field on integer lattice sites -radius..+radius.

    `psi_p` and `psi_q` are lists of complex, index i holding site
    i - radius; any sequence of numbers, numpy arrays included, is accepted
    and copied.  Sites outside the field's window, a range of list indices,
    are zero: a field built from sequences has every site in its window.  A
    point source's window holds its origin with stride 2, as sites of the
    other parity stay zero on the checkerboard, and each step grows a window
    by one site each way, so stepping touches only the light cone.

    The lattice must be allocated large enough that the light cone never
    reaches the edge; stepping a field whose wavefront touches the boundary
    is a hard error, never wraparound.
    """

    __slots__ = ("psi_p", "psi_q", "radius", "step_count", "_window")

    def __init__(self, psi_p, psi_q, radius: int):
        self.psi_p = list(map(complex, psi_p))
        self.psi_q = list(map(complex, psi_q))
        self.radius = radius
        self.step_count = 0
        self._window = range(2 * radius + 1)
        if len(self.psi_p) != 2 * radius + 1 or len(self.psi_q) != 2 * radius + 1:
            raise ValueError("field arrays must cover sites -radius..+radius")

    @classmethod
    def _of_lists(cls, psi_p, psi_q, radius, step_count, window) -> "CheckerboardField":
        # complex lists taken as they are, zero outside the indices in `window`
        field = cls.__new__(cls)
        field.psi_p, field.psi_q, field.radius = psi_p, psi_q, radius
        field.step_count, field._window = step_count, window
        return field

    @classmethod
    def point_source(cls, helicity: str, steps: int) -> "CheckerboardField":
        """Unit amplitude at the origin in one helicity, sized for `steps` steps."""
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        radius = steps + 1
        psi_p = [0j] * (2 * radius + 1)
        psi_q = [0j] * (2 * radius + 1)
        if helicity == P_MOVE:
            psi_p[radius] = 1 + 0j
        elif helicity == Q_MOVE:
            psi_q[radius] = 1 + 0j
        else:
            raise ValueError(f"helicity must be 'P' or 'Q', got {helicity!r}")
        return cls._of_lists(psi_p, psi_q, radius, 0, range(radius, radius + 1, 2))

    def _window_sites(self) -> Iterator[tuple[int, complex, complex]]:
        """(position, psi_p, psi_q) for every site of the window, in order."""
        w = self._window
        positions = range(w.start - self.radius, w.stop - self.radius, w.step)
        sites = slice(w.start, w.stop, w.step)
        return zip(positions, self.psi_p[sites], self.psi_q[sites])

    @property
    def sites(self) -> dict[int, Spinor]:
        """Nonzero sites as a mapping position -> Spinor."""
        return {x: Spinor(p, q) for x, p, q in self._window_sites() if p or q}

    def spinor_at(self, position: int) -> Spinor:
        i = position + self.radius
        if not 0 <= i <= 2 * self.radius:
            raise ValueError(f"site {position} outside allocated radius {self.radius}")
        return Spinor(self.psi_p[i], self.psi_q[i])

    def total_probability(self) -> float:
        return sum(map(born, self.psi_p)) + sum(map(born, self.psi_q))


def step_field(field: CheckerboardField, pp: PropagatorPair) -> CheckerboardField:
    """One transfer-matrix step, preserving total Born probability.

    psi_p'(x) = a*e^(i*alpha)*psi_p(x-1) + b*e^(i*beta)*psi_q(x-1)
    psi_q'(x) = b*e^(i*beta)*psi_p(x+1) + a*e^(i*alpha)*psi_q(x+1)

    Only the window's sites are read, and only the sites they feed are
    written.  Every other site of the result is 0j, which is what a step of
    the whole lattice gives there for the propagators that theta and mass
    give.
    """
    p, q = field.psi_p, field.psi_q
    if p[0] != 0 or q[0] != 0 or p[-1] != 0 or q[-1] != 0:
        raise BoundaryError(
            f"wavefront reached the allocated boundary at radius {field.radius}"
        )
    diag = pp.diagonal_entry
    off = pp.reversal_entry
    size = len(p)
    new_p = [0j] * size
    new_q = [0j] * size
    start, stop, stride = field._window.start, field._window.stop, field._window.step
    # site i feeds psi_p at i + 1 and psi_q at i - 1, where those exist
    lo, hi = start, min(stop, size - 1)
    new_p[lo + 1 : hi + 1 : stride] = [
        diag * x + off * y for x, y in zip(p[lo:hi:stride], q[lo:hi:stride])
    ]
    lo = start if start else stride
    new_q[lo - 1 : stop - 1 : stride] = [
        off * x + diag * y for x, y in zip(p[lo:stop:stride], q[lo:stop:stride])
    ]
    # grown by one site each way, inside the lattice and on the window's stride
    lo = start - 1 if start else stride - 1
    return CheckerboardField._of_lists(
        new_p, new_q, field.radius, field.step_count + 1,
        range(lo, min(stop + 1, size), stride),
    )


# -- kernels --------------------------------------------------------------------

Kernel = dict[tuple[int, str], Amplitude]

# the path sum weighs 2^_BLOCK_EXPONENT move strings at a time
_BLOCK_EXPONENT = 14


def kernel_pathsum(
    steps: int,
    pp: PropagatorPair,
    initial_helicity: str,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Kernel:
    """Sum path weights over all 2^steps move strings, grouped by endpoint.

    Every move string is enumerated and weighted, in lexicographic order
    (P before Q), in blocks of 2^14 strings that share their leading moves.
    A weight is the complex product of one propagator entry per move, taken
    left to right, and each endpoint's weights are added one at a time in
    enumeration order.  So the result is bit-for-bit the sum
    `out[key] = out.get(key, 0j) + weight` over the strings, with keys in
    order of first occurrence, zero sums kept.
    """
    if initial_helicity not in (P_MOVE, Q_MOVE):
        raise ValueError(f"helicity must be 'P' or 'Q', got {initial_helicity!r}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    # 2**steps > cap whenever steps > int(cap).bit_length(), which spares the power
    if steps > int(cap).bit_length() or 2**steps > cap:
        raise CapExceededError(
            f"path sum over 2^{steps} sequences exceeds the cap of {cap}; "
            "use the matrix method for deep kernels"
        )
    if steps == 0:
        return {(0, initial_helicity): 1 + 0j}
    diag, rev = pp.diagonal_entry, pp.reversal_entry
    tail = min(steps, _BLOCK_EXPONENT)
    # endpoint slot 2 * (Q moves) + (last move is Q), less twice the head's Q
    # moves: string i of a block has i.bit_count() Q moves after the head and
    # ends in Q when i is odd
    tail_slots = [2 * i.bit_count() + (i & 1) for i in range(2**tail)]
    sums = [0j] * (2 * steps + 2)
    for head in itertools.product((P_MOVE, Q_MOVE), repeat=steps - tail):
        weight, previous = 1 + 0j, initial_helicity
        for move in head:
            weight *= diag if move == previous else rev
            previous = move
        # each string followed by its P child, then its Q child
        if previous == P_MOVE:
            level = [weight * diag, weight * rev]
        else:
            level = [weight * rev, weight * diag]
        for _ in range(tail - 1):
            ends_p, ends_q = level[0::2], level[1::2]
            level = [0j] * (2 * len(level))
            level[0::4] = [w * diag for w in ends_p]
            level[1::4] = [w * rev for w in ends_p]
            level[2::4] = [w * rev for w in ends_q]
            level[3::4] = [w * diag for w in ends_q]
        offset = 2 * head.count(Q_MOVE)
        for slot, w in zip(tail_slots, level):
            sums[offset + slot] += w
    # first occurrences: all P, then c Q moves at the end, then c Q moves and a P
    out = {(steps, P_MOVE): sums[0]}
    for c in range(1, steps + 1):
        out[steps - 2 * c, Q_MOVE] = sums[2 * c + 1]
        if c < steps:
            out[steps - 2 * c, P_MOVE] = sums[2 * c]
    return out


class KernelColumns(NamedTuple):
    """Kernel entries as parallel lists sorted by (position, helicity 'P' < 'Q')."""

    positions: list[int]
    helicities: list[str]
    amplitudes: list[complex]

    @classmethod
    def from_field(cls, field: CheckerboardField) -> "KernelColumns":
        """The nonzero components of a field, site-major with P before Q."""
        positions, helicities, amplitudes = [], [], []
        for x, p, q in field._window_sites():
            if p:
                positions.append(x)
                helicities.append(P_MOVE)
                amplitudes.append(p)
            if q:
                positions.append(x)
                helicities.append(Q_MOVE)
                amplitudes.append(q)
        return cls(positions, helicities, amplitudes)

    @classmethod
    def from_kernel(cls, k: Kernel) -> "KernelColumns":
        """Every entry of a kernel mapping, zero amplitudes included."""
        keys = sorted(k)
        return cls([x for x, _ in keys], [h for _, h in keys], [complex(k[key]) for key in keys])

    @property
    def probabilities(self) -> list[float]:
        """Elementwise re*re + im*im: the same floats as `born` gives."""
        return [a.real * a.real + a.imag * a.imag for a in self.amplitudes]

    def as_kernel(self) -> Kernel:
        return dict(zip(zip(self.positions, self.helicities), self.amplitudes))


def field_kernel(field: CheckerboardField) -> Kernel:
    """Nonzero field amplitudes as a mapping (position, helicity) -> amplitude."""
    return KernelColumns.from_field(field).as_kernel()


def _stepped_fields(steps: int, pp: PropagatorPair, helicity: str) -> Iterator[CheckerboardField]:
    """A point source, built now, then the field after each step, made when asked for."""
    source = CheckerboardField.point_source(helicity, steps)
    return itertools.accumulate(itertools.repeat(pp, steps), step_field, initial=source)


def kernel_history(
    steps: int, pp: PropagatorPair, initial_helicity: str
) -> list[KernelColumns]:
    """Nonzero amplitudes after each of 0..steps transfer-matrix steps.

    Entry t holds the columns of a point source stepped t times.
    """
    return list(map(KernelColumns.from_field, _stepped_fields(steps, pp, initial_helicity)))


def kernel_matrix(steps: int, pp: PropagatorPair, initial_helicity: str) -> Kernel:
    """Kernel by `steps` transfer-matrix applications to a point source."""
    for field in _stepped_fields(steps, pp, initial_helicity):
        pass
    return field_kernel(field)


def kernel(
    steps: int,
    pp: PropagatorPair,
    initial_helicity: str,
    method: str = "matrix",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Kernel:
    """Endpoint amplitudes after `steps` steps from a definite initial helicity."""
    if method == "matrix":
        return kernel_matrix(steps, pp, initial_helicity)
    if method == "pathsum":
        return kernel_pathsum(steps, pp, initial_helicity, cap=cap)
    raise ValueError(f"unknown kernel method: {method!r}")


def kernel_discrepancy(first: Kernel, second: Kernel) -> float:
    """Largest componentwise amplitude difference between two kernels."""
    keys = set(first) | set(second)
    if not keys:
        return 0.0
    return max(abs(first.get(k, 0j) - second.get(k, 0j)) for k in keys)
