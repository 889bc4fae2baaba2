"""Free-particle influence sequences and rate-based kinematics.

A free particle influences two coordinated observers; each act is a P-move
or a Q-move.  Ordered sequences map to zig-zag spacetime paths at the maximum
speed (every segment has |beta| = 1); unordered counts are quantified by
binomial path counting and by average influence rates, whose geometric and
arithmetic means play the roles of mass and energy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, NamedTuple

from . import DEFAULT_ENUMERATION_CAP, P_MOVE, Q_MOVE
from .errors import CapExceededError
from .exact import HALF, collapse, sqrt_exact_or_float

if TYPE_CHECKING:  # only an annotation, so importing kinematics does not load quantify
    from .quantify import LinearRelation

_MOVES = (P_MOVE, Q_MOVE)


class UnorderedInfluenceCount(NamedTuple):
    """How many P-moves and Q-moves were recorded, without any ordering."""

    P: int
    Q: int


@dataclass(frozen=True)
class InfluenceSequence:
    """An ordered move string over {P, Q}.

    initial_helicity is the direction of the move preceding the sequence;
    operations that need it (reversal counting) fail loudly when absent.
    """

    moves: tuple[str, ...]
    initial_helicity: str | None = None

    def __post_init__(self):
        for move in self.moves:
            if move not in _MOVES:
                raise ValueError(f"moves must be 'P' or 'Q', got {move!r}")
        if self.initial_helicity is not None and self.initial_helicity not in _MOVES:
            raise ValueError(f"initial_helicity must be 'P' or 'Q', got {self.initial_helicity!r}")

    @classmethod
    def from_string(cls, text: str, initial_helicity: str | None = None) -> "InfluenceSequence":
        return cls(tuple(text), initial_helicity)

    def __len__(self) -> int:
        return len(self.moves)

    def __str__(self) -> str:
        return "".join(self.moves)

    def counts(self) -> UnorderedInfluenceCount:
        p = self.moves.count(P_MOVE)
        return UnorderedInfluenceCount(p, len(self.moves) - p)


def count_orderings(counts: UnorderedInfluenceCount) -> int:
    """Number of orderings of P P-moves and Q Q-moves: binomial(P+Q, P)."""
    p, q = counts
    if p < 0 or q < 0:
        raise ValueError("counts must be nonnegative")
    return math.comb(p + q, p)


def enumerate_orderings(
    counts: UnorderedInfluenceCount, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[InfluenceSequence]:
    """All orderings in lexicographic order (P < Q), without duplicates: one per set
    of P-move positions, whose lexicographic order is the strings' order."""
    total = count_orderings(counts)
    if total > cap:
        raise CapExceededError(
            f"{total} orderings exceed the enumeration cap of {cap}"
        )
    p, q = counts
    out: list[InfluenceSequence] = []
    for positions in combinations(range(p + q), p):
        moves = [Q_MOVE] * (p + q)
        for i in positions:
            moves[i] = P_MOVE
        out.append(InfluenceSequence(tuple(moves)))
    return out


@dataclass(frozen=True)
class SpacetimePath:
    """Zig-zag lattice path in half-unit steps.

    Consecutive points differ by (dt, dx) = (1/2, +/-1/2); segment beta is
    +1 for a P-move and -1 for a Q-move, and the segment helicity is the
    move's own direction.
    """

    points: tuple[tuple[Fraction, Fraction], ...]
    betas: tuple[int, ...]
    helicities: tuple[str, ...]

    @property
    def net_displacement(self) -> tuple[Fraction, Fraction]:
        t0, x0 = self.points[0]
        t1, x1 = self.points[-1]
        return (t1 - t0, x1 - x0)


def half_unit_positions(seq: InfluenceSequence) -> list[int]:
    """x of every point of the sequence's path, from the origin, in half units:
    the running sum of +1 per P-move and -1 per Q-move.  Point i has t = i/2."""
    return list(accumulate((1 if move == P_MOVE else -1 for move in seq.moves), initial=0))


def sequence_to_path(seq: InfluenceSequence, origin=(0, 0)) -> SpacetimePath:
    """Map a move string to its spacetime path: P steps (+1/2, +1/2), Q steps (+1/2, -1/2)."""
    t0, x0 = Fraction(origin[0]), Fraction(origin[1])
    half_x = half_unit_positions(seq)
    points = tuple((t0 + i * HALF, x0 + h * HALF) for i, h in enumerate(half_x))
    betas = tuple(b - a for a, b in zip(half_x, half_x[1:]))
    return SpacetimePath(points, betas, tuple(seq.moves))


def path_rows(path: SpacetimePath) -> list[dict]:
    """Tabular path export: one row per segment endpoint."""
    rows = [
        {
            "step": 0,
            "t": path.points[0][0],
            "x": path.points[0][1],
            "move": None,
            "beta": None,
            "helicity": None,
        }
    ]
    for i, (move, beta) in enumerate(zip(path.helicities, path.betas), start=1):
        t, x = path.points[i]
        rows.append(
            {"step": i, "t": t, "x": x, "move": move, "beta": beta, "helicity": move}
        )
    return rows


def rates(n_events: int, dp, dq):
    """Average influence rates over a projected interval: (N/dp, N/dq), each a
    Fraction for an int or Fraction length and a float for a float length."""
    if n_events <= 0:
        raise ValueError("event count must be positive")
    if not (0 < dp < math.inf and 0 < dq < math.inf):
        raise ValueError("projected lengths must be positive")
    return Fraction(n_events) / dp, Fraction(n_events) / dq


@dataclass(frozen=True)
class KinematicState:
    """Rates and their spacetime-picture descriptions.

    mass = sqrt(r_p*r_q), energy = (r_p + r_q)/2, momentum = (r_q - r_p)/2,
    so mass^2 = energy^2 - momentum^2 holds exactly, and beta = momentum/energy.
    """

    r_p: object
    r_q: object
    mass: object
    energy: object
    momentum: object
    beta: object

    @property
    def mass_squared(self):
        return self.r_p * self.r_q


def kinematic_state(r_p, r_q) -> KinematicState:
    """Describe a particle by its influence rates; the mass is exact unless a
    rate is a float, and an irrational surd product raises ValueError."""
    if not (0 < r_p < math.inf and 0 < r_q < math.inf):
        raise ValueError("rates must be positive")
    energy = (r_p + r_q) * HALF
    momentum = (r_q - r_p) * HALF
    mass = sqrt_exact_or_float(r_p * r_q)
    return KinematicState(r_p, r_q, mass, energy, momentum, momentum / energy)


def transform_rates(r_p, r_q, relation: LinearRelation):
    """Rates transform inversely to intervals: (sqrt(n/m)*r_p, sqrt(m/n)*r_q), each
    exact for an exact rate, so r_p*r_q is kept, and scaled by float(boost) for a float."""
    boost = relation.boost()
    return collapse(r_p / boost), collapse(r_q * boost)


def transform_energy_momentum(energy, momentum, relation: LinearRelation):
    """Boost in the spacetime picture: transform_rates on the rates (E - p, E + p), read
    back as E' = (r_q' + r_p')/2, p' = (r_q' - r_p')/2; exact for an exact E and p."""
    r_p, r_q = transform_rates(energy - momentum, energy + momentum, relation)
    return collapse((r_q + r_p) * HALF), collapse((r_q - r_p) * HALF)


def random_sequence(length: int, prob_p: float, seed: int) -> InfluenceSequence:
    """Seed-deterministic random move string with P-probability prob_p."""
    if not 0 <= prob_p <= 1:
        raise ValueError(f"prob_p must lie in [0, 1], got {prob_p}")
    if length < 0:
        raise ValueError("length must be nonnegative")
    rng = random.Random(seed)
    moves = tuple(P_MOVE if rng.random() < prob_p else Q_MOVE for _ in range(length))
    return InfluenceSequence(moves)
