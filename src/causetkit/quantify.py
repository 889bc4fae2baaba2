"""Chain-based quantification of a causal poset.

An observer chain assigns valuations k*mu along itself; other events are
located by their forward and backward projections onto the chain.  Interval
pairs, the invariant interval scalar dp*dq, and the symmetric/antisymmetric
decomposition give emergent (t, x) coordinates on which boosts act as the
k-calculus rescaling (sqrt(m/n), sqrt(n/m)), equivalent to a Lorentz
transformation.  All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import (
    CoordinationUndecidableError,
    UnknownEventError,
    UnquantifiableIntervalError,
)
from .exact import HALF, Surd, collapse, sqrt_exact, sqrt_exact_or_float
from .poset import CausalPoset, EventId

MODE_SINGLE_CHAIN = "single-chain"
MODE_COORDINATED = "coordinated"

CHAIN_LIKE = "chain-like"
ANTICHAIN_LIKE = "antichain-like"
PROJECTION_LIKE = "projection-like"


@dataclass(frozen=True)
class ChainValuation:
    """Counting valuation along one chain: event at position k gets k*mu."""

    chain_id: str
    mu: Fraction
    index: Mapping[EventId, int]

    @classmethod
    def from_poset(cls, poset: CausalPoset, chain_id: str, mu=1) -> "ChainValuation":
        if chain_id not in poset.chains:
            raise UnknownEventError(f"unknown chain id: {chain_id!r}")
        order = poset.chains[chain_id]
        return cls(chain_id, Fraction(mu), {e: k for k, e in enumerate(order)})

    def value(self, event: EventId):
        try:
            return self.index[event] * self.mu
        except KeyError:
            raise UnknownEventError(
                f"event {event!r} is not on chain {self.chain_id!r}"
            ) from None


def chain_length(valuation: ChainValuation, a: EventId, b: EventId):
    """Length of the closed interval [a, b] along the chain: (k_b - k_a)*mu.

    Additive over joined intervals sharing an endpoint.
    """
    ka, kb = valuation.index.get(a), valuation.index.get(b)
    if ka is None or kb is None:
        missing = a if ka is None else b
        raise UnknownEventError(
            f"event {missing!r} is not on chain {valuation.chain_id!r}"
        )
    if ka > kb:
        raise ValueError(f"{a!r} follows {b!r} in chain order")
    return (kb - ka) * valuation.mu


@dataclass(frozen=True)
class Projection:
    """Result of projecting an event onto a chain; absent when no element qualifies."""

    event: EventId | None

    @property
    def present(self) -> bool:
        return self.event is not None


ABSENT = Projection(None)


def _project(poset: CausalPoset, chain_id: str, x: EventId, side: int) -> Projection:
    k = poset._projection_positions(chain_id, side)[poset._idx(x)]
    return ABSENT if k is None else Projection(poset.chains[chain_id][k])


def forward_project(poset: CausalPoset, chain_id: str, x: EventId) -> Projection:
    """Minimum chain element causally at-or-above x; a chain element projects onto itself."""
    return _project(poset, chain_id, x, 0)


def backward_project(poset: CausalPoset, chain_id: str, x: EventId) -> Projection:
    """Maximum chain element causally at-or-below x (dual of forward_project)."""
    return _project(poset, chain_id, x, 1)


@dataclass(frozen=True)
class IntervalPair:
    """Signed projected lengths quantifying an interval.

    In single-chain mode the components are the forward and backward
    projections onto one chain; in coordinated mode they are forward
    projections onto each of two coordinated chains.  Components are kept as
    given; halving multiplies by HALF, so int and Fraction halves are exact.
    """

    dp: object
    dq: object
    mode: str = MODE_COORDINATED


def interval_pair(
    poset: CausalPoset,
    a: EventId,
    b: EventId,
    valuation_p: ChainValuation,
    valuation_q: ChainValuation | None = None,
) -> IntervalPair:
    """Quantify the interval [a, b] against one chain or two coordinated chains.

    Raises UnquantifiableIntervalError when any required projection is absent.
    """

    def _value(valuation: ChainValuation, event: EventId, direction="forward"):
        project = forward_project if direction == "forward" else backward_project
        proj = project(poset, valuation.chain_id, event)
        if not proj.present:
            raise UnquantifiableIntervalError(
                f"unquantifiable interval: {event!r} has no {direction} projection "
                f"onto chain {valuation.chain_id!r}"
            )
        return valuation.value(proj.event)

    dp = _value(valuation_p, b) - _value(valuation_p, a)
    if valuation_q is None:
        dq = _value(valuation_p, b, "backward") - _value(valuation_p, a, "backward")
        return IntervalPair(dp, dq, MODE_SINGLE_CHAIN)
    dq = _value(valuation_q, b) - _value(valuation_q, a)
    return IntervalPair(dp, dq, MODE_COORDINATED)


@dataclass(frozen=True)
class IntervalScalar:
    """The invariant dp*dq with its sign class."""

    value: object
    kind: str


def interval_scalar(pair: IntervalPair) -> IntervalScalar:
    """dp*dq; positive is chain-like, negative antichain-like, zero projection-like,
    and a NaN or infinite component raises ValueError."""
    if not (-math.inf < pair.dp < math.inf and -math.inf < pair.dq < math.inf):
        raise ValueError(f"interval scalar is not a number: dp={pair.dp!r}, dq={pair.dq!r}")
    value = pair.dp * pair.dq
    if value > 0:
        kind = CHAIN_LIKE
    elif value < 0:
        kind = ANTICHAIN_LIKE
    else:
        kind = PROJECTION_LIKE
    return IntervalScalar(value, kind)


@dataclass(frozen=True)
class LinearRelation:
    """Constant projection between two chains: forward constant m, backward n.

    beta = (m - n)/(m + n) and gamma = (1 - beta^2)^(-1/2); an extreme beta of
    +/-1 occurs exactly when n or m vanishes.
    """

    m: object
    n: object

    def __post_init__(self):
        if isinstance(self.m, int):
            object.__setattr__(self, "m", Fraction(self.m))
        if isinstance(self.n, int):
            object.__setattr__(self, "n", Fraction(self.n))
        if not (0 <= self.m < math.inf and 0 <= self.n < math.inf and (self.m > 0 or self.n > 0)):
            raise ValueError("projection constants require m, n >= 0 and m + n > 0")

    @property
    def beta(self):
        return (self.m - self.n) / (self.m + self.n)

    @property
    def gamma(self) -> float:
        beta = self.beta
        if abs(beta) >= 1:
            raise ValueError("gamma undefined at |beta| = 1 (m or n is zero)")
        # equal to (sqrt(m/n) + sqrt(n/m))/2, which is better conditioned
        r = math.sqrt(self.m / self.n)
        return (r + 1 / r) / 2

    @property
    def beta_gamma(self) -> float:
        if self.m <= 0 or self.n <= 0:
            raise ValueError("beta*gamma undefined at |beta| = 1")
        r = math.sqrt(self.m / self.n)
        return (r - 1 / r) / 2

    @property
    def k(self):
        """Geometric mean sqrt(m*n), the self-quantified interval length: exact unless
        a constant is a float, and ValueError if m*n is an irrational surd."""
        return sqrt_exact_or_float(self.m * self.n)

    def boost(self) -> Surd:
        """Exact sqrt(m/n) rescaling factor: floats convert exactly to rationals,
        surds divide as they are, and an irrational m/n raises ValueError."""
        if self.m <= 0 or self.n <= 0:
            raise ValueError("boost requires m > 0 and n > 0")
        m, n = (c if isinstance(c, Surd) else Fraction(c) for c in (self.m, self.n))
        return sqrt_exact(m / n)


def pair_transform(pair: IntervalPair, relation: LinearRelation) -> IntervalPair:
    """Rescale a pair by (sqrt(m/n), sqrt(n/m)); the product dp*dq is invariant.

    Components stay exact for rational inputs: a perfect-square ratio m/n
    collapses back to rationals, otherwise the component is an exact surd.
    """
    boost = relation.boost()
    return IntervalPair(
        collapse(pair.dp * boost), collapse(pair.dq / boost), pair.mode
    )


def check_coordination(
    poset: CausalPoset,
    valuation_p: ChainValuation,
    valuation_q: ChainValuation,
    range_p: tuple[EventId, EventId],
    range_q: tuple[EventId, EventId],
) -> bool:
    """Decide coordination over finite ranges of two chains.

    True iff every closed interval of either chain inside its range forward
    projects to an equal-length closed interval on the other chain.  Raises
    CoordinationUndecidableError when a needed projection is absent.
    """

    def _window(valuation: ChainValuation, lo: EventId, hi: EventId):
        order = poset.chains[valuation.chain_id]
        i, j = valuation.index.get(lo), valuation.index.get(hi)
        if i is None or j is None:
            raise UnknownEventError(
                f"range endpoints must lie on chain {valuation.chain_id!r}"
            )
        return order[min(i, j) : max(i, j) + 1]

    def _intervals_project_equal(src_val, dst_val, window) -> bool:
        values = []
        for event in window:
            proj = forward_project(poset, dst_val.chain_id, event)
            if not proj.present:
                raise CoordinationUndecidableError(
                    f"coordination undecidable: {event!r} has no forward "
                    f"projection onto chain {dst_val.chain_id!r}"
                )
            values.append(dst_val.value(proj.event))
        # each closed interval is a run of unit steps, and the values are exact,
        # so every interval projects equal iff every unit step does
        return all(b - a == src_val.mu for a, b in zip(values, values[1:]))

    window_p = _window(valuation_p, *range_p)
    window_q = _window(valuation_q, *range_q)
    return _intervals_project_equal(
        valuation_p, valuation_q, window_p
    ) and _intervals_project_equal(valuation_q, valuation_p, window_q)


def _require_coordinated(pair: IntervalPair, op: str):
    if pair.mode != MODE_COORDINATED:
        raise ValueError(f"{op} requires a coordinated interval pair")


def length(pair: IntervalPair):
    """(dp + dq)/2: the time-like component shared by coordinated observers."""
    _require_coordinated(pair, "length")
    return (pair.dp + pair.dq) * HALF


def distance(pair: IntervalPair):
    """(dp - dq)/2: separation of coordinated chains, independent of the endpoints chosen."""
    _require_coordinated(pair, "distance")
    return (pair.dp - pair.dq) * HALF


def decompose(pair: IntervalPair) -> tuple[IntervalPair, IntervalPair]:
    """Split into symmetric (dt, dt) and antisymmetric (dx, -dx) pairs.

    The metric identity dp*dq = dt^2 - dx^2 holds exactly.
    """
    st = to_spacetime(pair)
    return IntervalPair(st.dt, st.dt, pair.mode), IntervalPair(st.dx, -st.dx, pair.mode)


@dataclass(frozen=True)
class SpacetimeInterval:
    """Emergent coordinates: dt = (dp + dq)/2, dx = (dp - dq)/2."""

    dt: object
    dx: object


def to_spacetime(pair: IntervalPair) -> SpacetimeInterval:
    return SpacetimeInterval((pair.dp + pair.dq) * HALF, (pair.dp - pair.dq) * HALF)


def from_spacetime(st: SpacetimeInterval, mode: str = MODE_COORDINATED) -> IntervalPair:
    """Inverse change of variables: dp = dt + dx, dq = dt - dx."""
    return IntervalPair(st.dt + st.dx, st.dt - st.dx, mode)


def metric_scalar(st: SpacetimeInterval):
    """dt^2 - dx^2, equal to the interval scalar dp*dq."""
    return st.dt * st.dt - st.dx * st.dx


def lorentz_transform(st: SpacetimeInterval, beta: float) -> SpacetimeInterval:
    """Passive boost by the new frame's speed beta (|beta| < 1).

    dt' = gamma*(dt - beta*dx), dx' = gamma*(dx - beta*dt); the metric
    scalar dt^2 - dx^2 is invariant.
    """
    if not abs(beta) < 1:
        raise ValueError(f"|beta| must be < 1, got {beta}")
    gamma = 1 / math.sqrt(1 - beta * beta)
    dt, dx = st.dt, st.dx
    return SpacetimeInterval(gamma * (dt - beta * dx), gamma * (dx - beta * dt))


def quantification_rows(
    poset: CausalPoset,
    valuation_p: ChainValuation,
    valuation_q: ChainValuation | None = None,
) -> list[dict]:
    """Per-event coordinate table; absent projections yield None fields.

    Coordinated mode adds (t, x) from the two forward projections:
    t = (p + q) * HALF, x = (p - q) * HALF.
    """

    def values(valuation: ChainValuation) -> list[list]:
        order = poset.chains[valuation.chain_id]
        sides = (poset._projection_positions(valuation.chain_id, side) for side in (0, 1))
        return [[None if k is None else valuation.value(order[k]) for k in ks] for ks in sides]

    p_fwd, p_bwd = values(valuation_p)
    q_fwd = q_bwd = [None] * poset.n_events
    if valuation_q is not None:
        q_fwd, q_bwd = values(valuation_q)
    rows = []
    for event, p, p_back, q, q_back in zip(poset.events, p_fwd, p_bwd, q_fwd, q_bwd):
        t = x = None
        if p is not None and q is not None:
            t, x = (p + q) * HALF, (p - q) * HALF
        rows.append(
            dict(event_id=event, p_fwd=p, p_bwd=p_back, q_fwd=q, q_bwd=q_back, t=t, x=x)
        )
    return rows
