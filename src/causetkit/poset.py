"""Causal event posets built from particle chains and pairwise influence edges.

Each particle is a totally ordered chain of events.  An influence edge orders
an event on one chain before an event on another.  The union of chain-successor
edges and influence edges, closed transitively, is the causal order.
`build_poset` resolves each event id to an index once and builds the successor
and predecessor lists as it checks them.  Two linear sweeps per chain give the
projections onto it, cached on the poset at any size.  x precedes y when x's
forward projection onto y's chain sits at or before y's own, or, if y is missing
from its chain's order, when one sweep back from y reaches x.  Posets are
immutable after construction; any number of readers may query concurrently.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from typing import IO, Iterable, Mapping, NamedTuple

from .errors import CycleError, PosetStructureError, SchemaError, UnknownEventError

EventId = str

SCHEMA_VERSION = 1


class Violation(NamedTuple):
    rule: str
    message: str
    events: tuple[EventId, ...]


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class CausalPoset:
    """Events partitioned into chains plus cross-chain influence edges.

    Construction happens through :func:`build_poset`; instances are treated
    as immutable values afterwards.
    """

    __slots__ = (
        "events",
        "chain_of",
        "chains",
        "influence_edges",
        "_index",
        "_succ",
        "_topo",
        "_pred",
        "_projections",
    )

    def __init__(self, events, chain_of, chains, influence_edges, index, succ, pred):
        self.events: tuple[EventId, ...] = events
        self.chain_of: dict[EventId, str] = chain_of
        self.chains: dict[str, tuple[EventId, ...]] = chains
        self.influence_edges: tuple[tuple[EventId, EventId], ...] = influence_edges
        self._index: dict[EventId, int] = index
        self._succ: list[list[int]] = succ
        self._pred: list[list[int]] = pred
        self._topo = self._topological_order()
        self._projections: dict[str, list] = {}

    # -- derived structure -------------------------------------------------

    def _topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm; on a cyclic relation, the prefix it can order."""
        indegree = list(map(len, self._pred))
        ready = deque(i for i, d in enumerate(indegree) if d == 0)
        order = []
        while ready:
            v = ready.popleft()
            order.append(v)
            for t in self._succ[v]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    ready.append(t)
        return tuple(order)

    def _projection_positions(self, chain_id: str, side: int) -> list:
        """Per event index, the chain position of its forward projection (side
        0: the first element at-or-above it) or backward projection (side 1:
        the last element at-or-below it); None where no element qualifies."""
        if chain_id not in self.chains:
            raise UnknownEventError(f"unknown chain id: {chain_id!r}")
        # each side is swept when first asked for; filling the cache is
        # idempotent, so concurrent readers need no lock
        cached = self._projections.setdefault(chain_id, [None, None])
        if cached[side] is None:
            targets = [(k, self._index[e]) for k, e in enumerate(self.chains[chain_id])]
            if side:
                cached[1] = _first_reached(targets[::-1], self._succ)
            else:
                cached[0] = _first_reached(targets, self._pred)
        return cached[side]

    # -- queries -------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_chain_edges(self) -> int:
        return sum(max(len(order) - 1, 0) for order in self.chains.values())

    @property
    def n_influence_edges(self) -> int:
        return len(self.influence_edges)

    @property
    def is_acyclic(self) -> bool:
        return len(self._topo) == len(self.events)

    def _idx(self, event: EventId) -> int:
        try:
            return self._index[event]
        except KeyError:
            raise UnknownEventError(f"unknown event id: {event!r}") from None

    def leq(self, x: EventId, y: EventId) -> bool:
        """True iff y is reachable from x (reflexively).  Let y's forward
        projection onto its chain C sit at position k.  If y is on C's order,
        y and C[k] reach each other (they are one event, or on a cycle), so x
        reaches y exactly when x's forward projection onto C sits at or before k;
        if not, one sweep back from y answers.  Each chain queried caches one
        list of n_events entries."""
        i, j = self._idx(x), self._idx(y)
        chain = self.chain_of[y]
        fwd = self._projection_positions(chain, 0)
        k = fwd[j]
        if k is not None and (self.chains[chain][k] == y or y in self.chains[chain]):
            return fwd[i] is not None and fwd[i] <= k
        return _first_reached([(True, j)], self._pred)[i] is not None

    def cycle_events(self) -> tuple[EventId, ...]:
        """Events that participate in (or depend on) a cycle; empty if acyclic."""
        ordered = set(self._topo)
        return tuple(e for i, e in enumerate(self.events) if i not in ordered)

    def __eq__(self, other):
        if not isinstance(other, CausalPoset):
            return NotImplemented
        return (
            self.events == other.events
            and self.chain_of == other.chain_of
            and self.chains == other.chains
            and self.influence_edges == other.influence_edges
        )

    def __repr__(self) -> str:
        return (
            f"CausalPoset({self.n_events} events, {len(self.chains)} chains, "
            f"{self.n_influence_edges} influence edges)"
        )


def _first_reached(targets: list[tuple[int, int]], adjacency: list[list[int]]) -> list:
    """Label each vertex with the label of the first (label, vertex) target that
    reaches it (reflexively) along adjacency; None if none does.  A walk expands
    only unlabelled vertices, so one sweep costs O(V + E)."""
    label: list = [None] * len(adjacency)
    for k, start in targets:
        if label[start] is not None:
            continue
        label[start] = k
        stack = [start]
        while stack:
            for t in adjacency[stack.pop()]:
                if label[t] is None:
                    label[t] = k
                    stack.append(t)
    return label


def build_poset(
    events: Iterable[tuple[EventId, str]],
    chains: Mapping[str, Iterable[EventId]],
    influence_edges: Iterable[tuple[EventId, EventId]],
) -> CausalPoset:
    """Construct a poset from its events, chain orders and influence edges.

    Only structural well-formedness is enforced here (ids resolve, no event
    sits on two chains).  Physics rules such as acyclicity and cross-chain
    influence are checked by :func:`validate`, which reports violations as
    data rather than raising.
    """
    chain_of: dict[EventId, str] = {}
    for event, chain in events:
        if event in chain_of:
            raise PosetStructureError(f"duplicate EventId: {event!r}")
        chain_of[event] = chain
    index = {event: i for i, event in enumerate(chain_of)}
    succ: list[list[int]] = [[] for _ in index]
    pred: list[list[int]] = [[] for _ in index]

    chain_orders: dict[str, tuple[EventId, ...]] = {}
    placed = [False] * len(index)
    for chain, order in chains.items():
        order = tuple(order)
        prev = None
        for event in order:
            i = index.get(event)
            if i is None:
                raise PosetStructureError(
                    f"unresolved EventId in chain {chain!r}: {event!r}"
                )
            if chain_of[event] != chain:
                raise PosetStructureError(
                    f"event {event!r} assigned to two chains: "
                    f"{chain_of[event]!r} and {chain!r}"
                )
            # only events on their declared chain are placed
            if placed[i]:
                raise PosetStructureError(f"event {event!r} listed twice in chain {chain!r}")
            placed[i] = True
            if prev is not None:
                succ[prev].append(i)
                pred[i].append(prev)
            prev = i
        chain_orders[chain] = order

    for event, chain in chain_of.items():
        if chain not in chain_orders:
            raise PosetStructureError(
                f"event {event!r} declared on unknown chain {chain!r}"
            )

    edges: list[tuple[EventId, EventId]] = []
    for src, dst in influence_edges:
        i, j = index.get(src), index.get(dst)
        if i is None or j is None:
            raise PosetStructureError(
                f"unresolved EventId in influence edge: {src if i is None else dst!r}"
            )
        succ[i].append(j)
        pred[j].append(i)
        edges.append((src, dst))

    return CausalPoset(
        tuple(chain_of), chain_of, chain_orders, tuple(edges), index, succ, pred
    )


def validate(poset: CausalPoset) -> ValidationReport:
    """Check the physics rules; every violation is reported, none raised.

    Rules: influence edges must connect distinct chains, the combined
    relation must be acyclic, and every event must appear in its declared
    chain's total order.
    """
    violations: list[Violation] = []
    for src, dst in poset.influence_edges:
        if poset.chain_of[src] == poset.chain_of[dst]:
            violations.append(
                Violation(
                    "intra-chain-influence",
                    f"intra-chain influence: edge {src!r} -> {dst!r} stays on "
                    f"chain {poset.chain_of[src]!r}",
                    (src, dst),
                )
            )
    if not poset.is_acyclic:
        cyclic = poset.cycle_events()
        violations.append(
            Violation(
                "cycle",
                "cycle detected among events: " + ", ".join(map(repr, cyclic)),
                cyclic,
            )
        )
    listed = {e for order in poset.chains.values() for e in order}
    for event in poset.events:
        if event not in listed:
            violations.append(
                Violation(
                    "chain-not-total",
                    f"chain not total: event {event!r} is declared on chain "
                    f"{poset.chain_of[event]!r} but missing from its order",
                    (event,),
                )
            )
    return ValidationReport(tuple(violations))


def causal_leq(poset: CausalPoset, x: EventId, y: EventId) -> bool:
    """Reflexive causal comparison: x precedes-or-equals y."""
    return poset.leq(x, y)


def topological_order(poset: CausalPoset) -> list[EventId]:
    """A linear extension of the causal order; raises CycleError if cyclic."""
    if not poset.is_acyclic:
        raise CycleError(
            "no topological order: cycle among " + ", ".join(map(repr, poset.cycle_events()))
        )
    return [poset.events[i] for i in poset._topo]


def dual(poset: CausalPoset) -> CausalPoset:
    """Reverse every edge: chain orders flip and influence edges swap ends."""
    return build_poset(
        [(e, poset.chain_of[e]) for e in poset.events],
        {chain: tuple(reversed(order)) for chain, order in poset.chains.items()},
        [(dst, src) for src, dst in poset.influence_edges],
    )


# -- document round trip -------------------------------------------------

_REQUIRED_KEYS = ("version", "events", "chains", "influence")


def poset_document(poset: CausalPoset) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "events": [{"id": str(e), "chain": str(poset.chain_of[e])} for e in poset.events],
        "chains": {str(c): [str(e) for e in order] for c, order in poset.chains.items()},
        "influence": [[str(a), str(b)] for a, b in poset.influence_edges],
    }


def save_poset(poset: CausalPoset, destination: str | IO[str]) -> None:
    """Write the poset document (ids are serialized as strings)."""
    text = json.dumps(poset_document(poset), indent=2) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)


def poset_from_document(doc) -> CausalPoset:
    if not isinstance(doc, dict):
        raise SchemaError("poset document must be an object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise SchemaError(f"poset document missing keys: {', '.join(missing)}")
    version = doc["version"]
    # True == 1 and 1.0 == 1, so compare the type as well
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(
            f"schema-version mismatch: got {version!r}, expected {SCHEMA_VERSION}"
        )
    unknown = sorted(set(doc) - set(_REQUIRED_KEYS))
    if unknown:
        warnings.warn(f"ignoring unknown poset document keys: {', '.join(unknown)}")
    try:
        events = [(_id(entry["id"]), _id(entry["chain"])) for entry in _array(doc["events"])]
        chains = {_id(c): [_id(e) for e in _array(o)] for c, o in doc["chains"].items()}
        influence = [(_id(src), _id(dst)) for src, dst in map(_array, _array(doc["influence"]))]
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed poset document: {exc}") from exc
    return build_poset(events, chains, influence)


def _array(value) -> list:
    if isinstance(value, list):  # a string or object would iterate as characters or keys
        return value
    raise TypeError(f"events, chain orders and influence edges must be arrays, got {value!r}")


def _id(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"event ids and chain names must be strings, got {value!r}")
    return value


def load_poset(source: str | IO[str]) -> CausalPoset:
    """Read a poset document from a path or file-like object."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    # bytes that are not UTF-8, invalid JSON, or arrays nested past the recursion limit
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"malformed poset document: {exc}") from exc
    return poset_from_document(doc)
