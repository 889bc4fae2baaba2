"""Shared poset builders, command runners, the numpy fixture and the digest
helper for the test suite."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from collections import deque

import pytest
from hypothesis import strategies as st

import causetkit
from causetkit import build_poset, cli, save_poset

# the directory causetkit is imported from, for PYTHONPATH in a fresh interpreter
SRC = os.path.dirname(os.path.dirname(causetkit.__file__))


def run_python(*args, check=True, **kwargs):
    """`python *args` in a fresh interpreter that imports causetkit from SRC,
    its output captured (as text unless `text=False`): the completed process,
    once it has exited with status 0, or with any status if `check` is false."""
    kwargs.setdefault("text", True)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC}, **kwargs)
    assert not check or proc.returncode == 0, proc.stderr
    return proc


def run_cli(argv):
    """`cli.main(argv)` in this process: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sha256(data):
    """The SHA-256 hex digest of bytes, or of text encoded as UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def bfs_reachable(events, chains, influence, x, y):
    """Independent reachability oracle built straight from the inputs."""
    succ = {e: [] for e, _ in events}
    for order in chains.values():
        for a, b in zip(order, order[1:]):
            succ[a].append(b)
    for a, b in influence:
        succ[a].append(b)
    if x == y:
        return True
    seen, frontier = {x}, deque([x])
    while frontier:
        v = frontier.popleft()
        for t in succ[v]:
            if t == y:
                return True
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return False


def poset_reachable(poset, x, y):
    """The oracle on the events, chain orders and influence edges of a poset."""
    events = [(e, poset.chain_of[e]) for e in poset.events]
    return bfs_reachable(events, poset.chains, poset.influence_edges, x, y)


def bits(value):
    """The type and exact bits of a result: float.hex for floats, repr otherwise."""
    return type(value), value.hex() if isinstance(value, float) else repr(value)


def two_chain_poset():
    """Two 3-event chains with one influence edge pi2 -> p1."""
    return build_poset(
        [("pi1", "PI"), ("pi2", "PI"), ("pi3", "PI"), ("p1", "P"), ("p2", "P"), ("p3", "P")],
        {"PI": ["pi1", "pi2", "pi3"], "P": ["p1", "p2", "p3"]},
        [("pi2", "p1")],
    )


def mutual_influence_poset():
    """Two chains influencing one another, wired acyclically."""
    events = [(f"a{i}", "A") for i in range(4)] + [(f"b{i}", "B") for i in range(4)]
    chains = {"A": [f"a{i}" for i in range(4)], "B": [f"b{i}" for i in range(4)]}
    influence = [("a0", "b1"), ("b0", "a1"), ("a2", "b3"), ("b2", "a3")]
    return build_poset(events, chains, influence)


def ladder_poset(n: int = 8, offset: int = 2):
    """Two coordinated chains: p_i -> q_(i+offset) and q_i -> p_(i+offset).

    Forward projection of q_j onto P is p_(j+offset) and vice versa, so every
    interval projects to an equal-length interval: the chains are coordinated
    and sit at constant separation offset.
    """
    events = [(f"p{i}", "P") for i in range(n)] + [(f"q{i}", "Q") for i in range(n)]
    chains = {"P": [f"p{i}" for i in range(n)], "Q": [f"q{i}" for i in range(n)]}
    influence = []
    for i in range(n - offset):
        influence.append((f"p{i}", f"q{i + offset}"))
        influence.append((f"q{i}", f"p{i + offset}"))
    return build_poset(events, chains, influence)


def stretched_poset():
    """Constant projection with ratio 2: unit intervals on S span two steps on P."""
    n_s, n_p = 5, 10
    events = [(f"s{i}", "S") for i in range(n_s)] + [(f"p{i}", "P") for i in range(n_p)]
    chains = {"S": [f"s{i}" for i in range(n_s)], "P": [f"p{i}" for i in range(n_p)]}
    influence = []
    for i in range(n_s):
        if 2 * i < n_p:
            influence.append((f"s{i}", f"p{2 * i}"))
    for j in range(n_p):
        target = j // 2 + 1
        if target < n_s:
            influence.append((f"p{j}", f"s{target}"))
    return build_poset(events, chains, influence)


def random_valid_poset(rng: random.Random, max_events: int = 12):
    """Random chains plus forward-only cross-chain edges; acyclic by construction."""
    n = rng.randint(2, max_events)
    n_chains = rng.randint(1, min(3, n))
    ranks = list(range(n))
    rng.shuffle(ranks)
    assignment = [rng.randrange(n_chains) for _ in range(n)]
    # make sure no chain is empty: each chain claims an event of its own, so
    # no claim can empty a chain that an earlier one filled
    for c, i in enumerate(rng.sample(range(n), n_chains)):
        assignment[i] = c
    events = [(f"e{i}", f"c{assignment[i]}") for i in range(n)]
    chains = {}
    for c in range(n_chains):
        members = [i for i in range(n) if assignment[i] == c]
        members.sort(key=lambda i: ranks[i])
        chains[f"c{c}"] = [f"e{i}" for i in members]
    influence = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if assignment[i] != assignment[j] and ranks[i] < ranks[j]:
            influence.append((f"e{i}", f"e{j}"))
    return build_poset(events, chains, influence)


@st.composite
def unruly_posets(draw):
    """Random posets that may hold cycles, self-loops, intra-chain edges,
    empty chains and events missing from their chain's order."""
    n = draw(st.integers(1, 14))
    n_chains = draw(st.integers(1, 3))
    chain_of = draw(st.lists(st.integers(0, n_chains - 1), min_size=n, max_size=n))
    chains = {}
    for c in range(n_chains):
        members = draw(st.permutations([i for i in range(n) if chain_of[i] == c]))
        dropped = draw(st.sets(st.sampled_from(members))) if members else set()
        chains[f"c{c}"] = [f"e{i}" for i in members if i not in dropped]
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    return build_poset(
        [(f"e{i}", f"c{chain_of[i]}") for i in range(n)],
        chains,
        [(f"e{i}", f"e{j}") for i, j in edges],
    )


@pytest.fixture
def ladder():
    return ladder_poset()


@pytest.fixture
def ladder_file(tmp_path):
    """The path of `ladder_poset()`'s document, saved as `ladder.json`."""
    path = tmp_path / "ladder.json"
    save_poset(ladder_poset(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def np():
    """numpy, for the tests that compare with it.  numpy missing, or built for
    another interpreter (an ImportError that pytest.importorskip does not skip
    quietly), skips those tests alone."""
    try:
        import numpy
    except ImportError:
        pytest.skip("numpy is not importable")
    return numpy
