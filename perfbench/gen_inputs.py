"""Seeded poset documents for the quantify-posets workload.

Regenerate the documents of one seed (the benchmark does this at set-up):

    python3 perfbench/gen_inputs.py --seed 7 --out perfbench/out/inputs

The same seed always writes the same bytes.  Sizes are fixed; the seed only
moves offsets, event times, influence endpoints and the order in which the
document lists events and edges, so the work per document barely changes
from seed to seed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random

# Ladder documents: two chains P and Q of `per_chain` events each, with
# influence p_i -> q_{i+k} and q_i -> p_{i+k}.  Offsets are drawn from
# 1..MAX_OFFSET; a small range keeps the projection scans (whose length
# grows with k) almost seed-independent.
MAX_OFFSET = 6
LADDERS = {"ladder_a": 1000, "ladder_b": 450}

# Random multi-chain documents: (chains, events per chain, influence edges).
# Chain P covers only the middle of the time range, so events at either end
# of the other chains have absent projections onto P.
RANDOM_POSETS = {
    "random_c": (4, 500, 1200),
    "random_d": (3, 200, 400),
}

# validate-only documents straddling the 10,000-event closure threshold.
VALIDATE_POSETS = {
    "validate_9k": (6, 1500, 9000),
    "validate_12k": (6, 2000, 12000),
}

CHAIN_NAMES = "PQRSTUVW"


def ladder_document(rng: random.Random, per_chain: int, offset: int) -> dict:
    p = [f"p{i}" for i in range(per_chain)]
    q = [f"q{i}" for i in range(per_chain)]
    events = [{"id": e, "chain": "P"} for e in p] + [{"id": e, "chain": "Q"} for e in q]
    influence = [[p[i], q[i + offset]] for i in range(per_chain - offset)]
    influence += [[q[i], p[i + offset]] for i in range(per_chain - offset)]
    rng.shuffle(events)
    rng.shuffle(influence)
    return {"version": 1, "events": events, "chains": {"P": p, "Q": q}, "influence": influence}


def random_document(rng: random.Random, n_chains: int, per_chain: int, n_edges: int) -> dict:
    """Acyclic by construction: every event has a time, chains list events in
    time order, and every influence edge goes strictly forward in time."""
    names = CHAIN_NAMES[:n_chains]
    times: dict[str, list[float]] = {}
    for name in names:
        lo, hi = (0.15, 0.85) if name == "P" else (0.0, 1.0)
        times[name] = sorted(rng.uniform(lo, hi) for _ in range(per_chain))
    ids = {name: [f"{name.lower()}{k}" for k in range(per_chain)] for name in names}
    window = 8.0 / per_chain
    influence = []
    while len(influence) < n_edges:
        src_chain, dst_chain = rng.sample(names, 2)
        k = rng.randrange(per_chain)
        due = times[src_chain][k] + rng.uniform(0.0, window)
        j = bisect.bisect_right(times[dst_chain], due)
        if j < per_chain:
            influence.append([ids[src_chain][k], ids[dst_chain][j]])
    events = [{"id": e, "chain": name} for name in names for e in ids[name]]
    rng.shuffle(events)
    rng.shuffle(influence)
    return {"version": 1, "events": events, "chains": ids, "influence": influence}


def generate(seed: int) -> dict[str, tuple[dict, dict]]:
    """Documents of one seed as name -> (document, facts the checks need)."""
    rng = random.Random(seed)
    out = {}
    for name, per_chain in LADDERS.items():
        offset = rng.randint(1, MAX_OFFSET)
        out[name] = (ladder_document(rng, per_chain, offset), {"ladder_offset": offset})
    for name, shape in {**RANDOM_POSETS, **VALIDATE_POSETS}.items():
        doc = random_document(rng, *shape)
        out[name] = (doc, {})
    return out


def write_inputs(seed: int, out_dir: str) -> dict[str, dict]:
    """Write <name>.json per document; return name -> facts with its path."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {}
    for name, (doc, facts) in generate(seed).items():
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        manifest[name] = {"path": path, "events": len(doc["events"]),
                          "chains": len(doc["chains"]), **facts}
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the documents")
    args = parser.parse_args()
    for name, facts in write_inputs(args.seed, args.out).items():
        print(name, json.dumps(facts, sort_keys=True))


if __name__ == "__main__":
    main()
