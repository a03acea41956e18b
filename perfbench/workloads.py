"""Seeded workload generators for the champbribe benchmark.

The benchmark owns its inputs: every instance is drawn here with
`random.Random`, independently of `champbribe.generators`, so a change to
the package cannot move the inputs it is measured on.  The same seed always
gives the same inputs.  Instances leave this module as JSON-ready dicts in
the package's challenge-the-champ schema; the program only ever sees them
through `core.instance_from_dict`.

Each workload names the solver routes it times and the reason it exists.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

# Pools of the package's acceptance scale instance (`verify.SCALE_*`).
SCALE_VALUES = (0, 500, 1000, 2500, 6000)
SCALE_PROBS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
# Pools of the solver-agreement suite (`generators.DEFAULT_*`).
DEFAULT_VALUES = (0, 1, 2, 3, 5)
DEFAULT_PROBS = SCALE_PROBS
THRESHOLD_FACTORS = (Fraction(1), Fraction(9, 8), Fraction(4, 3), Fraction(2), Fraction(3))


def _odd_primes(count: int) -> list[int]:
    primes: list[int] = []
    q = 3
    while len(primes) < count:
        if all(q % p for p in primes if p * p <= q):
            primes.append(q)
        q += 2
    return primes


# Many distinct denominators: (q - 1 - (i mod 3)) / q over the first 40 odd primes.
DENOM_PROBS = tuple(Fraction(q - 1 - i % 3, q) for i, q in enumerate(_odd_primes(40)))
DENOM_VALUES = (0,) + tuple(range(1, 198, 7))

# Every workload draws its instances from this fixed seed, and the run seed
# only orders the solves.  Solve time depends strongly on the draw, so the
# inputs a run can afford do not total steadily when the seed redraws them:
# over seeds 1-5, fresh dp-denoms draws took 4.3-6.9 s and 543-928 MB, the
# same draw with its challengers reordered 1.4-2.6 s, and a fresh
# small-batch draw for seed 3 took 1.4x that of seed 1.
FIXED_SEED = 0


def _rng(seed: int, *key) -> random.Random:
    material = "|".join(str(part) for part in (seed,) + key)
    return random.Random(int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big"))


def _draw_vector(rng, lmax, values, probs, canonical):
    length = rng.randint(1, lmax)
    if canonical:
        bribes = [0] + sorted(rng.sample([v for v in values if v], length - 1))
    else:
        bribes = sorted(rng.sample(list(values), length))
    entries = []
    for b in bribes:
        p = rng.choice(probs)
        # Normalized: an entry that buys no higher probability is dropped.
        if not entries or p > entries[-1][1]:
            entries.append((b, p))
    return entries


def _draw_threshold(rng, vectors, budget):
    """Threshold near the value of a random affordable plan, capped at 1."""
    if not vectors:
        return Fraction(rng.choice((0, 1)))
    plan = None
    for _ in range(24):
        choice = [rng.choice(v) for v in vectors]
        if sum(b for b, _ in choice) <= budget:
            plan = choice
            break
    if plan is None:
        plan = [v[0] for v in vectors]
        if sum(b for b, _ in plan) > budget:
            return Fraction(1)
    prob = math.prod((p for _, p in plan), start=Fraction(1))
    return min(prob * rng.choice(THRESHOLD_FACTORS), Fraction(1))


def draw_instance(rng, n, lmax, budget, values, probs, canonical) -> dict:
    vectors = [_draw_vector(rng, lmax, values, probs, canonical) for _ in range(n)]
    threshold = _draw_threshold(rng, vectors, budget)
    return {
        "players": [{"entries": [{"bribe": b, "p": str(p)} for b, p in v]} for v in vectors],
        "budget": budget,
        "threshold": str(threshold),
    }


def _dp_scale(rng):
    return [draw_instance(rng, 1000, 4, 10**5, SCALE_VALUES, SCALE_PROBS, True)]


def _dp_denoms(rng):
    return [draw_instance(rng, 300, 4, 1000, DENOM_VALUES, DENOM_PROBS, True)]


def _fpt_mid(rng):
    return [draw_instance(rng, n, 4, 1000 * n, SCALE_VALUES, SCALE_PROBS, True)
            for n in (20, 20, 20, 40)]


def _small_batch(rng):
    insts = []
    for _ in range(250):
        n, budget = rng.randint(0, 6), rng.randint(0, 20)
        insts.append(draw_instance(rng, n, 3, budget, DEFAULT_VALUES, DEFAULT_PROBS, False))
    return insts


WORKLOADS = {
    "dp-scale": {
        "draw": _dp_scale,
        "routes": ("dp",),
        "why": "Acceptance-criterion-3 shape (scale pools, canonical vectors, l=4, "
        "n=1000, B=1e5): the dense row kernel dominates, so this is where a DP "
        "change shows; the FPT routes are not timed (seconds to minutes per solve).",
    },
    "dp-denoms": {
        "draw": _dp_denoms,
        "routes": ("dp",),
        "why": "Losing probabilities over 40 distinct odd-prime denominators "
        "(n=300, B=1000, l=4): big-integer size dominates and the kernel is a "
        "small share, which decides the DP's value representation.",
    },
    "fpt-mid": {
        "draw": _fpt_mid,
        "routes": ("fpt-bribes", "fpt-probs"),
        "why": "Scale pools at n=20 (x3) and n=40 (x1), B=1000n: exact Fraction "
        "simplex and branch and bound dominate and the DP is bypassed.  Every "
        "drawn instance is kept, though one solve takes 0.03-26 s by draw.",
    },
    "small-batch": {
        "draw": _small_batch,
        "routes": ("dp", "fpt-bribes", "fpt-probs"),
        "why": "The solver-agreement distribution (default pools, n 0..6, B 0..20, "
        "l<=3, 250 instances): per-call fixed cost dominates, so added per-call "
        "set-up shows here as a regression; brute force is the oracle.",
    },
}

# Sizes deliberately not measured yet; each comes back as its own benchmark change.
LEFT_OUT = {
    "dp (n=1000, B=1e7)": "exceeds today's dp cell_cap (n*B <= 1e8); waits for the "
    "sparse frontier DP (ROADMAP item 2)",
    "fpt-probs n=80": "over 30 s on 2 of 5 draws; waits for warm-started "
    "fraction-free branch and bound (ROADMAP item 3)",
}


def make(name: str, seed: int) -> list[dict]:
    """The workload's instances, in the run seed's order."""
    insts = WORKLOADS[name]["draw"](_rng(FIXED_SEED, name))
    _rng(seed, name, "order").shuffle(insts)
    return insts


def properties(instances: list[dict]) -> dict:
    """Shape of a workload's instance set, recorded with every run."""
    ns = [len(d["players"]) for d in instances]
    budgets = [d["budget"] for d in instances]
    values, probs = set(), set()
    lcm = 1
    for d in instances:
        for player in d["players"]:
            for e in player["entries"]:
                values.add(e["bribe"])
                p = Fraction(e["p"])
                probs.add(p)
                lcm = math.lcm(lcm, p.denominator)
    return {
        "instances": len(instances),
        "n": [min(ns), max(ns)],
        "B": [min(budgets), max(budgets)],
        "distinct_values": len(values),
        "distinct_probs": len(probs),
        "lcm_digits": len(str(lcm)),
    }
