"""Seeded random instance generators for all five instance families.

Determinism contract: the same (seed, index) always produces a byte-identical
serialized instance.  Streams are split by hashing the seed and index through
SHA-256, so batches can be generated independently and in any order.

Thresholds and targets are drawn around the value of a sampled feasible
solution so that yes- and no-instances both occur at useful rates (the
solver-agreement suites pin the observed yes-rate as a regression band).
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Sequence

from .core import BribeEntry, BribePlan, BribeVector, CbcctInstance, evaluate_plan, normalize_bribe_vector
from .cup import CupInstance
from .errors import CapExceededError, InstanceError
from .knapsack import MpkInstance, PkpInstance, PkpItem, SmallKSumInstance, ksum_bound
from .rational import check_field

# Largest default k-sum magnitude n^2k, in bits, that `gen_ksum` draws from;
# 8192 bits is 2467 digits, inside Python's default int-to-str digit limit.
KSUM_BITS_CAP = 1 << 13

# Most pairwise bribe vectors `gen_cup` draws.  C(2**rounds, 2) grows as
# 4**rounds; 2**16 allows up to 8 rounds (256 players, 32 640 pairs).
CUP_PAIRS_CAP = 1 << 16

DEFAULT_VALUE_POOL: tuple[int, ...] = (0, 1, 2, 3, 5)
DEFAULT_PROB_POOL: tuple[Fraction, ...] = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)

# Mix of threshold inflation factors; > 1 may push the threshold out of reach.
_THRESHOLD_FACTORS = (
    Fraction(1),
    Fraction(9, 8),
    Fraction(4, 3),
    Fraction(2),
    Fraction(3),
)


def split_rng(seed: int, *key) -> random.Random:
    """Deterministic child PRNG for (seed, key...); stable across runs."""
    material = f"{seed}|" + "|".join(str(part) for part in key)
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_vector(
    rng: random.Random,
    lmax: int,
    value_pool: Sequence[int],
    prob_pool: Sequence[Fraction],
    normalize: bool,
    canonical: bool,
) -> BribeVector:
    length = rng.randint(1, lmax)
    if canonical:
        rest = [v for v in value_pool if v != 0]
        bribes = [0] + sorted(rng.sample(rest, length - 1))
    else:
        bribes = sorted(rng.sample(list(value_pool), length))
    entries = tuple(BribeEntry(b, rng.choice(list(prob_pool))) for b in bribes)
    vec = BribeVector(entries)
    return normalize_bribe_vector(vec) if normalize else vec


def gen_cbcct(
    seed: int,
    n: int,
    lmax: int,
    budget: int,
    value_pool: Sequence[int] = DEFAULT_VALUE_POOL,
    prob_pool: Sequence[Fraction] = DEFAULT_PROB_POOL,
    *,
    normalize: bool = True,
    canonical: bool = False,
    index: int = 0,
) -> CbcctInstance:
    """Random challenge-the-champ instance drawn from the given pools.

    With `canonical` set, every vector starts with a zero-price entry (the
    no-bribe baseline), so the all-first plan is always affordable.
    """
    check_field(n, "n")
    check_field(lmax, "lmax", 1)
    if not value_pool or not prob_pool:
        raise InstanceError("value and probability pools must be nonempty")
    if lmax > len(set(value_pool)):
        raise InstanceError(
            f"lmax {lmax} exceeds the {len(set(value_pool))} distinct pool values"
        )
    pool = sorted(set(value_pool))
    if canonical and (0 not in pool or lmax > len(pool)):
        raise InstanceError("canonical vectors need 0 in the value pool")
    probs = [Fraction(p) for p in prob_pool]
    if any(not 0 <= p <= 1 for p in probs):
        raise InstanceError("probability pool values must lie in [0, 1]")
    rng = split_rng(seed, "cbcct", index)
    vectors = tuple(
        _draw_vector(rng, lmax, pool, probs, normalize, canonical) for _ in range(n)
    )
    threshold = _draw_threshold(rng, vectors, budget)
    return CbcctInstance(vectors, budget, threshold)


def _draw_threshold(rng: random.Random, vectors, budget: int) -> Fraction:
    """Threshold near the value of a random affordable plan, clamped to [0, 1]."""
    if not vectors:
        return Fraction(rng.choice((0, 1)))
    shell = CbcctInstance(vectors, budget, Fraction(0))
    plan = None
    for _ in range(24):
        candidate = BribePlan(tuple(rng.randint(1, len(v)) for v in vectors))
        if evaluate_plan(shell, candidate).cost <= budget:
            plan = candidate
            break
    if plan is None:
        cheapest = BribePlan((1,) * len(vectors))
        if evaluate_plan(shell, cheapest).cost <= budget:
            plan = cheapest
        else:
            return Fraction(1)  # nothing affordable; any positive threshold is a no
    prob = evaluate_plan(shell, plan).win_probability
    threshold = prob * rng.choice(_THRESHOLD_FACTORS)
    return min(threshold, Fraction(1))


def make_nonmonotone(inst: CbcctInstance) -> CbcctInstance:
    """Deterministically force at least one non-monotone vector.

    Used by the normalization-equivalence suite: reverses the probabilities
    of the first challenger whose vector has two or more entries.  If every
    vector is a single entry, the first one gets a pricier duplicate of its
    probability appended, which normalization must delete again.
    """
    if inst.num_challengers == 0:
        return inst
    vectors = list(inst.bribe_vectors)
    for i, v in enumerate(vectors):
        if len(v) >= 2:
            probs = sorted(v.probabilities(), reverse=True)
            entries = tuple(
                BribeEntry(e.bribe, p) for e, p in zip(v.entries, probs)
            )
            vectors[i] = BribeVector(entries)
            break
    else:
        only = vectors[0].entries[0]
        vectors[0] = BribeVector(
            (only, BribeEntry(only.bribe + 1, only.losing_probability))
        )
    return CbcctInstance(tuple(vectors), inst.budget, inst.threshold)


def gen_ksum(
    seed: int,
    n: int,
    k: int,
    magnitude: int | None = None,
    *,
    planted: bool = False,
    index: int = 0,
) -> SmallKSumInstance:
    """Random small k-sum instance with |s_i| <= magnitude (default n^2k).

    A default n^2k of more than `KSUM_BITS_CAP` bits raises `CapExceededError`.
    """
    check_field(n, "n")
    mag = 1 << KSUM_BITS_CAP if magnitude is None else check_field(magnitude, "magnitude")
    bound = ksum_bound(n, check_field(k, "k"), mag)
    if magnitude is None:
        if bound is None or bound >= mag:
            raise CapExceededError(f"n^2k for n={n}, k={k} exceeds {KSUM_BITS_CAP} bits")
        mag = bound
    elif bound is not None and mag > bound:
        raise InstanceError(f"magnitude {mag} violates the n^2k bound of {bound}")
    rng = split_rng(seed, "ksum", index)
    numbers = [rng.randint(-mag, mag) for _ in range(n)]
    if planted and k:
        if k > n:
            raise InstanceError(f"cannot plant a {k}-subset in {n} numbers")
        for _ in range(200):
            prefix = [rng.randint(-mag, mag) for _ in range(k - 1)]
            last = -sum(prefix)
            if abs(last) <= mag:
                positions = rng.sample(range(n), k)
                for pos, value in zip(positions, prefix + [last]):
                    numbers[pos] = value
                break
        else:
            positions = rng.sample(range(n), k)
            for pos in positions:
                numbers[pos] = 0
    return SmallKSumInstance(tuple(numbers), k)


DEFAULT_PROFIT_POOL: tuple[Fraction, ...] = (
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1),
)


def gen_mpk(
    seed: int,
    class_sizes: Sequence[int],
    weight_pool: Sequence[int] = (0, 1, 2, 3, 5),
    profit_pool: Sequence[Fraction] = DEFAULT_PROFIT_POOL,
    *,
    planted: bool = False,
    index: int = 0,
) -> MpkInstance:
    """Random multicolored product knapsack with profits in (0, 1].

    Weights within a class are drawn without replacement, so the
    challenge-the-champ image keeps one entry per item.
    """
    if not class_sizes:
        raise InstanceError("need at least one color class")
    for size in class_sizes:
        check_field(size, "class size", 1)
    if max(class_sizes) > len(set(weight_pool)):
        raise InstanceError("class size exceeds distinct weight pool values")
    profits = [Fraction(p) for p in profit_pool]
    if any(not 0 < p <= 1 for p in profits):
        raise InstanceError("profit pool values must lie in (0, 1]")
    rng = split_rng(seed, "mpk", index)
    items: list[PkpItem] = []
    classes: list[tuple[int, ...]] = []
    for size in class_sizes:
        weights = sorted(rng.sample(sorted(set(weight_pool)), size))
        start = len(items)
        for w in weights:
            items.append(PkpItem(w, rng.choice(profits)))
        classes.append(tuple(range(start, len(items))))
    selection = [rng.choice(cls) for cls in classes]
    sel_weight = sum(items[i].weight for i in selection)
    sel_product = Fraction(1)
    for i in selection:
        sel_product *= items[i].profit
    if planted:
        capacity, target = sel_weight, sel_product
    else:
        capacity = sel_weight + rng.randint(0, 2)
        target = min(Fraction(1), sel_product * rng.choice(_THRESHOLD_FACTORS))
    return MpkInstance(tuple(items), tuple(classes), max(capacity, 1), target)


def gen_pkp(
    seed: int,
    n: int,
    weight_range: tuple[int, int] = (0, 8),
    profit_pool: Sequence[Fraction] = (
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(1),
        Fraction(4, 3),
        Fraction(2),
    ),
    *,
    index: int = 0,
) -> PkpInstance:
    """Random product knapsack; profits may exceed 1."""
    check_field(n, "n")
    rng = split_rng(seed, "pkp", index)
    items = tuple(
        PkpItem(rng.randint(*weight_range), rng.choice(list(profit_pool)))
        for _ in range(n)
    )
    taken = [i for i in range(n) if rng.random() < 0.5]
    capacity = max(1, sum(items[i].weight for i in taken) + rng.randint(0, 2))
    product = Fraction(1)
    for i in taken:
        product *= items[i].profit
    target = product * rng.choice(_THRESHOLD_FACTORS)
    if target <= 0:
        target = Fraction(1)
    return PkpInstance(items, capacity, target)


def gen_cup(
    seed: int,
    rounds: int,
    lmax: int = 2,
    value_pool: Sequence[int] = (0, 1, 2),
    prob_pool: Sequence[Fraction] = DEFAULT_PROB_POOL,
    *,
    index: int = 0,
) -> CupInstance:
    """Random cup instance on 2**rounds players with full pairwise vectors.

    More than `CUP_PAIRS_CAP` pairwise vectors raises `CapExceededError`
    before anything is drawn.
    """
    check_field(rounds, "rounds")
    check_field(lmax, "lmax", 1)
    players = 1 << min(rounds, 64)  # 2**64 players already exceed any cap
    if players * (players - 1) // 2 > CUP_PAIRS_CAP:
        raise CapExceededError(
            f"a cup of {rounds} rounds needs more than {CUP_PAIRS_CAP} pairwise vectors"
        )
    if lmax > len(set(value_pool)):
        raise InstanceError("lmax exceeds distinct value pool size")
    rng = split_rng(seed, "cup", index)
    n = 1 << rounds
    pool = sorted(set(value_pool))
    probs = [Fraction(p) for p in prob_pool]
    pairwise = {
        (i, j): _draw_vector(rng, lmax, pool, probs, normalize=True, canonical=False)
        for i in range(n)
        for j in range(i + 1, n)
    }
    seeding = list(range(n))
    rng.shuffle(seeding)
    budget = rng.randint(0, max(1, len(pairwise)))
    threshold = rng.choice(probs)
    return CupInstance(n, rng.randrange(n), tuple(seeding), pairwise, budget, threshold)
