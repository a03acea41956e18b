"""Instance transformers linking small k-sum to cup-tournament bribery.

The chain is

    small k-sum --shift--> shifted k-sum --> product knapsack
    --> multicolored product knapsack --> challenge-the-champ bribery --> cup

Each transformer is a pure function from a source instance to a target
instance; the chain suites in `verify` run a brute-force oracle once on each
side and compare the decisions and optima.  The equivalence argument behind
the k-sum chain assumes sizable instances (k >= 4, shifted target >= 4);
desk-scale instances below those sizes are still transformed and checked
empirically, and `chain_preconditions_met` tells a verifier which regime an
instance is in.

Profits stay exact rationals end to end; no integer rescaling is applied.
"""

from __future__ import annotations

from fractions import Fraction

from .core import BribeEntry, BribePlan, BribeVector, CbcctInstance
from .cup import CUP_PAIRS_CAP, CupInstance, Pair
from .errors import CapExceededError, ReductionError
from .knapsack import MpkInstance, PkpInstance, PkpItem, SmallKSumInstance


SHIFT_BITS_CAP = 1 << 16


def shift_ksum(inst: SmallKSumInstance) -> SmallKSumInstance:
    """Shift every number by 2n^2k + n^(k^2) so a zero sum becomes sum T = k*shift.

    Input must be unshifted with target 0; its numbers lie within
    [-n^2k, n^2k], which `SmallKSumInstance` enforces for every unshifted
    instance, so the shifted numbers land in [n^2k + n^(k^2), 3n^2k + n^(k^2)].
    A shift longer than `SHIFT_BITS_CAP` bits raises `CapExceededError`; n^e
    has more than e*(bits(n) - 1) bits, so a shift far over the cap is
    refused before any power is built.
    """
    if inst.shifted:
        raise ReductionError("instance is already shifted")
    if inst.target != 0:
        raise ReductionError("shift applies to zero-target instances only")
    n = len(inst.numbers)
    k = inst.k
    if max(2 * k, k * k) * (n.bit_length() - 1) > SHIFT_BITS_CAP:
        raise CapExceededError(f"the k-sum shift for n={n}, k={k} exceeds {SHIFT_BITS_CAP} bits")
    shift = 2 * n ** (2 * k) + n ** (k * k)
    if shift.bit_length() > SHIFT_BITS_CAP:
        raise CapExceededError(
            f"the k-sum shift has {shift.bit_length()} bits, over {SHIFT_BITS_CAP}"
        )
    shifted = tuple(s + shift for s in inst.numbers)
    lo, hi = n ** (2 * k) + n ** (k * k), 3 * n ** (2 * k) + n ** (k * k)
    assert all(lo <= s <= hi for s in shifted)
    return SmallKSumInstance(shifted, k, target=k * shift, shifted=True)


def ksum_to_pkp(inst: SmallKSumInstance) -> PkpInstance:
    """Shifted k-sum to product knapsack: item i gets weight s'_i and profit
    (1 - s'_i/T^2)^(-1); capacity T and target (1 - 1/T + 1/(2T^2))^(-1)."""
    if not inst.shifted:
        raise ReductionError("ksum_to_pkp expects a shifted instance (apply shift_ksum)")
    t = inst.target
    if t <= 0:
        raise ReductionError(f"shifted target must be positive, got {t}")
    t_sq = t * t
    items = []
    for s in inst.numbers:
        if not 0 < s < t_sq:
            raise ReductionError(f"shifted number {s} outside (0, T^2)")
        items.append(PkpItem(s, Fraction(t_sq, t_sq - s)))
    target = 1 / (1 - Fraction(1, t) + Fraction(1, 2 * t_sq))
    return PkpInstance(tuple(items), t, target)


def pkp_to_mpk(inst: PkpInstance) -> MpkInstance:
    """Singleton color classes, each padded with a zero-weight profit-1 item.

    A color class forces one pick; the padding item makes "skip this item"
    expressible, so selections correspond exactly to knapsack subsets.
    """
    items: list[PkpItem] = []
    classes: list[tuple[int, ...]] = []
    for item in inst.items:
        items.append(item)
        items.append(PkpItem(0, Fraction(1)))
        classes.append((len(items) - 2, len(items) - 1))
    return MpkInstance(tuple(items), tuple(classes), inst.capacity, inst.target)


def chain_preconditions_met(inst: SmallKSumInstance) -> bool:
    """Whether the k-sum chain's size assumptions (k >= 4 and T >= 4) hold."""
    if inst.shifted:
        return inst.k >= 4 and inst.target >= 4
    # T = k * (2n^2k + n^(k^2)) is 0 for n = 0 and at least 12 for n >= 1.
    return inst.k >= 4 and len(inst.numbers) >= 1


def mpk_to_cbcct(inst: MpkInstance) -> CbcctInstance:
    """One challenger per color class; items become (weight, profit) entries.

    Profits must lie in (0, 1] so they are valid losing probabilities, and
    the target must lie in [0, 1] to be a valid threshold.  Within a class,
    items sharing a weight collapse to the most profitable one (the others
    are dominated); an exact duplicate (weight, profit) pair is rejected.
    """
    if inst.target > 1:
        raise ReductionError(f"target {inst.target} exceeds 1; not a probability threshold")
    vectors = []
    for ci, cls in enumerate(inst.classes):
        by_weight: dict[int, list[Fraction]] = {}
        for idx in cls:
            item = inst.items[idx]
            if item.profit > 1:
                raise ReductionError(
                    f"item {idx} has profit {item.profit} outside (0, 1]"
                )
            by_weight.setdefault(item.weight, []).append(item.profit)
        entries = []
        for weight in sorted(by_weight):
            profits = by_weight[weight]
            if len(profits) != len(set(profits)):
                raise ReductionError(
                    f"class {ci} has items with equal weight {weight} and equal profit"
                )
            entries.append(BribeEntry(weight, max(profits)))
        vectors.append(BribeVector(tuple(entries)))
    return CbcctInstance(tuple(vectors), inst.capacity, inst.target)


def cbcct_to_cup(inst: CbcctInstance) -> CupInstance:
    """Embed an m-challenger instance into a 2**m-leaf cup.

    The favorite sits at leaf position 1 and main player i at position
    2**(i-1) + 1 (1-based), so with dummies losing to main players with
    probability 1 the favorite meets main player i exactly in round i.  The
    (main i vs favorite) vectors are the original bribe vectors; every other
    stored vector is a single zero-price entry.  Budget and threshold carry
    over unchanged.

    More than `CUP_PAIRS_CAP` stored vectors (any m >= 10) raises
    `CapExceededError` before anything is built.
    """
    m = inst.num_challengers
    if m < 1:
        raise ReductionError("cup construction needs at least one challenger")
    # C(m + 1, 2) pairs among the favorite and the main players, and C(2**i, 2)
    # inside main player i+1's subtree of 2**i leaves; the count only grows.
    pairs = m * (m + 1) // 2
    for i in range(m):
        pairs += (1 << i) * ((1 << i) - 1) // 2
        if pairs > CUP_PAIRS_CAP:
            raise CapExceededError(
                f"a cup image of {m} challengers needs more than {CUP_PAIRS_CAP} pairwise vectors"
            )
    n = 1 << m
    half = Fraction(1, 2)
    # Player indices: 0 = favorite, 1..m = main players, rest dummies.
    seeding = [-1] * n
    seeding[0] = 0
    for i in range(1, m + 1):
        seeding[1 << (i - 1)] = i  # leaf position 2**(i-1) + 1, 1-based
    next_dummy = m + 1
    for pos in range(n):
        if seeding[pos] < 0:
            seeding[pos] = next_dummy
            next_dummy += 1

    def single(p: Fraction) -> BribeVector:
        return BribeVector((BribeEntry(0, p),))

    pairwise: dict[Pair, BribeVector] = {}
    for i in range(1, m + 1):
        pairwise[(i, 0)] = inst.bribe_vectors[i - 1]
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            pairwise[(i, j)] = single(half)
    # Dummies interact only inside the subtree of "their" main player.
    for i in range(1, m + 1):
        lo, hi = 1 << (i - 1), 1 << i
        subtree = [seeding[pos] for pos in range(lo, hi)]
        dummies = [p for p in subtree if p > m]
        for d in dummies:
            pairwise[(d, i)] = single(Fraction(1))
        for a in range(len(dummies)):
            for b in range(a + 1, len(dummies)):
                pairwise[(dummies[a], dummies[b])] = single(half)
    return CupInstance(n, 0, tuple(seeding), pairwise, inst.budget, inst.threshold)


def cup_choices_from_plan(plan: BribePlan) -> dict[Pair, int]:
    """Translate a source plan into bribe choices on the cup image."""
    return {(i, 0): j for i, j in enumerate(plan.choices, start=1)}
