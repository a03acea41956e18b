"""Product knapsack, its multicolored variant, and small k-sum.

These three problems and their brute-force solvers serve as oracles for the
reduction chain: every instance transformer in `champbribe.reductions` is
verified by solving source and target with the routines here.  Profits are
positive rationals (slightly more general than natural numbers) so that
reduction outputs compose exactly without any lossy integer rescaling.

Product knapsack's pseudo-polynomial solver, `solve_pkp_dp`, holds no DP of
its own: it rewrites the items as two-entry challengers and runs the budget
DP of `champbribe.dp`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import dp
from .core import BribeEntry, BribeVector, CbcctInstance
from .errors import CapExceededError, InstanceError
from .rational import check_field, format_rational, parse_rational


@dataclass(frozen=True)
class PkpItem:
    weight: int
    profit: Fraction

    def __post_init__(self) -> None:
        check_field(self.weight, "item weight")
        object.__setattr__(self, "profit", Fraction(self.profit))
        if self.profit <= 0:
            raise InstanceError(f"item profit must be positive, got {self.profit}")


@dataclass(frozen=True)
class PkpInstance:
    """Maximize the product of selected profits under a weight capacity."""

    items: tuple[PkpItem, ...]
    capacity: int
    target: Fraction

    def __post_init__(self) -> None:
        _check_knapsack(self)


@dataclass(frozen=True)
class MpkInstance:
    """Product knapsack with color classes; exactly one item per class."""

    items: tuple[PkpItem, ...]
    classes: tuple[tuple[int, ...], ...]
    capacity: int
    target: Fraction

    def __post_init__(self) -> None:
        _check_knapsack(self)
        object.__setattr__(self, "classes", tuple(tuple(c) for c in self.classes))
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise InstanceError("color classes must be nonempty")
            for idx in cls:
                if check_field(idx, "class item index") >= len(self.items):
                    raise InstanceError(f"class item index {idx} out of range")
                if idx in seen:
                    raise InstanceError(f"item {idx} appears in two classes")
                seen.add(idx)
        if len(seen) != len(self.items):
            raise InstanceError("classes must partition all items")

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _check_knapsack(inst: PkpInstance | MpkInstance) -> None:
    """The item, capacity and target rules shared by both knapsack variants."""
    object.__setattr__(inst, "items", tuple(inst.items))
    check_field(inst.capacity, "capacity", 1)
    object.__setattr__(inst, "target", Fraction(inst.target))
    if inst.target <= 0:
        raise InstanceError(f"target value must be positive, got {inst.target}")


@dataclass(frozen=True)
class SmallKSumInstance:
    """Does some size-k subset of `numbers` sum to `target`?

    Unshifted instances must satisfy |s_i| <= n**(2k) and use target 0; the
    `shifted` flag marks instances produced by `reductions.shift_ksum`, whose
    target is the shifted value T.
    """

    numbers: tuple[int, ...]
    k: int
    target: int = 0
    shifted: bool = False

    def __post_init__(self) -> None:
        numbers = tuple(check_field(s, "k-sum number", None) for s in self.numbers)
        object.__setattr__(self, "numbers", numbers)
        check_field(self.k, "k")
        check_field(self.target, "k-sum target", None)
        check_field(self.shifted, "shifted", flag=True)
        top = max((abs(s) for s in numbers), default=0)
        bound = None if self.shifted else ksum_bound(len(numbers), self.k, top)
        if bound is not None and top > bound:
            raise InstanceError(
                f"unshifted numbers must lie in [-n^2k, n^2k] = [-{bound}, {bound}]"
            )


def ksum_bound(n: int, k: int, top: int) -> int | None:
    """n^2k, or None when it certainly exceeds `top` and so is never built.

    For n >= 2, n^2k >= 2^2k exceeds every value of at most 2k bits, so the
    power is built only when it has at most n^bits(top) size.
    """
    if n >= 2 and 2 * k > top.bit_length():
        return None
    return n ** (2 * k)


class PkpResult(NamedTuple):
    best_product: Fraction
    witness: tuple[int, ...]
    decision: bool


class MpkResult(NamedTuple):
    best_product: Fraction | None
    witness: tuple[int, ...] | None
    decision: bool


class KsumResult(NamedTuple):
    decision: bool
    witness: tuple[int, ...] | None


def solve_pkp_bruteforce(inst: PkpInstance, max_items: int = 24) -> PkpResult:
    """Enumerate all subsets; ties go to the earliest (smallest bitmask) subset."""
    n = len(inst.items)
    if n > max_items:
        raise CapExceededError(f"{n} items exceed the brute-force cap of {max_items}")
    best = Fraction(1)  # empty subset
    best_subset: tuple[int, ...] = ()
    for mask in range(1, 1 << n):
        weight = 0
        product = Fraction(1)
        for i in range(n):
            if mask >> i & 1:
                weight += inst.items[i].weight
                product *= inst.items[i].profit
        if weight <= inst.capacity and product > best:
            best = product
            best_subset = tuple(i for i in range(n) if mask >> i & 1)
    return PkpResult(best, best_subset, best >= inst.target)


def solve_pkp_dp(inst: PkpInstance) -> PkpResult:
    """Product knapsack on the budget DP of `champbribe.dp`; equals brute force.

    Item i becomes a challenger with the entries skip (0, 1/m) and take
    (w_i, p_i/m), m = max(1, p_i), so both are probabilities; a zero-weight
    item keeps only its better entry.  The optimum is scaled back by the
    product of the m.  The challengers come in reverse item order, so the
    DP's lexicographically smallest optimal plan is the optimal subset of
    smallest bitmask, brute force's tie rule.
    """
    vectors = []
    scale = Fraction(1)
    for item in reversed(inst.items):
        m = max(Fraction(1), item.profit)
        scale *= m
        skip, take = BribeEntry(0, 1 / m), BribeEntry(item.weight, item.profit / m)
        if item.weight:
            vectors.append(BribeVector((skip, take)))
        else:
            vectors.append(BribeVector((take if item.profit > 1 else skip,)))
    tournament = CbcctInstance(tuple(vectors), inst.capacity, Fraction(0))
    sweep = dp.budget_sweep(tournament)
    product = sweep.best_at() * scale
    choices = reversed(sweep.witness().choices)
    witness = tuple(
        i
        for i, (item, j) in enumerate(zip(inst.items, choices))
        if j == 2 or (item.weight == 0 and item.profit > 1)
    )
    return PkpResult(product, witness, product >= inst.target)


def solve_mpk_bruteforce(inst: MpkInstance, selection_cap: int = 10**7) -> MpkResult:
    """Enumerate one-item-per-class selections.

    All-selections-overweight is reported as a no with no witness.
    """
    count = 1
    for cls in inst.classes:
        count *= len(cls)
    if count > selection_cap:
        raise CapExceededError(f"{count} selections exceed the cap of {selection_cap}")
    best: Fraction | None = None
    best_sel: tuple[int, ...] | None = None
    for sel in itertools.product(*inst.classes):
        weight = sum(inst.items[i].weight for i in sel)
        if weight > inst.capacity:
            continue
        product = Fraction(1)
        for i in sel:
            product *= inst.items[i].profit
        if best is None or product > best:
            best = product
            best_sel = sel
    if best is None:
        return MpkResult(None, None, False)
    return MpkResult(best, best_sel, best >= inst.target)


def solve_small_ksum_bruteforce(inst: SmallKSumInstance, combo_cap: int = 10**6) -> KsumResult:
    """Check all size-k index subsets against the target sum."""
    n = len(inst.numbers)
    count = 1
    for i in range(inst.k):
        count = count * (n - i) // (i + 1)
    if count > combo_cap:
        raise CapExceededError(f"C({n},{inst.k}) = {count} exceeds the cap of {combo_cap}")
    for combo in itertools.combinations(range(n), inst.k):
        if sum(inst.numbers[i] for i in combo) == inst.target:
            return KsumResult(True, combo)
    return KsumResult(False, None)


# -- JSON schemas ---------------------------------------------------------------


def _items_from_json(raw: list) -> tuple[PkpItem, ...]:
    return tuple(PkpItem(it["weight"], parse_rational(it["profit"])) for it in raw)


def pkp_to_dict(inst: PkpInstance | MpkInstance) -> dict:
    return {
        "items": [
            {"weight": it.weight, "profit": format_rational(it.profit)} for it in inst.items
        ],
        "capacity": inst.capacity,
        "target": format_rational(inst.target),
    }


def pkp_from_dict(data: dict) -> PkpInstance:
    try:
        return PkpInstance(
            _items_from_json(data["items"]), data["capacity"], parse_rational(data["target"])
        )
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"bad product-knapsack record: {exc}") from exc


def mpk_to_dict(inst: MpkInstance) -> dict:
    return {**pkp_to_dict(inst), "classes": [list(c) for c in inst.classes]}


def mpk_from_dict(data: dict) -> MpkInstance:
    try:
        return MpkInstance(
            _items_from_json(data["items"]),
            data["classes"],
            data["capacity"],
            parse_rational(data["target"]),
        )
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"bad multicolored-knapsack record: {exc}") from exc


def ksum_to_dict(inst: SmallKSumInstance) -> dict:
    return {
        "numbers": list(inst.numbers),
        "k": inst.k,
        "target": inst.target,
        "shifted": inst.shifted,
    }


def ksum_from_dict(data: dict) -> SmallKSumInstance:
    try:
        return SmallKSumInstance(
            data["numbers"], data["k"], data.get("target", 0), data.get("shifted", False)
        )
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"bad k-sum record: {exc}") from exc
