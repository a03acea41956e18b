"""Domain types for challenge-the-champ bribery.

A tournament instance consists of one bribe vector per challenger, a budget,
and a win-probability threshold for the champ.  Each bribe vector lists
(price, losing probability) pairs with strictly increasing prices; a vector is
*monotone* when the losing probabilities are strictly increasing as well.
`normalize_bribe_vector` turns any vector into an equivalent monotone one by
deleting entries that cost more but buy no higher losing probability.

The champ itself carries no data: its win probability under a plan is simply
the product of the chosen losing probabilities of the challengers, since it
must beat every one of them.  Plans index entries 1-based, matching the
vector-entry numbering used throughout.

All types are immutable after construction and every operation is a pure
function, so shared instances are safe to use concurrently.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .errors import InstanceError, PlanError
from .rational import check_field, check_probability, format_rational, parse_rational


@dataclass(frozen=True)
class BribeEntry:
    """One purchasable outcome: pay `bribe`, the player loses with `losing_probability`."""

    bribe: int
    losing_probability: Fraction

    def __post_init__(self) -> None:
        check_field(self.bribe, "bribe")
        if type(self.losing_probability) is not Fraction:
            object.__setattr__(self, "losing_probability", Fraction(self.losing_probability))
        check_probability(self.losing_probability, "losing probability")


@dataclass(frozen=True)
class BribeVector:
    """A challenger's menu of bribes, ordered by strictly increasing price."""

    entries: tuple[BribeEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise InstanceError("bribe vector must be nonempty")
        for a, b in zip(entries, entries[1:]):
            if a.bribe >= b.bribe:
                raise InstanceError(
                    f"bribes must be strictly increasing, got {a.bribe} before {b.bribe}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def canonical_first_zero(self) -> bool:
        """True when the first entry has price 0 (the no-bribe baseline)."""
        return self.entries[0].bribe == 0

    @property
    def monotone(self) -> bool:
        """True when losing probabilities are strictly increasing with price."""
        return all(
            a.losing_probability < b.losing_probability
            for a, b in zip(self.entries, self.entries[1:])
        )

    def bribe_values(self) -> tuple[int, ...]:
        return tuple(e.bribe for e in self.entries)

    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(e.losing_probability for e in self.entries)


def _entry(bribe, p) -> BribeEntry:
    return BribeEntry(bribe, p if isinstance(p, Fraction) else parse_rational(p))


def vector(pairs: Iterable[tuple[int, Fraction | int | str]]) -> BribeVector:
    """Convenience constructor from (bribe, probability) pairs."""
    return BribeVector(tuple(_entry(b, p) for b, p in pairs))


@dataclass(frozen=True)
class CbcctInstance:
    """Challenge-the-champ bribery instance: challengers, budget, threshold."""

    bribe_vectors: tuple[BribeVector, ...]
    budget: int
    threshold: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "bribe_vectors", tuple(self.bribe_vectors))
        check_field(self.budget, "budget")
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        check_probability(self.threshold, "threshold")

    @property
    def num_challengers(self) -> int:
        return len(self.bribe_vectors)


@dataclass(frozen=True)
class BribePlan:
    """One chosen entry index per challenger, 1-based."""

    choices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(self.choices))


class PlanEvaluation(NamedTuple):
    cost: int
    win_probability: Fraction


def evaluate_plan(inst: CbcctInstance, plan: BribePlan) -> PlanEvaluation:
    """Total cost and champ win probability of a plan (empty product is 1).

    The chosen probabilities are counted by object identity (a decoded
    instance shares them, `instance_from_dict`), and each distinct one is
    raised to its count as an int numerator and denominator, so no
    `Fraction` is hashed or multiplied per player.
    """
    if len(plan.choices) != inst.num_challengers:
        raise PlanError(
            f"plan has {len(plan.choices)} choices for {inst.num_challengers} challengers"
        )
    cost = 0
    probs = []
    for i, (v, j) in enumerate(zip(inst.bribe_vectors, plan.choices)):
        if not 1 <= j <= len(v.entries):
            raise PlanError(f"choice {j} out of range 1..{len(v)} for challenger {i + 1}")
        entry = v.entries[j - 1]
        cost += entry.bribe
        probs.append(entry.losing_probability)
    by_id = dict(zip(map(id, probs), probs))
    powers: Counter = Counter()
    for key, count in Counter(map(id, probs)).items():
        powers[by_id[key].as_integer_ratio()] += count
    num = den = 1
    for (p, q), count in powers.items():
        num *= p**count
        den *= q**count
    return PlanEvaluation(cost, Fraction(num, den))


def map_distinct(fn: Callable, vectors: Iterable[BribeVector]) -> list:
    """`fn` of each vector, called once per distinct vector object.

    Keyed by identity: hashing a vector would hash its `Fraction`s again.
    Each keyed vector is held until the call returns, so a vector that the
    caller's iterable frees cannot pass its id on to the next one.
    """
    done: dict = {}  # id(vector) -> (vector, fn(vector))
    out = []
    for v in vectors:
        hit = done.get(id(v))
        if hit is None:
            hit = done[id(v)] = (v, fn(v))
        out.append(hit[1])
    return out


def normalize_bribe_vector(v: BribeVector) -> BribeVector:
    """Equivalent monotone vector.

    Repeatedly deletes the entry after position j whenever its probability
    does not strictly exceed the one at j: that later entry costs more and
    buys no better losing probability, so for every budget the best
    purchasable probability is unchanged.  Idempotent.
    """
    kept: list[BribeEntry] = []
    for entry in v.entries:
        if kept and kept[-1].losing_probability >= entry.losing_probability:
            continue
        kept.append(entry)
    if len(kept) == len(v.entries):
        return v
    return BribeVector(tuple(kept))


def normalize_instance(inst: CbcctInstance) -> CbcctInstance:
    """Apply `normalize_bribe_vector` to every challenger, once per vector object."""
    vectors = tuple(map_distinct(normalize_bribe_vector, inst.bribe_vectors))
    if all(map(operator.is_, vectors, inst.bribe_vectors)):
        return inst
    return CbcctInstance(vectors, inst.budget, inst.threshold)


def best_purchasable(v: BribeVector, budget: int) -> Fraction | None:
    """Max losing probability buyable from a single entry costing <= budget.

    Enumeration oracle used to verify normalization; None when no entry is
    affordable.
    """
    affordable = [e.losing_probability for e in v.entries if e.bribe <= budget]
    return max(affordable) if affordable else None


# -- JSON schema -------------------------------------------------------------
#
# {"players": [{"entries": [{"bribe": nat, "p": "num/den"}, ...]}, ...],
#  "budget": nat, "threshold": "num/den"}


def vector_to_json(v: BribeVector) -> list[dict]:
    return [{"bribe": e.bribe, "p": format_rational(e.losing_probability)} for e in v.entries]


def vector_from_json(raw: list) -> BribeVector:
    if not isinstance(raw, list):
        raise InstanceError(f"bribe vector must be a list of entries, got {raw!r}")
    try:
        return vector((e["bribe"], e["p"]) for e in raw)
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"entry must be an object with 'bribe' and 'p': {exc!r}") from exc


def instance_to_dict(inst: CbcctInstance) -> dict:
    return {
        "players": [{"entries": vector_to_json(v)} for v in inst.bribe_vectors],
        "budget": inst.budget,
        "threshold": format_rational(inst.threshold),
    }


def instance_from_dict(data: dict) -> CbcctInstance:
    """Decode an instance record.

    Players whose entry lists are equal, value types included (JSON ``1``,
    ``1.0`` and ``true`` compare equal in Python), share one `BribeVector`,
    and players whose entries are equal share one `BribeEntry`, so each
    distinct entry is parsed and checked once.  An entry list that the key
    cannot hold (not a list, an entry that is not an object or lacks a
    field, an unhashable value) is decoded on its own by `vector_from_json`,
    which raises the error it always raised.
    """
    try:
        players = data["players"]
        budget = data["budget"]
        threshold = data["threshold"]
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"missing instance field: {exc}") from exc
    if not isinstance(players, list):
        raise InstanceError(f"'players' must be a list, got {players!r}")
    vectors = []
    shared: dict = {}  # entry-list key -> BribeVector
    entries: dict = {}  # entry key -> BribeEntry

    def entry(key) -> BribeEntry:
        found = entries.get(key)
        if found is None:
            found = entries[key] = _entry(key[1], key[3])
        return found

    for p in players:
        raw = p.get("entries") if isinstance(p, dict) else None
        key = v = None
        if isinstance(raw, list):
            try:
                key = tuple([(type(e["bribe"]), e["bribe"], type(e["p"]), e["p"]) for e in raw])
                v = shared.get(key)
            except (KeyError, TypeError):  # a missing field, a non-object entry, an unhashable value
                key = None
        if key is None:
            v = vector_from_json(raw)
        elif v is None:
            v = shared[key] = BribeVector(tuple(map(entry, key)))
        vectors.append(v)
    return CbcctInstance(tuple(vectors), budget, parse_rational(threshold))
