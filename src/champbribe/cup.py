"""Single-elimination (cup) tournaments with pairwise bribe vectors.

Players occupy the 2**k leaves of a balanced bracket according to a seeding;
adjacent leaves play, winners advance.  A bribe vector stored under the
ordered pair (i, j) lists prices for raising i's probability of *losing*
against j, so the chosen entry's probability is also j's winning probability
for that match.  Vectors are stored for one direction of each pair that can
actually be reached with positive probability; the bracket DP only ever looks
up a pair when both participants reach the match with positive probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Mapping, NamedTuple

from .core import BribeVector, vector_from_json, vector_to_json
from .errors import CapExceededError, InstanceError
from .rational import check_field, check_probability, format_rational, parse_rational

Pair = tuple[int, int]

# Most pairwise bribe vectors a cup may be built with, by `generators.gen_cup`
# or `reductions.cbcct_to_cup`.  C(2**rounds, 2) grows as 4**rounds; 2**16
# allows a full cup of up to 8 rounds (256 players, 32 640 pairs).
CUP_PAIRS_CAP = 1 << 16
CUP_COMBO_CAP = 10**6  # most bribe combinations `solve_cup_bruteforce` enumerates


@dataclass(frozen=True)
class CupInstance:
    """A bracket bribery instance.

    seeding[pos] is the player index seated at leaf position pos (0-based,
    left to right); it must be a bijection.  `pairwise` maps ordered pairs
    (loser candidate, opponent) to bribe vectors.  Immutable by convention:
    the mapping is copied on construction and never mutated afterwards.
    """

    num_players: int
    favorite: int
    seeding: tuple[int, ...]
    pairwise: Mapping[Pair, BribeVector]
    budget: int
    threshold: Fraction

    def __post_init__(self) -> None:
        n = check_field(self.num_players, "player count", 1)
        if n & (n - 1):
            raise InstanceError(f"player count must be a power of two, got {n}")
        seeding = tuple(check_field(p, "seeded player") for p in self.seeding)
        if len(seeding) != n or sorted(seeding) != list(range(n)):
            raise InstanceError("seeding must be a bijection onto the leaf positions")
        object.__setattr__(self, "seeding", seeding)
        if check_field(self.favorite, "favorite") >= n:
            raise InstanceError(f"favorite {self.favorite} out of range")
        check_field(self.budget, "budget")
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        check_probability(self.threshold, "threshold")
        pairs = dict(self.pairwise)
        for (i, j), vec in pairs.items():
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise InstanceError(f"bad player pair {(i, j)}")
            if (j, i) in pairs:
                raise InstanceError(f"pair {(i, j)} stored in both directions")
            if not isinstance(vec, BribeVector):
                raise InstanceError(f"pair {(i, j)} value is not a bribe vector")
        object.__setattr__(self, "pairwise", pairs)

    def choice_pairs(self) -> list[Pair]:
        """Stored pairs in canonical order (the bribe decision space)."""
        return sorted(self.pairwise)


class CupSolveResult(NamedTuple):
    best_probability: Fraction | None
    witness: dict[Pair, int] | None
    decision: bool


def _match_probability(
    inst: CupInstance, choices: Mapping[Pair, int], p: int, q: int
) -> Fraction:
    """Probability that p beats q under the selected bribe entries.

    A vector stored under (i, j) gives i's losing probability against j, so
    it is read directly when (q, p) is stored and complemented when (p, q) is.
    """
    for loser, opponent in ((q, p), (p, q)):
        vec = inst.pairwise.get((loser, opponent))
        if vec is None:
            continue
        j = choices.get((loser, opponent), 1)
        if not 1 <= j <= len(vec):
            raise InstanceError(f"choice {j} out of range for pair {(loser, opponent)}")
        losing = vec.entries[j - 1].losing_probability
        return losing if loser == q else 1 - losing
    raise InstanceError(f"no bribe vector stored for players {p} and {q}")


def bracket_distribution(
    inst: CupInstance, choices: Mapping[Pair, int] | None = None
) -> dict[int, Fraction]:
    """Win probability of every player under the chosen bribes.

    Standard subtree DP: a player wins a bracket of size 2s iff it wins its
    half and beats each possible winner of the other half.  Opponents that
    reach the match with probability 0 are skipped, which is what allows
    pairwise vectors for unreachable pairs to be omitted.
    """
    choices = choices or {}
    leaves = [inst.seeding[pos] for pos in range(inst.num_players)]

    def solve(players: list[int]) -> dict[int, Fraction]:
        if len(players) == 1:
            return {players[0]: Fraction(1)}
        half = len(players) // 2
        left = solve(players[:half])
        right = solve(players[half:])
        table: dict[int, Fraction] = {}
        for mine, theirs in ((left, right), (right, left)):
            for p, wp in mine.items():
                if not wp:
                    continue
                total = Fraction(0)
                for q, wq in theirs.items():
                    if wq:
                        total += wq * _match_probability(inst, choices, p, q)
                table[p] = wp * total
        return table

    return solve(leaves)


def cup_win_probability(
    inst: CupInstance, choices: Mapping[Pair, int] | None = None
) -> Fraction:
    """Probability that the favorite wins the bracket; exact."""
    return bracket_distribution(inst, choices).get(inst.favorite, Fraction(0))


def choices_cost(inst: CupInstance, choices: Mapping[Pair, int] | None = None) -> int:
    """Total price of the selected entries over all stored pairs."""
    choices = choices or {}
    total = 0
    for pair, vec in inst.pairwise.items():
        j = choices.get(pair, 1)
        if not 1 <= j <= len(vec):
            raise InstanceError(f"choice {j} out of range for pair {pair}")
        total += vec.entries[j - 1].bribe
    return total


def solve_cup_bruteforce(inst: CupInstance) -> CupSolveResult:
    """Maximize the favorite's win probability over at most `CUP_COMBO_CAP`
    affordable bribe choices.

    Ties go to the lexicographically smallest choice vector over the stored
    pairs in canonical order; no affordable combination at all is a no with
    no witness.
    """
    pairs = inst.choice_pairs()
    count = 1
    for pair in pairs:
        count *= len(inst.pairwise[pair])
    if count > CUP_COMBO_CAP:
        raise CapExceededError(f"{count} bribe combinations exceed the cap of {CUP_COMBO_CAP}")
    best: Fraction | None = None
    best_choices: dict[Pair, int] | None = None
    for combo in iter_product(*(range(1, len(inst.pairwise[p]) + 1) for p in pairs)):
        choices = dict(zip(pairs, combo))
        if choices_cost(inst, choices) > inst.budget:
            continue
        prob = cup_win_probability(inst, choices)
        if best is None or prob > best:
            best = prob
            best_choices = choices
    if best is None:
        return CupSolveResult(None, None, False)
    return CupSolveResult(best, best_choices, best >= inst.threshold)


# -- JSON schema ------------------------------------------------------------------
#
# {"players": nat, "favorite": nat, "seeding": [player per leaf position],
#  "pairwise": {"i,j": [{"bribe": nat, "p": "num/den"}, ...], ...},
#  "budget": nat, "threshold": "num/den"}


def cup_to_dict(inst: CupInstance) -> dict:
    return {
        "players": inst.num_players,
        "favorite": inst.favorite,
        "seeding": list(inst.seeding),
        "pairwise": {
            f"{i},{j}": vector_to_json(vec) for (i, j), vec in sorted(inst.pairwise.items())
        },
        "budget": inst.budget,
        "threshold": format_rational(inst.threshold),
    }


def cup_from_dict(data: dict) -> CupInstance:
    try:
        if not isinstance(data["pairwise"], dict):
            raise InstanceError(f"'pairwise' must be an object, got {data['pairwise']!r}")
        pairwise = {}
        for key, entries in data["pairwise"].items():
            i, j = (int(part) for part in key.split(","))
            pairwise[(i, j)] = vector_from_json(entries)
        return CupInstance(
            data["players"],
            data["favorite"],
            data["seeding"],
            pairwise,
            data["budget"],
            parse_rational(data["threshold"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(f"bad cup record: {exc}") from exc
