"""Pseudo-polynomial budget sweep for challenge-the-champ bribery.

Computes, for every budget 0..B at once, the exact optimal champ win
probability.  The table is a suffix DP (row i covers challengers i..n), so a
forward greedy pass afterwards reconstructs the lexicographically smallest
optimal plan.  Each row is kept as breakpoints: the budgets where its optimum
rises, with the value from there on.  Row i is built from the l_max shifted
copies of row i+1's breakpoints, so the work per row is set by the breakpoint
count of the row below times l_max, not by B; `CANDIDATE_CAP` caps its sum.

A challenger with one entry of positive probability gets no row.  Every plan
pays its price and is scaled by its probability, so it only shifts the
optimum of every budget by a fixed cost and multiplies it by a fixed factor:
the prices of all such challengers are reserved from B before the rows are
built, and their probabilities are applied once, to the top row.  A one-entry
challenger of probability 0 keeps its row: folded, it would make every top
value 0, and the frontier's breakpoints would no longer rise strictly.

A sweep is read through its top row.  `BudgetSweep.frontier()` lists that
row's breakpoints, shifted by the fixed cost, as (budget, probability) pairs;
`best_at` and `min_cost_for` bisect it for one budget or one threshold;
`witness` walks the rows down.  Product knapsack (`knapsack.solve_pkp_dp`)
runs on this same DP, one two-entry challenger per item.

Exactness at scale comes from two layers:

* Each challenger's probabilities are rescaled to its own common denominator
  L_i, the lcm of its entries' denominators, so every value of row i is an
  integer numerator over D_i = L_i * L_(i+1) * ... * L_n and value
  comparisons within a row are integer comparisons.
* Within a row, `_dpkernel_py.transition_compact` sorts the candidates'
  indices once by their exact integer numerators.  Each entry's candidates
  ascend with the row below, so the sort only merges l_max runs.  One walk
  down the sorted order then does the rest: each candidate gets its rank, a
  value's last position, taken over from the neighbour above when the two
  are equal, and a candidate cheaper than every better one becomes one of
  the row's breakpoints.  That `!=` test stops at the first differing
  digit, and no numerator is hashed.  Only the row being built and the row
  below it hold numerators; a finished row keeps the rank reached at each
  breakpoint (an `array`) and its candidate rank map (a 2-D memoryview over
  an `array`), and the sweep keeps the top row's numerators alone.  Exactly
  equal products share one rank, so the witness tests value equality as rank
  equality, with no big-integer product.  No float is computed anywhere in
  the sweep.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .core import BribePlan, BribeVector, CbcctInstance, map_distinct
from .errors import CapExceededError

from . import _dpkernel_py

# Most (entry, next-row breakpoint) candidates one sweep may form over its rows.
CANDIDATE_CAP = 10**7


class _Row:
    """Run-length encoded DP row, by rank: value thresholds over the budget axis.

    From budget starts[k] on, the row's optimum is the value of rank ranks[k]
    among the row's interned candidates.  A value's rank is its last position
    among the row's candidates sorted by value, so ranks order values and
    equal values share one.  rmap[j, r + 1] is the rank of entry j followed
    by the next row's value from its breakpoint r on; rmap[j, 0] is -1, the
    rank of no fitting plan.  Budgets are those left after the fixed cost of
    the folded challengers.
    """

    __slots__ = ("starts", "ranks", "rmap")

    def __init__(self, starts, ranks, rmap):
        self.starts = starts  # ascending budgets where the value changes
        self.ranks = ranks  # array("i") of ascending ranks, one per breakpoint
        self.rmap = rmap

    def index_at(self, budget: int) -> int:
        """The breakpoint in force at `budget`; -1 if nothing fits."""
        return bisect_right(self.starts, budget) - 1


class BudgetSweep:
    """Exact optimal win probabilities for every budget 0..B, plus witnesses.

    Only the challengers listed in `kept` have rows; every other one has a
    single entry of positive probability, folded into `fixed_cost` (the sum
    of their prices) and into `top_values` (scaled by their numerators).
    """

    def __init__(self, inst: CbcctInstance, kept, rows, fixed_cost: int, top_values, denominator: int):
        self._inst = inst
        self._kept = kept  # input positions of the row challengers, ascending
        self._rows = rows  # rows[t] for t in 1..m+1 (suffix over challengers kept[t-1:])
        self._fixed = fixed_cost
        self._starts = [start + fixed_cost for start in rows[1].starts]  # the top row, in budgets
        self._top = top_values  # the top row's numerators over `denominator`, ascending
        self._denom = denominator

    @property
    def budget(self) -> int:
        return self._inst.budget

    def _clamp(self, budget: int | None) -> int:
        if budget is None:
            return self._inst.budget
        if not 0 <= budget <= self._inst.budget:
            raise ValueError(f"budget {budget} outside the computed range 0..{self._inst.budget}")
        return budget

    def frontier(self) -> list[tuple[int, Fraction]]:
        """The sweep's breakpoints: (least budget, optimal probability from there on).

        Both the budgets and the probabilities rise strictly, so two sweeps
        over the same budget range are equal exactly when their frontiers are.
        """
        return [(cost, Fraction(num, self._denom)) for cost, num in zip(self._starts, self._top)]

    def best_at(self, budget: int | None = None) -> Fraction | None:
        """Optimal win probability with total bribes <= budget; None if no plan fits."""
        k = bisect_right(self._starts, self._clamp(budget)) - 1
        return None if k < 0 else Fraction(self._top[k], self._denom)

    def min_cost_for(self, threshold: Fraction) -> int | None:
        """Least budget <= B whose optimum reaches `threshold`; None if none does.

        Bisects the top row's integer numerators against the threshold scaled
        to their denominator, rounded up, so no per-breakpoint Fraction is built.
        """
        threshold = Fraction(threshold)
        least = -(-threshold.numerator * self._denom // threshold.denominator)
        idx = bisect_left(self._top, least)
        return self._starts[idx] if idx < len(self._starts) else None

    def witness(self, budget: int | None = None) -> BribePlan | None:
        """Lexicographically smallest optimal plan at the given budget.

        When the optimum is 0 every affordable plan is optimal, and the
        all-first plan is the cheapest one and the smallest.  Otherwise a
        folded challenger takes its only entry, and the others are walked in
        input order with the budget left after the fixed cost: entry j of a
        row challenger is optimal when it reaches the rank that its row holds
        at the remaining budget, since equal ranks are equal values.  The
        optimum is positive, so the walk never takes an entry of probability 0.
        """
        b = self._clamp(budget)
        k = bisect_right(self._starts, b) - 1
        if k < 0:
            return None
        vectors = self._inst.bribe_vectors
        choices = [1] * len(vectors)
        if not self._top[k]:
            return BribePlan(tuple(choices))
        b -= self._fixed
        for t, i in enumerate(self._kept, start=1):
            row, nxt = self._rows[t], self._rows[t + 1]
            need = row.ranks[k]
            for j, entry in enumerate(vectors[i].entries):
                if entry.bribe > b:
                    continue
                r = nxt.index_at(b - entry.bribe)
                if row.rmap[j, r + 1] == need:
                    choices[i] = j + 1
                    b -= entry.bribe
                    k = r
                    break
            else:  # pragma: no cover - contradicts DP construction
                raise AssertionError("witness reconstruction lost the optimal value")
        return BribePlan(tuple(choices))


def _prepared(vec: BribeVector) -> tuple[int, list[int], list[int]]:
    """A vector's L_i, its entry costs and its probability numerators over L_i."""
    probs = [e.losing_probability for e in vec.entries]
    scale = math.lcm(*(p.denominator for p in probs))
    return scale, [e.bribe for e in vec.entries], [p.numerator * (scale // p.denominator) for p in probs]


def budget_sweep(inst: CbcctInstance) -> BudgetSweep:
    """Run the suffix DP over the challengers and return the full sweep.

    Refuses instances whose rows form more than CANDIDATE_CAP candidates.
    """
    # Per row challenger: input position, entry costs and probability
    # numerators over L_i, prepared once per distinct vector object.  Positive
    # one-entry challengers fold instead.
    chall = []
    fixed_cost = 0
    factor = 1  # product of the folded numerators
    denominator = 1  # D_1, the product of every L_i
    for i, (scale, costs, nums) in enumerate(map_distinct(_prepared, inst.bribe_vectors)):
        denominator *= scale
        if len(nums) == 1 and nums[0]:
            fixed_cost += costs[0]
            factor *= nums[0]
        else:
            chall.append((i, costs, nums))

    m = len(chall)
    budget = inst.budget - fixed_cost  # what the rows may spend
    # The empty suffix is worth 1 from budget 0 on, unless the fixed cost alone exceeds B.
    prev_starts, prev_vals = ([0], [1]) if budget >= 0 else ([], [])
    rows: list = [None] * (m + 2)
    rows[m + 1] = _Row(prev_starts, array("i", [0] * len(prev_starts)), None)
    candidates = 0

    for t in range(m, 0, -1):
        _, costs, nums = chall[t - 1]
        width = len(prev_vals)
        candidates += len(nums) * width
        if candidates > CANDIDATE_CAP:
            raise CapExceededError(f"the DP rows form over {CANDIDATE_CAP} candidates")
        # Candidate (entry j, next-row breakpoint r) is numerator nums[j] * prev_vals[r]
        # over D_i; all share that denominator, so comparing numerators ranks
        # values.  The kernel fills the rank map; perfbench counts
        # rmap.shape[1] - 1 candidates per entry.
        shape = (len(nums), width + 1)
        rmap = memoryview(array("i", [0]) * (shape[0] * shape[1])).cast("B").cast("i", shape)
        prev_starts, used, prev_vals = _dpkernel_py.transition_compact(
            prev_starts, costs, rmap, budget, nums, prev_vals
        )
        rows[t] = _Row(prev_starts, array("i", used), rmap)

    top_values = [factor * val for val in prev_vals]
    return BudgetSweep(inst, [i for i, _, _ in chall], rows, fixed_cost, top_values, denominator)
