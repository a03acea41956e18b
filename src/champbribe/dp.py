"""Pseudo-polynomial budget sweep for challenge-the-champ bribery.

Computes, for every budget 0..B at once, the exact optimal champ win
probability.  The table is a suffix DP (row i covers challengers i..n), so a
forward greedy pass afterwards reconstructs the lexicographically smallest
optimal plan.  Each row is kept as breakpoints: the budgets where its optimum
rises, with the value from there on.  Row i is built from the l_max shifted
copies of row i+1's breakpoints, so the work per row is set by the breakpoint
count of the row below times l_max, not by B.

A sweep is read through its top row.  `BudgetSweep.frontier()` lists that
row's breakpoints as (budget, probability) pairs; `best_at` and
`min_cost_for` bisect it for one budget or one threshold; `witness` walks the
rows down.  Product knapsack (`knapsack.solve_pkp_dp`) runs on this same DP,
one two-entry challenger per item.

Exactness at scale comes from two layers:

* Each challenger's probabilities are rescaled to its own common denominator
  L_i, the lcm of its entries' denominators, so every value of row i is an
  integer numerator over D_i = L_i * L_(i+1) * ... * L_n and value
  comparisons within a row are integer comparisons.
* Within a row, the distinct candidate numerators are sorted once as exact
  integers and interned as dense ranks, so the row transition compares small
  integer *ranks* instead of big integers.  That transition is the kernel,
  `_dpkernel_py`.  Only the row being built and the row below it hold
  numerators; a finished row keeps the rank reached at each breakpoint and
  its candidate rank map, and the sweep keeps the top row's numerators alone.
  Interning merges exactly equal products into one rank, so the witness
  tests value equality as rank equality, with no big-integer product.  No
  float is computed anywhere in the sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

from .core import BribePlan, CbcctInstance
from .errors import CapExceededError

from . import _dpkernel_py


class _Row:
    """Run-length encoded DP row, by rank: value thresholds over the budget axis.

    From budget starts[k] on, the row's optimum is the value of rank ranks[k]
    among the row's interned candidates.  rmap[j, r + 1] is the rank of entry
    j followed by the next row's value from its breakpoint r on; rmap[j, 0]
    is -1, the rank of no fitting plan.
    """

    __slots__ = ("starts", "ranks", "rmap")

    def __init__(self, starts, ranks, rmap):
        self.starts = starts  # ascending budgets where the value changes
        self.ranks = ranks  # ascending ranks, one per breakpoint
        self.rmap = rmap

    def index_at(self, budget: int) -> int:
        """The breakpoint in force at `budget`; -1 if nothing fits."""
        return bisect_right(self.starts, budget) - 1


class BudgetSweep:
    """Exact optimal win probabilities for every budget 0..B, plus witnesses."""

    def __init__(self, inst: CbcctInstance, rows, top_values, denominator: int):
        self._inst = inst
        self._rows = rows  # rows[i] for i in 1..n+1 (suffix over challengers i..n)
        self._top = top_values  # rows[1]'s numerators over `denominator`, ascending
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
        return [(cost, Fraction(num, self._denom)) for cost, num in zip(self._rows[1].starts, self._top)]

    def best_at(self, budget: int | None = None) -> Fraction | None:
        """Optimal win probability with total bribes <= budget; None if no plan fits."""
        k = self._rows[1].index_at(self._clamp(budget))
        return None if k < 0 else Fraction(self._top[k], self._denom)

    def min_cost_for(self, threshold: Fraction) -> int | None:
        """Least budget <= B whose optimum reaches `threshold`; None if none does.

        Bisects the top row's integer numerators against the threshold scaled
        to their denominator, rounded up, so no per-breakpoint Fraction is built.
        """
        threshold = Fraction(threshold)
        least = -(-threshold.numerator * self._denom // threshold.denominator)
        idx = bisect_left(self._top, least)
        starts = self._rows[1].starts
        return starts[idx] if idx < len(starts) else None

    def probabilities(self) -> list[Fraction | None]:
        """The full sweep expanded from the frontier: one probability per budget 0..B."""
        points = self.frontier()
        out: list[Fraction | None] = [None] * (points[0][0] if points else self.budget + 1)
        ends = [cost for cost, _ in points[1:]] + [self.budget + 1]
        for (cost, prob), end in zip(points, ends):
            out.extend([prob] * (end - cost))
        return out

    def witness(self, budget: int | None = None) -> BribePlan | None:
        """Lexicographically smallest optimal plan at the given budget.

        Entry j of challenger i is optimal when it reaches the rank that row i
        holds at the remaining budget: equal ranks are equal values.  Once a
        chosen entry has probability 0 the plan is worth 0 whatever follows,
        so from there on the first entry with an affordable rest is taken.
        """
        b = self._clamp(budget)
        k = self._rows[1].index_at(b)
        if k < 0:
            return None
        choices = []
        zero = False
        for i, vec in enumerate(self._inst.bribe_vectors, start=1):
            row, nxt = self._rows[i], self._rows[i + 1]
            need = row.ranks[k]
            for j, entry in enumerate(vec.entries):
                if entry.bribe > b:
                    continue
                r = nxt.index_at(b - entry.bribe)
                optimal = r >= 0 if zero else row.rmap[j, r + 1] == need
                if optimal:
                    choices.append(j + 1)
                    b -= entry.bribe
                    k = r
                    zero = zero or not entry.losing_probability
                    break
            else:  # pragma: no cover - contradicts DP construction
                raise AssertionError("witness reconstruction lost the optimal value")
        return BribePlan(tuple(choices))


def budget_sweep(inst: CbcctInstance, *, cell_cap: int = 10**8) -> BudgetSweep:
    """Run the suffix DP over the challengers and return the full sweep.

    Refuses instances whose n times B exceeds `cell_cap`.
    """
    n = inst.num_challengers
    budget = inst.budget
    if n * budget > cell_cap:
        raise CapExceededError(f"DP table of {n * budget} cells exceeds the cap of {cell_cap}")

    # Per challenger: entry costs and probability numerators over L_i.
    chall = []
    denominator = 1  # D_1, the product of every L_i
    for vec in inst.bribe_vectors:
        probs = [e.losing_probability for e in vec.entries]
        scale = math.lcm(*(p.denominator for p in probs))
        denominator *= scale
        # A price above B never fits, so B + 1 stands for it (and stays in int64).
        costs = np.array([min(e.bribe, budget + 1) for e in vec.entries], dtype=np.int64)
        chall.append((costs, [p.numerator * (scale // p.denominator) for p in probs]))

    rows: list = [None] * (n + 2)
    rows[n + 1] = _Row([0], [0], None)
    prev_starts = np.zeros(1, dtype=np.int64)
    prev_vals = [1]

    for i in range(n, 0, -1):
        costs, nums = chall[i - 1]
        # Candidate (entry j, next-row rank r) is numerator nums[j] * prev_vals[r]
        # over D_i; all share that denominator, so sorting numerators ranks values.
        cands = [num * val for num in nums for val in prev_vals]
        distinct = sorted(set(cands))
        rank = dict(zip(distinct, range(len(distinct))))
        rmap = np.empty((len(nums), len(prev_vals) + 1), dtype=np.int32)
        # Column 0 is no fitting plan: the kernel skips it and no row rank equals
        # it; perfbench counts rmap.shape[1] - 1 candidates.
        rmap[:, 0] = -1
        ranks = np.fromiter(map(rank.__getitem__, cands), np.int32, len(cands))
        rmap[:, 1:] = ranks.reshape(len(nums), len(prev_vals))
        starts, used = _dpkernel_py.transition_compact(prev_starts, costs, rmap, budget)
        rows[i] = _Row(starts.tolist(), used, rmap)
        prev_starts, prev_vals = starts, [distinct[u] for u in used.tolist()]

    return BudgetSweep(inst, rows, prev_vals, denominator)
