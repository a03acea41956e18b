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

Exactness at scale comes from three layers:

* All probabilities are rescaled to a common denominator L, so every value of
  row i is an integer numerator over L**(n-i+1) and value comparisons are
  integer comparisons.
* Within a row, distinct candidate numerators are interned and sorted once,
  so the row transition compares small integer *ranks* instead of big
  integers.  That transition is the hot kernel, `_dpkernel_py`.
* The interning sort orders candidates by float logarithms first and falls
  back to exact big-integer comparison inside any cluster whose float gap is
  below a certified error bound, so float error can never change a result.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

from .core import BribePlan, CbcctInstance
from .errors import CapExceededError

from . import _dpkernel_py


class _Row:
    """Run-length encoded DP row: value thresholds over the budget axis."""

    __slots__ = ("starts", "values")

    def __init__(self, starts, values):
        self.starts = starts  # ascending budgets where the value changes
        self.values = values  # numerators (Python ints), ascending

    def value_at(self, budget: int):
        idx = bisect_right(self.starts, budget) - 1
        return self.values[idx] if idx >= 0 else None


class BudgetSweep:
    """Exact optimal win probabilities for every budget 0..B, plus witnesses."""

    def __init__(self, inst: CbcctInstance, rows, denominator_base: int):
        self._inst = inst
        self._rows = rows  # rows[i] for i in 1..n+1 (suffix over challengers i..n)
        self._base = denominator_base
        self._denom = denominator_base ** inst.num_challengers

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
        top = self._rows[1]
        return [(cost, Fraction(num, self._denom)) for cost, num in zip(top.starts, top.values)]

    def best_at(self, budget: int | None = None) -> Fraction | None:
        """Optimal win probability with total bribes <= budget; None if no plan fits."""
        num = self._rows[1].value_at(self._clamp(budget))
        return None if num is None else Fraction(num, self._denom)

    def min_cost_for(self, threshold: Fraction) -> int | None:
        """Least budget <= B whose optimum reaches `threshold`; None if none does.

        Bisects the top row's integer numerators against the threshold scaled
        to the common denominator, rounded up, so no per-breakpoint Fraction is built.
        """
        threshold = Fraction(threshold)
        least = -(-threshold.numerator * self._denom // threshold.denominator)
        top = self._rows[1]
        idx = bisect_left(top.values, least)
        return top.starts[idx] if idx < len(top.starts) else None

    def probabilities(self) -> list[Fraction | None]:
        """The full sweep expanded from the frontier: one probability per budget 0..B."""
        points = self.frontier()
        out: list[Fraction | None] = [None] * (points[0][0] if points else self.budget + 1)
        ends = [cost for cost, _ in points[1:]] + [self.budget + 1]
        for (cost, prob), end in zip(points, ends):
            out.extend([prob] * (end - cost))
        return out

    def witness(self, budget: int | None = None) -> BribePlan | None:
        """Lexicographically smallest optimal plan at the given budget."""
        b = self._clamp(budget)
        need = self._rows[1].value_at(b)
        if need is None:
            return None
        choices = []
        for i, vec in enumerate(self._inst.bribe_vectors, start=1):
            nxt = self._rows[i + 1]
            for j, entry in enumerate(vec.entries, start=1):
                if entry.bribe > b:
                    continue
                tail = nxt.value_at(b - entry.bribe)
                if tail is None:
                    continue
                num = _scaled_numerator(entry.losing_probability, self._base)
                if tail * num == need:
                    choices.append(j)
                    b -= entry.bribe
                    need = tail
                    break
            else:  # pragma: no cover - contradicts DP construction
                raise AssertionError("witness reconstruction lost the optimal value")
        return BribePlan(tuple(choices))


def _scaled_numerator(p: Fraction, base: int) -> int:
    return p.numerator * (base // p.denominator)


def budget_sweep(inst: CbcctInstance, *, cell_cap: int = 10**8) -> BudgetSweep:
    """Run the suffix DP over the challengers and return the full sweep.

    Refuses instances whose n times B exceeds `cell_cap`.
    """
    n = inst.num_challengers
    budget = inst.budget
    if n * budget > cell_cap:
        raise CapExceededError(f"DP table of {n * budget} cells exceeds the cap of {cell_cap}")

    base = 1
    for vec in inst.bribe_vectors:
        for e in vec.entries:
            base = math.lcm(base, e.losing_probability.denominator)

    # Per challenger: entry costs, scaled numerators, float logs of numerators.
    chall = []
    max_log_total = 0.0
    for vec in inst.bribe_vectors:
        # A price above B never fits, so B + 1 stands for it (and stays in int64).
        costs = np.array([min(e.bribe, budget + 1) for e in vec.entries], dtype=np.int64)
        nums = [_scaled_numerator(e.losing_probability, base) for e in vec.entries]
        logs = [math.log(v) if v else -math.inf for v in nums]
        finite = [abs(x) for x in logs if x != -math.inf]
        max_log_total += max(finite) if finite else 0.0
        chall.append((costs, nums, logs))

    eps = 8.0 * (n + 2) * sys.float_info.epsilon * (max_log_total + 1.0)

    rows: list = [None] * (n + 2)
    rows[n + 1] = _Row([0], [1])
    prev_starts = np.zeros(1, dtype=np.int64)
    prev_vals = [1]
    prev_logs = np.array([0.0])

    for i in range(n, 0, -1):
        costs, nums, lognums = chall[i - 1]
        num_prev = len(prev_vals)
        n_entries = len(nums)
        cand_log = (np.array(lognums)[:, None] + prev_logs[None, :]).ravel()
        rank_of, reps, products = _intern_candidates(cand_log, eps, prev_vals, nums, num_prev)
        rmap = np.empty((n_entries, num_prev + 1), dtype=np.int32)
        rmap[:, 0] = -1  # kernel skips it; perfbench counts rmap.shape[1] - 1 candidates
        rmap[:, 1:] = rank_of.reshape(n_entries, num_prev)
        starts, used = _dpkernel_py.transition_compact(prev_starts, costs, rmap, budget)
        new_vals = []
        for u in used:
            cand = int(reps[u])
            value = products.get(cand)
            if value is None:
                value = prev_vals[cand % num_prev] * nums[cand // num_prev]
            new_vals.append(value)
        new_logs = cand_log[[int(reps[u]) for u in used]]
        rows[i] = _Row(starts.tolist(), new_vals)
        prev_starts, prev_vals, prev_logs = starts, new_vals, new_logs

    return BudgetSweep(inst, rows, base)


def _intern_candidates(cand_log, eps: float, prev_vals, nums, num_prev: int):
    """Sort candidate products (entry j, prev rank r) and assign dense ranks.

    Candidates are ordered by float logs; consecutive candidates whose float
    gap is not certainly positive (<= eps, including the NaN gaps produced by
    pairs of -inf) form a cluster that is re-sorted and deduplicated by exact
    big-integer products.  Returns (rank per candidate, representative
    candidate per rank, memoized exact products).
    """
    order = np.argsort(cand_log, kind="stable")
    m = len(order)
    rank_of = np.empty(m, dtype=np.int32)
    reps: list[int] = []
    products: dict[int, int] = {}

    def product(cand: int) -> int:
        value = products.get(cand)
        if value is None:
            value = prev_vals[cand % num_prev] * nums[cand // num_prev]
            products[cand] = value
        return value

    sorted_logs = cand_log[order]
    with np.errstate(invalid="ignore"):  # -inf minus -inf (zero-probability ties)
        gaps = np.diff(sorted_logs)
    boundaries = np.flatnonzero(gaps > eps) + 1
    start = 0
    for stop in list(boundaries) + [m]:
        cluster = [int(c) for c in order[start:stop]]
        if len(cluster) > 1:
            cluster.sort(key=product)
        prev_value = None
        for cand in cluster:
            if len(cluster) > 1:
                value = product(cand)
                if value != prev_value:
                    reps.append(cand)
                    prev_value = value
            else:
                reps.append(cand)
            rank_of[cand] = len(reps) - 1
        start = stop
    return rank_of, reps, products

