"""The budget-DP row transition: the sweep's hot kernel, in NumPy.

`champbribe.dp` calls `transition_compact` once per challenger row.  Rows go
in and come out as breakpoints (the budgets where the row's optimum rises),
so its cost follows the breakpoint count, not the budget.
"""

from __future__ import annotations

import numpy as np


def transition_compact(prev_starts, costs, rmap, budget: int):
    """One DP row update on breakpoints.

    prev_starts: int64[K], ascending budgets where the next row's optimum
                 rises; its value from prev_starts[r] on has rank r.
    costs: int64[L], entry prices of the current challenger.
    rmap: int32[L, K+1], candidate rank for (entry j, next-row rank r) at
          rmap[j, r+1]; ranks never fall as r grows.
    Returns (starts int64[M], used int32[M]): the new row's breakpoints and
    the candidate rank reached at each, both strictly increasing.
    """
    budgets = (costs[:, None] + prev_starts[None, :]).ravel()
    ranks = rmap[:, 1:].ravel()  # column 0 (-1, infeasible) is never a candidate
    fits = budgets <= budget
    budgets, ranks = budgets[fits], ranks[fits]
    order = np.lexsort((-ranks, budgets))
    budgets, ranks = budgets[order], ranks[order]
    rises = np.diff(np.maximum.accumulate(ranks), prepend=-1) > 0
    return budgets[rises], ranks[rises]
