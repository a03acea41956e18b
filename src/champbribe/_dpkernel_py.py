"""The budget-DP row transition, in pure Python.

`champbribe.dp` calls `transition_compact` once per challenger row, that is
for every challenger but those with one entry of positive probability,
which the sweep folds into a fixed cost instead.  Rows go in and come out as
breakpoints (the budgets where the row's optimum rises), so its cost follows
the candidate count, not the budget.  It is kept as its own module because
the benchmark's tracer hooks it here by name.
"""

from __future__ import annotations

from bisect import bisect_right


def transition_compact(prev_starts, costs, rmap, budget: int):
    """One DP row update on breakpoints.

    prev_starts: list of K ascending budgets where the next row's optimum
                 rises; its value from prev_starts[r] on has rank r.
    costs: list of L entry prices of the current challenger.
    rmap: L x (K+1) memoryview of candidate ranks: (entry j, next-row rank r)
          at rmap[j, r+1], column 0 is -1; ranks never fall as r grows.
    Returns (starts, used): lists of the new row's breakpoints and of the
    candidate rank reached at each, both strictly increasing.
    """
    rows = rmap.tolist()
    # Candidate (budget b, rank r) packs to b * top + (top - 1 - r), top a power of two
    # above every rank; each entry's run is sorted already, so the sort only merges.
    bits = (rmap.shape[0] * rmap.shape[1]).bit_length()
    low = (1 << bits) - 1  # top - 1
    shifted = [start << bits for start in prev_starts]
    keys = []
    for cost, ranks in zip(costs, rows):
        fit = bisect_right(prev_starts, budget - cost)
        base = (cost << bits) + low
        keys += [start + base - r for start, r in zip(shifted[:fit], ranks[1:])]
    keys.sort()  # by budget, then by falling rank: keep each new running maximum
    starts, used = [], []
    best = low + 1  # top - 1 - r of the best rank so far
    for key in keys:
        inverted = key & low
        if inverted < best:
            best = inverted
            starts.append(key >> bits)
            used.append(low - inverted)
    return starts, used
