"""The budget-DP row transition, in pure Python.

`champbribe.dp` calls `transition_compact` once per challenger row, that is
for every challenger but those with one entry of positive probability,
which the sweep folds into a fixed cost instead.  Rows go in and come out as
breakpoints (the budgets where the row's optimum rises), so its cost follows
the candidate count, not the budget.

One walk down the row's candidates, sorted by value, does all of it: each
candidate gets its rank, and a candidate cheaper than every better one
becomes a breakpoint.  It is kept as its own module because the
benchmark's tracer hooks it here by name.
"""

from __future__ import annotations


def transition_compact(prev_starts, costs, rmap, budget: int, nums, prev_vals):
    """One DP row update on breakpoints.

    prev_starts: list of K ascending budgets where the next row's optimum
                 rises; its value from prev_starts[r] on is prev_vals[r].
    costs, nums: the L entry prices of the current challenger and their
                 probability numerators.
    rmap: L x (K+1) memoryview that receives the candidate ranks: entry j
          followed by the next row's value from breakpoint r on at
          rmap[j, r+1], and -1 in column 0.
    Returns (starts, used, vals): the new row's breakpoints, the candidate
    rank reached at each and its numerator, all strictly increasing.
    """
    # Candidate j * (K+1) + r + 1 is (entry j, next-row breakpoint r).  A value
    # -1 heads each entry's run: it sorts below every product, so it takes rank
    # -1, and it costs budget + 1, so it never fits.  Each run ascends, so the
    # sort only merges L runs.
    over = budget + 1
    vals, spent = [], []
    for num, cost in zip(nums, costs):
        vals.append(-1)
        vals += [num * val for val in prev_vals]
        spent.append(over)
        spent += [cost + start for start in prev_starts]
    order = sorted(range(len(vals)), key=vals.__getitem__)
    # Walk down from the best value.  A value's rank is its last position among
    # the products (the L heads sit below them all), taken over from the
    # neighbour above when the two are equal.  A candidate cheaper than every
    # better one is a breakpoint at its cost; an equal value that costs less
    # moves that breakpoint down instead.
    rank = rmap.cast("B").cast("i")  # the rank map, flat
    pos, above = len(vals) - len(nums), None
    least = over
    starts, used, out = [], [], []
    for i in reversed(order):
        pos -= 1
        value = vals[i]
        if value != above:
            r, above = pos, value
        rank[i] = r
        cost = spent[i]
        if cost < least:
            least = cost
            if used and used[-1] == r:
                starts[-1] = cost
            else:
                starts.append(cost)
                used.append(r)
                out.append(value)
    starts.reverse()
    used.reverse()
    out.reverse()
    return starts, used, out
