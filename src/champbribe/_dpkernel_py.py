"""The budget-DP row transition: the sweep's hot kernel, in NumPy.

`champbribe.dp` calls `transition_compact` once per challenger row.
"""

from __future__ import annotations

import numpy as np


def transition_compact(prev, costs, rmap, n_candidates: int):
    """One DP row update plus rank compaction.

    prev: int32[B+1], rank of each budget in the previous row (-1 infeasible).
    costs: int64[L], entry prices of the current challenger.
    rmap: int32[L, K+1], candidate rank for (entry j, previous rank r) at
          rmap[j, r+1]; column 0 maps infeasible to -1.
    Returns (new int32[B+1] with ranks remapped to 0..M-1, used int32[M] of
    surviving candidate ranks in increasing order).
    """
    nb = prev.shape[0]
    out = np.full(nb, -1, dtype=np.int32)
    shifted = prev + 1
    for j in range(costs.shape[0]):
        c = int(costs[j])
        if c >= nb:
            continue
        cand = rmap[j, shifted[: nb - c]]
        np.maximum(out[c:], cand, out=out[c:])
    used = np.unique(out)
    used = used[used >= 0].astype(np.int32)
    lut = np.full(n_candidates + 1, -1, dtype=np.int32)
    lut[used + 1] = np.arange(len(used), dtype=np.int32)
    return lut[out + 1], used
