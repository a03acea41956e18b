"""Budget sweep internals: breakpoint rows, exactness, witnesses."""

import functools
import math
from bisect import bisect_right
from fractions import Fraction

import pytest

from champbribe import CbcctInstance, evaluate_plan, solve_bruteforce
from champbribe.core import normalize_bribe_vector, vector
from champbribe.dp import budget_sweep
from champbribe.generators import gen_cbcct, make_nonmonotone, split_rng
from champbribe.verify import PRIME_PROB_POOL, SCALE_PROB_POOL, SCALE_VALUE_POOL, ZERO_PROB_POOL


def F(*args):
    return Fraction(*args)


def brute_sweep(inst):
    """Oracle: per-budget optimum by plan enumeration."""
    from itertools import product

    out = []
    for budget in range(inst.budget + 1):
        best = None
        for choices in product(*(range(1, len(v) + 1) for v in inst.bribe_vectors)):
            from champbribe import BribePlan

            cost, prob = evaluate_plan(inst, BribePlan(choices))
            if cost <= budget and (best is None or prob > best):
                best = prob
        out.append(best)
    return out


def fraction_sweep(inst):
    """Oracle: the per-budget suffix DP in plain Fraction arithmetic."""
    row = [Fraction(1)] * (inst.budget + 1)
    for vec in reversed(inst.bribe_vectors):
        new = []
        for budget in range(inst.budget + 1):
            options = [
                e.losing_probability * row[budget - e.bribe]
                for e in vec.entries
                if e.bribe <= budget and row[budget - e.bribe] is not None
            ]
            new.append(max(options, default=None))
        row = new
    return row


def scan_rises(scan):
    """The (budget, probability) pairs where a per-budget sweep rises."""
    return [(b, p) for b, p in enumerate(scan) if p is not None and [p] != scan[b - 1 : b]]


def mixed_denominator_instances():
    """Six instances; each challenger draws its probabilities over its own odd primes.

    So the challengers' denominators differ, and planted pairs give exact
    cross-challenger ties (1/2 * 1/3 = 1/3 * 1/2 = 1/6 * 1).
    """
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    tie_pair = (
        vector([(0, "1/6"), (4, "1/3"), (9, "1/2")]),
        vector([(0, "1/3"), (4, "1/2"), (9, "1")]),
    )
    rng = split_rng(59, "mixed-denominators")
    instances = []
    for _ in range(6):
        vectors = []
        for _ in range(rng.randint(20, 60)):
            if rng.random() < 0.15:
                vectors.extend(tie_pair)
                continue
            own = rng.sample(primes, rng.randint(1, 3))
            costs = sorted(rng.sample(range(40), rng.randint(1, 4)))
            probs = []
            for _ in costs:
                d = rng.choice(own)
                probs.append(F(rng.randint(0, d), d))
            vectors.append(vector(zip(costs, probs)))
        instances.append(CbcctInstance(tuple(vectors), rng.randint(50, 300), F(1, 2)))
    return instances


class TestBudgetSweep:
    def test_matches_enumeration_per_budget(self):
        rng = split_rng(41, "sweep")
        for idx in range(25):
            inst = gen_cbcct(41, rng.randint(0, 4), 3, rng.randint(0, 12), index=idx)
            assert budget_sweep(inst).frontier() == scan_rises(brute_sweep(inst))

    def test_matches_fraction_dp_beyond_brute_force(self):
        # First prices are often nonzero, so low budgets are infeasible; the
        # 400 and 10**6 steps lie above most or all budgets; a zero first
        # probability (always with a cheap step above it) gives equal-value
        # ties.  Every other instance is normalized.  The last instance puts a
        # one-entry challenger of probability 0 above a row with two
        # breakpoints: its candidates all tie, so its row has one breakpoint.
        rng = split_rng(47, "fraction-dp")
        first_probs = ("0", "1/3", "1/2", "2/3", "5/7", "3/4", "4/5", "9/10", "1")
        step_probs = ("1/3", "1/2", "5/7", "9/10", "1")
        instances = []
        for idx in range(8):
            vectors = []
            for _ in range(rng.randint(20, 60)):
                first, p0 = rng.choice((0, 0, 1, 2, 3)), rng.choice(first_probs)
                cheap = rng.sample((5, 8, 13, 21), rng.randint(p0 == "0", 2))
                dear = rng.sample((400, 10**6), rng.randint(0, 1))
                vec = vector(
                    [(first, p0)] + [(first + s, rng.choice(step_probs)) for s in sorted(cheap + dear)]
                )
                vectors.append(normalize_bribe_vector(vec) if idx % 2 else vec)
            instances.append(CbcctInstance(tuple(vectors), rng.randint(50, 300), F(1, 2)))
        zero_above = (vector([(1, "0")]), vector([(0, "1/2"), (2, "1")]))
        instances.append(CbcctInstance(zero_above, 5, F(1, 2)))
        for inst in instances:
            sweep = budget_sweep(inst)
            assert sweep.frontier() == scan_rises(fraction_sweep(inst))
            for row in sweep._rows[1:]:  # one breakpoint per strict rise
                assert all(a < b for a, b in zip(row.starts, row.starts[1:]))
                # Ranks are the dense order of the row's exact values.
                assert all(a < b for a, b in zip(row.ranks, row.ranks[1:]))

    def test_mixed_denominators_match_fraction_dp(self):
        for idx, inst in enumerate(mixed_denominator_instances()):
            vectors = inst.bribe_vectors
            denominators = {math.lcm(*(p.denominator for p in v.probabilities())) for v in vectors}
            assert len(denominators) > 1
            sweep = budget_sweep(inst)
            scan = fraction_sweep(inst)
            rises = scan_rises(scan)
            assert sweep.frontier() == rises, idx
            for budget, best in rises:
                assert sweep.best_at(budget) == best
                cost, prob = evaluate_plan(inst, sweep.witness(budget))
                assert cost <= budget and prob == best, (idx, budget)

    def test_frontier_and_min_cost_for_match_the_budget_scan(self):
        rng = split_rng(53, "frontier")
        for idx in range(40):
            inst = gen_cbcct(53, rng.randint(0, 5), 3, rng.randint(0, 15), index=idx)
            sweep = budget_sweep(inst)
            scan = brute_sweep(inst)
            frontier = sweep.frontier()
            assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(frontier, frontier[1:]))
            rises = scan_rises(scan)
            assert frontier == rises  # one breakpoint per budget where the scan rises
            thresholds = {F(0), F(1), F(1, 3), inst.threshold} | {p for p in scan if p is not None}
            for t in thresholds:
                least = next((b for b, p in enumerate(scan) if p is not None and p >= t), None)
                assert sweep.min_cost_for(t) == least, (idx, t)

    @pytest.mark.parametrize("q", [2**61 - 1, 2**127 - 1])
    def test_sub_ulp_tie_is_ordered_exactly(self, q):
        # The two plan values differ by 1/q**2, far below a float ulp of their
        # logs, so only an exact comparison orders them.  Both entry orders are
        # tried, and the two q put the tied pair in opposite set (hash) orders,
        # so no tie-breaking by position or by hash passes every case.
        low, high = F(q - 2, q - 1), F(q - 1, q)
        last = vector([(0, high)])
        inst = CbcctInstance((vector([(0, low), (1, high)]), last), 1, F(0))
        assert budget_sweep(inst).frontier() == [(0, F(q - 2, q)), (1, high**2)]
        inst = CbcctInstance((vector([(0, high), (1, low)]), last), 1, F(0))
        assert budget_sweep(inst).frontier() == [(0, high**2)]

    def test_non_monotone_vectors_supported(self):
        inst = CbcctInstance(
            (vector([(0, "3/4"), (1, "1/4"), (2, "1/2")]), vector([(0, "1/2")])),
            2,
            F(1, 2),
        )
        assert budget_sweep(inst).frontier() == scan_rises(brute_sweep(inst))

    def test_empty_instance(self):
        inst = CbcctInstance((), 3, F(1))
        sweep = budget_sweep(inst)
        assert sweep.frontier() == scan_rises(brute_sweep(inst)) == [(0, F(1))]
        assert sweep.witness().choices == ()

    def test_witness_is_lexicographically_smallest(self):
        rng = split_rng(43, "lex")
        for idx in range(25):
            inst = gen_cbcct(43, rng.randint(1, 4), 3, rng.randint(0, 12), index=idx)
            b = solve_bruteforce(inst)
            w = budget_sweep(inst).witness()
            assert w == b.witness

    def test_witness_at_every_budget_is_lexicographically_smallest(self):
        # Zero probabilities tie at 0 across many plans, and non-monotone
        # vectors keep entries that no normalized vector would.
        rng = split_rng(61, "lex-every-budget")
        probs = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
        for idx in range(30):
            inst = gen_cbcct(
                61, rng.randint(1, 4), 3, rng.randint(0, 12), prob_pool=probs, normalize=False, index=idx
            )
            if idx % 2:
                inst = make_nonmonotone(inst)
            sweep = budget_sweep(inst)
            for budget in range(inst.budget + 1):
                capped = CbcctInstance(inst.bribe_vectors, budget, inst.threshold)
                assert sweep.witness(budget) == solve_bruteforce(capped).witness, (idx, budget)

    def test_zero_probability_rows(self):
        inst = CbcctInstance(
            (vector([(0, "0"), (2, "1/2")]), vector([(0, "0"), (1, "1/2")])),
            3,
            F(1, 4),
        )
        assert budget_sweep(inst).frontier() == scan_rises(brute_sweep(inst))

    def test_zero_optimum_takes_the_all_first_plan(self):
        # Every plan is worth 0, so the cheapest, (1, 1), is the witness; ranks
        # alone would also accept (1, 2), whose value 0 * 1 ties.
        inst = CbcctInstance((vector([(0, "0")]), vector([(0, "1/2"), (1, "1")])), 1, F(1, 2))
        assert budget_sweep(inst).witness() == solve_bruteforce(inst).witness
        assert budget_sweep(inst).witness().choices == (1, 1)


def rank_instances():
    """Seeded sweeps with many exact ties, many denominators, and probability 0.

    Scale prices with the scale probabilities (many exact ties) or the prime
    denominators of `verify.PRIME_PROB_POOL`, normalized and raw; the
    mixed-denominator instances with their planted cross-challenger ties;
    and raw vectors over a pool holding 0.
    """
    rng = split_rng(71, "ranks")
    instances = []
    for idx in range(12):
        instances.append(
            gen_cbcct(
                71, rng.randint(10, 30), 4, rng.randint(0, 40000), SCALE_VALUE_POOL,
                (SCALE_PROB_POOL, PRIME_PROB_POOL)[idx % 2], canonical=True,
                normalize=idx % 4 < 2, index=idx,
            )
        )
    instances += mixed_denominator_instances()
    for idx in range(12):
        instances.append(
            gen_cbcct(
                73, rng.randint(1, 8), 3, rng.randint(0, 15), prob_pool=ZERO_PROB_POOL,
                normalize=False, index=idx,
            )
        )
    return instances


class TestRowRanks:
    def test_rank_is_the_last_position_of_the_value(self):
        # Recompute every row's candidate values as Fractions, by a memoized
        # suffix optimum: rmap[j, r + 1] must count the row's candidates worth
        # at most candidate (j, r), less one, and ranks[k] must be the rank of
        # the row's own optimum from breakpoint k on.
        ties = 0
        for idx, inst in enumerate(rank_instances()):
            sweep = budget_sweep(inst)
            vectors = [inst.bribe_vectors[i] for i in sweep._kept]

            @functools.cache
            def best(t, budget):
                """Optimum of the challengers vectors[t:] within budget; None if none fits."""
                if t == len(vectors):
                    return F(1)
                options = [
                    e.losing_probability * value
                    for e in vectors[t].entries
                    if e.bribe <= budget and (value := best(t + 1, budget - e.bribe)) is not None
                ]
                return max(options, default=None)

            for t, vec in enumerate(vectors, start=1):
                row, nxt = sweep._rows[t], sweep._rows[t + 1]
                below = [best(t, start) for start in nxt.starts]
                values = sorted(e.losing_probability * v for e in vec.entries for v in below)
                ties += len(values) - len(set(values))
                expected = [
                    [-1] + [bisect_right(values, e.losing_probability * v) - 1 for v in below]
                    for e in vec.entries
                ]
                assert row.rmap.tolist() == expected, (idx, t)
                ranks = [bisect_right(values, best(t - 1, start)) - 1 for start in row.starts]
                assert row.ranks.tolist() == ranks, (idx, t)
        assert ties > 0


def folding_instances():
    """Instances that interleave the four kinds of challenger the sweep treats apart.

    A one-entry challenger of positive probability folds into the fixed cost;
    one of probability 0 keeps its row, as does every multi-entry one.  The
    budget is drawn against the fixed cost C: above it, equal to it, or
    below it, so that no plan fits.
    """
    rng = split_rng(67, "fold")
    probs = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
    instances = []
    for idx in range(48):
        kinds = rng.choices(("fold", "zero", "multi"), (3, 1, 4), k=rng.randint(2, 6))
        kinds[rng.randrange(len(kinds))] = "fold"  # so C >= 1 and a budget below C exists
        vectors = []
        for kind in kinds:
            if kind == "fold":
                vectors.append(vector([(rng.randint(1, 4), rng.choice(probs[1:]))]))
            elif kind == "zero":
                vectors.append(vector([(rng.randint(0, 3), F(0))]))
            else:
                costs = sorted(rng.sample(range(6), rng.randint(2, 3)))
                vectors.append(vector([(c, rng.choice(probs)) for c in costs]))
        fixed = sum(v.entries[0].bribe for v, kind in zip(vectors, kinds) if kind == "fold")
        budget = (fixed + rng.randint(1, 10), fixed, rng.randint(0, fixed - 1))[idx % 3]
        instances.append(CbcctInstance(tuple(vectors), budget, F(1, 3)))
    # With every challenger folded, no row is built at all.
    folded = (vector([(2, "1/2")]), vector([(3, "2/3")]))
    return instances + [CbcctInstance(folded, budget, F(1, 3)) for budget in (4, 5, 6)]


class TestFoldedChallengers:
    def test_frontier_min_cost_and_witnesses_match_the_oracles(self):
        for idx, inst in enumerate(folding_instances()):
            sweep = budget_sweep(inst)
            scan = fraction_sweep(inst)
            assert sweep.frontier() == scan_rises(scan), idx
            for t in {F(0), F(1, 9), F(1, 3), F(1)} | {p for p in scan if p is not None}:
                least = next((b for b, p in enumerate(scan) if p is not None and p >= t), None)
                assert sweep.min_cost_for(t) == least, (idx, t)
            for budget in range(inst.budget + 1):
                capped = CbcctInstance(inst.bribe_vectors, budget, inst.threshold)
                assert sweep.witness(budget) == solve_bruteforce(capped).witness, (idx, budget)

    def test_kernel_runs_once_per_unfolded_challenger(self, monkeypatch):
        from champbribe import _dpkernel_py

        calls = []
        kernel = _dpkernel_py.transition_compact

        def counted(*args):
            result = kernel(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(_dpkernel_py, "transition_compact", counted)
        for idx, inst in enumerate(folding_instances()):
            calls.clear()
            sweep = budget_sweep(inst)
            rows = [v for v in inst.bribe_vectors if len(v) > 1 or not v.entries[0].losing_probability]
            assert len(calls) == len(rows), idx
            # perfbench's tracer counts dp.candidates from args[2].shape and
            # dp.row_values_max from len(result[1]).  Rows are built bottom up.
            for t, (args, result) in enumerate(reversed(calls), start=1):
                prev_starts, costs, rmap = args[:3]
                assert rmap.shape == (len(costs), len(prev_starts) + 1), (idx, t)
                assert [ranks[0] for ranks in rmap.tolist()] == [-1] * len(costs), (idx, t)
                assert list(result[1]) == sweep._rows[t].ranks.tolist(), (idx, t)


class TestScaleSmoke:
    def test_medium_instance_exact(self):
        # Medium-size canonical instance; witness must reproduce the optimum.
        inst = gen_cbcct(
            2,
            120,
            4,
            4000,
            (0, 50, 120, 300, 700),
            (F(1, 4), F(1, 2), F(3, 4), F(1)),
            canonical=True,
        )
        sweep = budget_sweep(inst)
        best = sweep.best_at()
        witness = sweep.witness()
        cost, prob = evaluate_plan(inst, witness)
        assert prob == best
        assert cost <= inst.budget
