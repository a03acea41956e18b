"""Budget sweep internals: row compression, exactness, witnesses."""

from fractions import Fraction

from champbribe import CbcctInstance, evaluate_plan, solve_bruteforce
from champbribe.core import vector
from champbribe.dp import budget_sweep
from champbribe.generators import gen_cbcct, split_rng


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


class TestBudgetSweep:
    def test_matches_enumeration_per_budget(self):
        rng = split_rng(41, "sweep")
        for idx in range(25):
            inst = gen_cbcct(41, rng.randint(0, 4), 3, rng.randint(0, 12), index=idx)
            assert budget_sweep(inst).probabilities() == brute_sweep(inst)

    def test_non_monotone_vectors_supported(self):
        inst = CbcctInstance(
            (vector([(0, "3/4"), (1, "1/4"), (2, "1/2")]), vector([(0, "1/2")])),
            2,
            F(1, 2),
        )
        assert budget_sweep(inst).probabilities() == brute_sweep(inst)

    def test_empty_instance(self):
        sweep = budget_sweep(CbcctInstance((), 3, F(1)))
        assert sweep.probabilities() == [F(1)] * 4
        assert sweep.witness().choices == ()

    def test_witness_is_lexicographically_smallest(self):
        rng = split_rng(43, "lex")
        for idx in range(25):
            inst = gen_cbcct(43, rng.randint(1, 4), 3, rng.randint(0, 12), index=idx)
            b = solve_bruteforce(inst)
            w = budget_sweep(inst).witness()
            assert w == b.witness

    def test_zero_probability_rows(self):
        inst = CbcctInstance(
            (vector([(0, "0"), (2, "1/2")]), vector([(0, "0"), (1, "1/2")])),
            3,
            F(1, 4),
        )
        assert budget_sweep(inst).probabilities() == brute_sweep(inst)


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
