"""The four solver routes and the FPT model builders."""

from fractions import Fraction

import pytest

from champbribe import (
    BribePlan,
    CapExceededError,
    CbcctInstance,
    FormalLog,
    ModelError,
    SolverError,
    build_bribe_value_milp,
    build_prob_value_milp,
    evaluate_plan,
    integralize_solution,
    solve_bruteforce,
    solve_dp,
    solve_fpt_bribe_values,
    solve_fpt_prob_values,
    solve_milp,
    verify,
)
from champbribe import milp
from champbribe.core import vector
from champbribe.dp import budget_sweep
from champbribe.generators import gen_cbcct, split_rng
from champbribe.solvers import _plan_from_assignment, bribe_value_set, probability_profile

ALL_SOLVERS = (solve_bruteforce, solve_dp, solve_fpt_bribe_values, solve_fpt_prob_values)


def F(*args):
    return Fraction(*args)


def two_player_example(budget, threshold):
    return CbcctInstance(
        (vector([(0, "1/2"), (1, "1")]), vector([(0, "1/3"), (2, "2/3")])),
        budget,
        F(threshold),
    )


class TestBruteforce:
    def test_worked_example_yes(self):
        r = solve_bruteforce(two_player_example(1, "1/3"))
        assert r.best_probability == F(1, 3) and r.decision
        assert r.witness == BribePlan((2, 1))

    def test_worked_example_no(self):
        r = solve_bruteforce(two_player_example(2, "1/2"))
        assert r.best_probability == F(1, 3) and not r.decision
        # Plans (2,1) and (1,2) tie at 1/3; the lexicographically smaller wins.
        assert r.witness == BribePlan((1, 2))

    def test_empty_instance(self):
        r = solve_bruteforce(CbcctInstance((), 0, F(1)))
        assert r.best_probability == 1 and r.decision and r.witness == BribePlan(())

    def test_no_affordable_plan(self):
        inst = CbcctInstance((vector([(5, "1/2")]),), 3, F(0))
        r = solve_bruteforce(inst)
        assert r.best_probability is None and r.witness is None and not r.decision

    def test_cap(self):
        inst = CbcctInstance(
            tuple(vector([(0, "1/2"), (1, "3/4")]) for _ in range(8)), 4, F(1, 2)
        )
        with pytest.raises(CapExceededError):
            solve_bruteforce(inst, plan_cap=200)


class TestDp:
    def test_matches_bruteforce_on_examples(self):
        for budget, threshold in [(1, "1/3"), (2, "1/2"), (0, "1")]:
            inst = two_player_example(budget, threshold)
            b = solve_bruteforce(inst)
            d = solve_dp(inst)
            assert (b.best_probability, b.decision, b.witness) == (
                d.best_probability,
                d.decision,
                d.witness,
            )

    def test_budget_zero_forces_cheapest_entries(self):
        inst = CbcctInstance(
            (vector([(0, "1/4"), (2, "1/2")]), vector([(0, "1/3"), (1, "1")])),
            0,
            F(1, 12),
        )
        r = solve_dp(inst)
        assert r.best_probability == F(1, 12)
        assert r.witness == BribePlan((1, 1))

    def test_budget_zero_infeasible_when_first_entry_costs(self):
        inst = CbcctInstance((vector([(3, "1/2")]),), 0, F(0))
        r = solve_dp(inst)
        assert r.best_probability is None and not r.decision

    def test_single_challenger_dominant_entry(self):
        inst = CbcctInstance((vector([(0, "1/4"), (5, "3/4")]),), 5, F(1, 2))
        assert solve_dp(inst).best_probability == F(3, 4)

    def test_monotone_in_budget(self):
        from champbribe.dp import budget_sweep

        inst = CbcctInstance(
            (
                vector([(0, "1/4"), (2, "1/2"), (5, "1")]),
                vector([(1, "1/3"), (4, "2/3")]),
            ),
            9,
            F(1, 2),
        )
        sweep = budget_sweep(inst).probabilities()
        feasible = [p for p in sweep if p is not None]
        assert feasible == sorted(feasible)
        assert all(a is None for a in sweep[: len(sweep) - len(feasible)])

    def test_cell_cap(self, monkeypatch):
        # The cap counts candidates, not n * B: five two-entry rows, the k-th
        # from the bottom over k breakpoints, form 2 * (1 + ... + 5) = 30,
        # whatever the budget.
        from champbribe import dp

        inst = CbcctInstance((vector([(0, "1/2"), (1, "1")]),) * 5, 1000, F(1, 2))
        assert solve_dp(inst).best_probability == F(1)
        monkeypatch.setattr(dp, "CANDIDATE_CAP", 30)
        assert solve_dp(inst).best_probability == F(1)
        monkeypatch.setattr(dp, "CANDIDATE_CAP", 29)
        with pytest.raises(CapExceededError):
            solve_dp(inst)
        # One-entry challengers of positive probability fold into a fixed cost
        # and factor, so they form no candidates at all.
        monkeypatch.setattr(dp, "CANDIDATE_CAP", 0)
        folded = CbcctInstance((vector([(0, "1/2")]),) * 10, 1000, F(1, 2))
        assert solve_dp(folded).best_probability == F(1, 1024)

    def test_zero_probability_entries(self):
        inst = CbcctInstance(
            (vector([(0, "0"), (1, "1/2")]), vector([(0, "1/2")])), 1, F(1, 4)
        )
        b = solve_bruteforce(inst)
        d = solve_dp(inst)
        assert b.best_probability == d.best_probability == F(1, 4)
        assert b.witness == d.witness

    def test_price_beyond_int64(self):
        inst = CbcctInstance(
            (vector([(0, "1/2"), (10**30, "1")]), vector([(1, "1/3"), (10**30, "1")])),
            5,
            F(1, 6),
        )
        b = solve_bruteforce(inst)
        d = solve_dp(inst)
        assert b.best_probability == d.best_probability == F(1, 6)
        assert b.witness == d.witness == BribePlan((1, 1))


class TestPermutationInvariance:
    def test_decision_and_value_invariant(self):
        rng = split_rng(17, "perm")
        for idx in range(20):
            inst = gen_cbcct(17, rng.randint(1, 5), 3, rng.randint(0, 15), index=idx)
            base = solve_bruteforce(inst)
            perm = list(range(inst.num_challengers))
            rng.shuffle(perm)
            shuffled = CbcctInstance(
                tuple(inst.bribe_vectors[i] for i in perm), inst.budget, inst.threshold
            )
            other = solve_bruteforce(shuffled)
            assert base.best_probability == other.best_probability
            assert base.decision == other.decision


class TestProfiles:
    def test_profile_is_set_of_probabilities(self):
        v = vector([(0, "1/2"), (3, "1/2"), (5, "3/4")])
        assert probability_profile(v) == (F(1, 2), F(3, 4))
        assert bribe_value_set(v) == (0, 3, 5)

    def test_monotone_vectors_with_same_group_are_identical(self):
        rng = split_rng(23, "profiles")
        for idx in range(30):
            inst = gen_cbcct(23, rng.randint(2, 6), 3, 10, index=idx)
            seen = {}
            for v in inst.bribe_vectors:
                assert len(probability_profile(v)) == len(v)
                key = (probability_profile(v), bribe_value_set(v))
                if key in seen:
                    assert seen[key] == v
                else:
                    seen[key] = v


class TestBribeValueModel:
    def test_shared_group_counts(self):
        # Two challengers sharing bribe values {0, 1} and profile {1/2, 1}.
        shared = vector([(0, "1/2"), (1, "1")])
        inst = CbcctInstance((shared, shared), 1, F(1, 2))
        model, vmap = build_bribe_value_milp(inst)
        assert vmap.num_int == 2
        assert len(vmap.frac_cols) == 2
        group_row = model.rows[-1]
        assert group_row.rhs == 2  # n_{P,V'} for the single group

    def test_empty_instance_model(self):
        model, vmap = build_bribe_value_milp(CbcctInstance((), 5, F(1, 2)))
        assert model.num_variables == 0
        assert all(not isinstance(c, FormalLog) for c in model.objective.coeffs)

    def test_distinct_groups_pair_fractional_with_integer(self):
        inst = CbcctInstance(
            (vector([(0, "1/2"), (1, "1")]), vector([(0, "1/4"), (2, "3/4")])),
            2,
            F(1, 2),
        )
        model, vmap = build_bribe_value_milp(inst)
        # Linking rows: each fractional column carries exactly one +1 paired
        # with exactly one integer column's -1.
        link_rows = model.rows[1 : 1 + vmap.num_int]
        frac_cols = model.fractional_columns()
        for col in frac_cols:
            hits = [r for r in link_rows if r.coeffs[col] != 0]
            assert len(hits) == 1
            ints_in_row = [
                j
                for j in model.integer_columns()
                if hits[0].coeffs[j] != 0
            ]
            assert len(ints_in_row) == 1

    def test_rejects_non_monotone(self):
        inst = CbcctInstance((vector([(0, "1/2"), (1, "1/4")]),), 1, F(1, 2))
        with pytest.raises(ModelError):
            build_bribe_value_milp(inst)

    def test_rejects_zero_probability(self):
        inst = CbcctInstance((vector([(0, "0"), (1, "1/2")]),), 1, F(1, 2))
        with pytest.raises(ModelError):
            build_bribe_value_milp(inst)

    def test_tail_block_row_ordering(self):
        inst = CbcctInstance(
            (vector([(0, "1/2"), (1, "1")]), vector([(0, "1/4"), (2, "3/4")])),
            2,
            F(1, 2),
        )
        model, _ = build_bribe_value_milp(inst)
        frac = set(model.fractional_columns())
        touching = [
            i
            for i, row in enumerate(model.rows)
            if any(row.coeffs[j] != 0 for j in frac)
        ]
        assert touching == list(range(1, len(model.rows)))

    def test_fractional_submatrix_has_two_ones_per_column(self):
        # The linking and group-size row families each hit every per-group
        # column exactly once with a +1: the structure behind unimodularity.
        rng = split_rng(37, "two-ones")
        for idx in range(20):
            inst = gen_cbcct(37, rng.randint(1, 6), 3, 10, index=idx)
            for build in (build_bribe_value_milp, build_prob_value_milp):
                model, vmap = build(inst)
                frac = model.fractional_columns()
                link = model.rows[1 : 1 + vmap.num_int]
                group = model.rows[1 + vmap.num_int :]
                for col in frac:
                    link_hits = [r.coeffs[col] for r in link if r.coeffs[col] != 0]
                    group_hits = [r.coeffs[col] for r in group if r.coeffs[col] != 0]
                    assert link_hits == [F(1)]
                    assert group_hits == [F(1)]


class TestProbValueModel:
    def test_empty_instance(self):
        model, _ = build_prob_value_milp(CbcctInstance((), 5, F(1)))
        assert model.num_variables == 0

    def test_threshold_zero_rejected(self):
        inst = CbcctInstance((vector([(0, "1/2")]),), 1, F(0))
        with pytest.raises(ModelError):
            build_prob_value_milp(inst)

    def test_log_row_is_head_block(self):
        inst = CbcctInstance(
            (vector([(0, "1/2"), (4, "1")]),), 4, F(1)
        )
        model, _ = build_prob_value_milp(inst)
        first = model.rows[0]
        assert isinstance(first.rhs, FormalLog)
        frac = model.fractional_columns()
        assert all(first.coeffs[j] == 0 for j in frac)

    def test_minimum_budget_example(self):
        # One challenger [(0,1/2),(4,1)] and threshold 1: only entry 2 works.
        inst = CbcctInstance((vector([(0, "1/2"), (4, "1")]),), 4, F(1))
        r = solve_fpt_prob_values(inst)
        assert r.decision and r.witness == BribePlan((2,))
        tight = CbcctInstance(inst.bribe_vectors, 3, F(1))
        assert not solve_fpt_prob_values(tight).decision


class TestFptSolvers:
    def test_empty_instance_is_yes(self):
        inst = CbcctInstance((), 0, F(1))
        for solver in (solve_fpt_bribe_values, solve_fpt_prob_values):
            r = solver(inst)
            assert r.decision and r.best_probability == 1
            assert r.witness == BribePlan(())

    def test_uniform_instance_all_top_entries(self):
        shared = vector([(0, "1/4"), (2, "3/4")])
        inst = CbcctInstance((shared,) * 4, 8, F(81, 256))
        r = solve_fpt_bribe_values(inst)
        assert r.best_probability == F(3, 4) ** 4
        assert r.decision

    def test_zero_probability_fallback(self):
        # Challenger 2 only offers probability 0: optimum is 0.
        inst = CbcctInstance(
            (vector([(0, "1/2"), (1, "1")]), vector([(0, "0")])), 1, F(0)
        )
        r = solve_fpt_bribe_values(inst)
        assert r.best_probability == 0 and r.decision
        assert r.witness == BribePlan((1, 1))

    def test_budget_forces_zero_probability_entry(self):
        inst = CbcctInstance(
            (vector([(0, "0"), (5, "1/2")]),), 3, F(1, 4)
        )
        r = solve_fpt_bribe_values(inst)
        assert r.best_probability == 0 and not r.decision
        assert not solve_fpt_prob_values(inst).decision

    def test_threshold_zero_shortcut(self):
        inst = CbcctInstance((vector([(0, "1/2")]),), 0, F(0))
        r = solve_fpt_prob_values(inst)
        assert r.decision and r.witness == BribePlan((1,))

    def test_infeasible_instance(self):
        inst = CbcctInstance((vector([(5, "1/2")]),), 3, F(0))
        for solver in (solve_fpt_bribe_values, solve_fpt_prob_values):
            r = solver(inst)
            assert r.witness is None and not r.decision

    def test_non_canonical_vectors_handled(self):
        inst = CbcctInstance(
            (vector([(2, "1/2"), (3, "1")]), vector([(1, "1/3"), (4, "2/3")])),
            5,
            F(1, 2),
        )
        b = solve_bruteforce(inst)
        for solver in (solve_dp, solve_fpt_bribe_values):
            r = solver(inst)
            assert r.best_probability == b.best_probability
            assert r.decision == b.decision
        assert solve_fpt_prob_values(inst).decision == b.decision

    def test_agreement_on_seeded_batch(self):
        rng = split_rng(31, "agree")
        for idx in range(40):
            inst = gen_cbcct(31, rng.randint(0, 5), 3, rng.randint(0, 12), index=idx)
            b = solve_bruteforce(inst)
            fb = solve_fpt_bribe_values(inst)
            fp = solve_fpt_prob_values(inst)
            assert fb.best_probability == b.best_probability
            assert fb.decision == b.decision == fp.decision
            for r in (fb, fp):
                if r.witness is not None:
                    cost, prob = evaluate_plan(inst, r.witness)
                    assert cost <= inst.budget
                    assert prob == r.best_probability

    @pytest.mark.parametrize("n, factors", [(300, (20, 100)), (1000, (20, 50))])
    def test_fpt_bribes_value_matches_dp_at_scale(self, n, factors):
        # Past brute force, the DP sweep is the oracle for the optimal value.
        for idx in range(4):
            budget = factors[idx % 2] * n
            inst = gen_cbcct(
                71, n, 4, budget, verify.SCALE_VALUE_POOL, verify.SCALE_PROB_POOL,
                canonical=True, index=idx,
            )
            r = solve_fpt_bribe_values(inst)
            assert r.best_probability == budget_sweep(inst).best_at(), (n, budget, idx)
            cost, prob = evaluate_plan(inst, r.witness)
            assert cost <= budget and prob == r.best_probability, (n, budget, idx)


class TestIntegralOptimum:
    def test_incumbent_is_returned_without_a_restricted_lp(self, monkeypatch):
        # The incumbent is a vertex with integral integer columns, so its
        # per-group block is integral too, and rounding re-solves nothing.
        def no_lp(model):
            raise AssertionError("integralize_solution re-solved an LP")

        monkeypatch.setattr(milp, "solve_lp_exact", no_lp)
        rng = split_rng(16, "integral")
        draws = [
            gen_cbcct(16, rng.randint(1, 8), 3, rng.randint(0, 30), canonical=True, index=idx)
            for idx in range(30)
        ] + [
            gen_cbcct(
                16, 40, 4, 1000 * 40, verify.SCALE_VALUE_POOL, verify.SCALE_PROB_POOL,
                canonical=True, index=idx,
            )
            for idx in range(2)
        ]
        solved = 0
        for inst in draws:
            inst = CbcctInstance(inst.bribe_vectors, inst.budget, max(inst.threshold, F(1, 64)))
            for build in (build_bribe_value_milp, build_prob_value_milp):
                model, _ = build(inst)
                mixed = solve_milp(model)
                if mixed.status != milp.OPTIMAL:
                    continue
                solved += 1
                assert all(x.denominator == 1 for x in mixed.assignment)
                assert integralize_solution(model, mixed).assignment == mixed.assignment
        assert solved >= 40

    def test_extraction_rejects_assignments_that_are_not_counts(self):
        shared = vector([(0, "1/2"), (1, "1")])
        inst = CbcctInstance((shared, shared), 1, F(1, 2))
        model, vmap = build_bribe_value_milp(inst)
        assignment = list(solve_milp(model).assignment)
        low, high = (col for _, col in sorted(vmap.frac_cols.items()))
        assert _plan_from_assignment(inst, vmap, assignment) == BribePlan((1, 2))
        # Fractional counts, counts short of the group, and a negative count.
        for counts in ((F(1, 2), F(3, 2)), (F(1), F(0)), (F(-1), F(2))):
            assignment[low], assignment[high] = counts
            with pytest.raises(SolverError):
                _plan_from_assignment(inst, vmap, assignment)
