"""The four solver routes and the FPT model builders."""

import dataclasses
import itertools
import re
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
    integrality_defect,
    solve_bruteforce,
    solve_dp,
    solve_fpt_bribe_values,
    solve_fpt_prob_values,
    solve_milp,
    verify,
)
from champbribe import milp
from champbribe.cli import _distinct_counts
from champbribe.core import BribeVector, normalize_bribe_vector, normalize_instance, vector
from champbribe.dp import budget_sweep
from champbribe.generators import gen_cbcct, split_rng
from champbribe.core import instance_from_dict, instance_to_dict
from champbribe.solvers import PLAN_CAP, _grouping, _plan_from_assignment

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
        # 2**24 plans, over PLAN_CAP = 10**7: refused before the first plan.
        n = PLAN_CAP.bit_length()
        inst = CbcctInstance(
            tuple(vector([(0, "1/2"), (1, "3/4")]) for _ in range(n)), 4, F(1, 2)
        )
        message = f"{2**n} plans exceed the brute-force cap of {PLAN_CAP}"
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            solve_bruteforce(inst)


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
        frontier = budget_sweep(inst).frontier()
        assert frontier
        for (cost, prob), (next_cost, next_prob) in zip(frontier, frontier[1:]):
            assert cost < next_cost and prob < next_prob

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
        # A raw vector's distinct counts read its value and probability sets.
        v = vector([(0, "1/2"), (3, "1/2"), (5, "3/4")])
        assert _distinct_counts(CbcctInstance((v,), 0, F(1))) == (3, 2)
        # Its normalized form's group key is (profile, value set), both sorted.
        w = vector([(0, "1/2"), (5, "3/4")])
        _, vmap = build_bribe_value_milp(CbcctInstance((w, w), 0, F(1)))
        assert vmap.group_players == {((F(1, 2), F(3, 4)), (0, 5)): [0, 1]}

    def test_monotone_vectors_with_same_group_are_identical(self):
        # The builders' groups hold equal vectors, and distinct groups differ.
        rng = split_rng(23, "profiles")
        for idx in range(30):
            inst = gen_cbcct(23, rng.randint(2, 6), 3, 10, index=idx)
            _, vmap = build_bribe_value_milp(inst)
            members = [
                {inst.bribe_vectors[p] for p in players} for players in vmap.group_players.values()
            ]
            assert all(len(vectors) == 1 for vectors in members)
            assert len(set().union(*members)) == len(members)
            assert sorted(p for ps in vmap.group_players.values() for p in ps) == list(
                range(inst.num_challengers)
            )


class TestBribeValueModel:
    def test_shared_group_counts(self):
        # Two challengers sharing bribe values {0, 1} and profile {1/2, 1}.
        shared = vector([(0, "1/2"), (1, "1")])
        inst = CbcctInstance((shared, shared), 1, F(1, 2))
        model, vmap = build_bribe_value_milp(inst)
        assert vmap.num_int == 2
        # One per-group column per entry, right after the integer columns.
        assert model.fractional_columns() == [2, 3]
        group_row = model.rows[-1]
        assert group_row.rhs == 2  # n_{P,V'} for the single group

    def test_empty_instance_model(self):
        model, vmap = build_bribe_value_milp(CbcctInstance((), 5, F(1, 2)))
        assert model.num_variables == 0
        assert all(not isinstance(c, FormalLog) for c in model.objective.coeffs.values())

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
            hits = [r for r in link_rows if r.coeffs.get(col, 0) != 0]
            assert len(hits) == 1
            ints_in_row = [
                j
                for j in model.integer_columns()
                if hits[0].coeffs.get(j, 0) != 0
            ]
            assert len(ints_in_row) == 1

    def test_rejects_non_monotone(self):
        inst = CbcctInstance((vector([(0, "1/2"), (1, "1/4")]),), 1, F(1, 2))
        with pytest.raises(ModelError):
            build_bribe_value_milp(inst)

    def test_rejects_zero_probability(self):
        # A vector with no positive entry leaves the log-domain model nothing to buy.
        inst = CbcctInstance((vector([(0, "1/2"), (1, "1")]), vector([(2, "0")])), 3, F(1, 2))
        for build in (build_bribe_value_milp, build_prob_value_milp):
            with pytest.raises(ModelError, match="challenger 2 has no positive"):
                build(inst)

    def test_leading_zero_entry_left_out(self):
        # The model of a leading zero entry's instance is that of the instance
        # without the entry; the witness still indexes the caller's vectors.
        rng = split_rng(29, "leading-zero")
        pool = (F(0), F(1, 3), F(1, 2), F(1))
        left_out = 0
        for idx in range(30):
            drawn = gen_cbcct(
                29, rng.randint(1, 6), 3, rng.randint(0, 12), (0, 1, 2, 3), pool, index=idx
            )
            if not all(v.entries[-1].losing_probability for v in drawn.bribe_vectors):
                continue
            inst = CbcctInstance(drawn.bribe_vectors, drawn.budget, max(drawn.threshold, F(1, 64)))
            positive = [
                vector((e.bribe, e.losing_probability) for e in v.entries if e.losing_probability)
                for v in inst.bribe_vectors
            ]
            left_out += positive != list(inst.bribe_vectors)
            without = CbcctInstance(positive, inst.budget, inst.threshold)
            for build in (build_bribe_value_milp, build_prob_value_milp):
                model, vmap = build(inst)
                assert model.dump() == build(without)[0].dump(), idx
                assert vmap == build(without)[1], idx
        assert left_out >= 10, left_out

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
            if any(row.coeffs.get(j, 0) != 0 for j in frac)
        ]
        assert touching == list(range(1, len(model.rows)))

    def test_fractional_submatrix_has_two_ones_per_column(self):
        # The linking and group-size row families each hit every per-group
        # column exactly once with a +1: the structure behind unimodularity,
        # which `integrality_defect` checks as a whole.
        rng = split_rng(37, "two-ones")
        for idx in range(20):
            inst = gen_cbcct(37, rng.randint(1, 6), 3, 10, index=idx)
            for build in (build_bribe_value_milp, build_prob_value_milp):
                model, vmap = build(inst)
                frac = model.fractional_columns()
                link = model.rows[1 : 1 + vmap.num_int]
                group = model.rows[1 + vmap.num_int :]
                for col in frac:
                    link_hits = [r.coeffs[col] for r in link if r.coeffs.get(col, 0) != 0]
                    group_hits = [r.coeffs[col] for r in group if r.coeffs.get(col, 0) != 0]
                    assert link_hits == [F(1)]
                    assert group_hits == [F(1)]
                assert integrality_defect(model) is None

    def test_builders_emit_plain_ints(self):
        # Every rational coefficient and rhs reaches the tableau as an int,
        # with no Fraction pass; groups are keyed by profile and value set.
        rng = split_rng(41, "ints")
        for idx in range(20):
            inst = gen_cbcct(41, rng.randint(1, 6), 3, rng.randint(0, 20), index=idx)
            for build in (build_bribe_value_milp, build_prob_value_milp):
                model, vmap = build(inst)
                rows = [(row.coeffs, row.rhs) for row in model.rows]
                for coeffs, rhs in rows + [(model.objective.coeffs, 0)]:
                    for c in (*coeffs.values(), rhs):
                        assert isinstance(c, FormalLog) or type(c) is int, (build, c)
                for (prof, vs), players in vmap.group_players.items():
                    assert list(prof) == sorted(set(prof)) and list(vs) == sorted(set(vs))
                    for p in players:
                        v = inst.bribe_vectors[p]
                        assert (prof, vs) == (v.probabilities(), v.bribe_values())


    def test_branch_groups_share_a_value_or_a_probability(self):
        # Three value sets: {0, 1}, {0, 1, 2} and {0, 2}.  The integer
        # columns are x[0|1, {0,1}] = 0, 1, then x[0|1|2, {0,1,2}] = 2, 3, 4,
        # then x[0|2, {0,2}] = 5, 6; value 0 is left out.
        inst = CbcctInstance(
            (
                vector([(0, "1/4"), (1, "1/2")]),
                vector([(0, "1/4"), (1, "1/2"), (2, "1")]),
                vector([(0, "1/2"), (2, "3/4")]),
            ),
            2,
            F(1, 8),
        )
        model, _ = build_bribe_value_milp(inst)
        assert model.branch_groups == ((1, 3), (4, 6))
        names = [model.variables[col].name for col in (2, 3, 4)]
        assert names == ["x[0,{0, 1, 2}]", "x[1,{0, 1, 2}]", "x[2,{0, 1, 2}]"]
        # Profiles {1/4, 1/2}, {1/4, 1/2, 1}, {1/2, 3/4}: 1/4 at 0 and 2,
        # 1/2 at 1, 3 and 5.
        model, _ = build_prob_value_milp(inst)
        assert model.branch_groups == ((0, 2), (1, 3, 5))
        assert model.variables[5].name == "x[1/2,{1/2, 3/4}]"


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
        assert all(first.coeffs.get(j, 0) == 0 for j in frac)

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

    def test_witnesses_on_raw_vectors(self):
        # Raw vectors: unsorted probabilities, leading zeros and dominated
        # entries, which normalization and the zero-entry drop remove before
        # the model is built.  Each witness must index the caller's vectors.
        rng = split_rng(47, "raw")
        pool = [F(0), F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
        shifted = 0  # witness entries whose index normalization would move
        for idx in range(150):
            vectors = []
            for _ in range(rng.randint(1, 4)):
                prices = sorted(rng.sample(range(7), rng.randint(1, 4)))
                probs = [rng.choice(pool) for _ in prices]
                if rng.random() < 0.3:
                    probs[0] = F(0)
                vectors.append(vector(zip(prices, probs)))
            budget = rng.randint(0, 12)
            plans = [
                (evaluate_plan(CbcctInstance(vectors, budget, F(0)), BribePlan(c)), c)
                for c in itertools.product(*(range(1, len(v) + 1) for v in vectors))
            ]
            values = sorted({p for (cost, p), _ in plans if cost <= budget})
            threshold = rng.choice(values + [F(1, 2)]) if values else F(1, 2)
            inst = CbcctInstance(vectors, budget, threshold)
            b = solve_bruteforce(inst)
            fb = solve_fpt_bribe_values(inst)
            fp = solve_fpt_prob_values(inst)
            assert fb.best_probability == b.best_probability, idx
            assert fb.decision == fp.decision == b.decision, idx
            for r in (fb, fp):
                if r.witness is None:
                    continue
                cost, prob = evaluate_plan(inst, r.witness)
                assert cost <= budget and prob == r.best_probability, (idx, r)
                for v, j in zip(vectors, r.witness.choices):
                    kept = normalize_bribe_vector(v).entries
                    usable = [e for e in kept if e.losing_probability > 0]
                    entry = v.entries[j - 1]
                    shifted += entry in usable and usable.index(entry) + 1 != j
            if fp.decision:
                # The cheapest plan that reaches the threshold.
                least = min(cost for (cost, p), _ in plans if p >= threshold)
                assert evaluate_plan(inst, fp.witness).cost == least, idx
        assert shifted >= 30, shifted

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


class TestSharedVectors:
    """The front end keys on vector objects: sharing them changes no answer."""

    def test_shared_and_separate_vectors_agree(self):
        # Raw draws (dominated entries, zero probabilities) with few distinct
        # vectors, solved with one object per player, as generated and as
        # decoded (one object per distinct draw or entry list): equal models
        # and results.
        rng = split_rng(23, "shared")
        pool = (F(0), F(1, 3), F(1, 2), F(1))
        shared = 0
        for idx in range(40):
            drawn = gen_cbcct(
                23, rng.randint(0, 24), 2, rng.randint(0, 12), (0, 1, 2), pool,
                normalize=idx % 2 == 0, index=idx,
            )
            threshold = max(drawn.threshold, F(1, 64))
            inst = CbcctInstance(drawn.bribe_vectors, drawn.budget, threshold)
            separate = CbcctInstance(
                tuple(BribeVector(v.entries) for v in inst.bribe_vectors), inst.budget, threshold
            )
            decoded = instance_from_dict(instance_to_dict(inst))
            assert decoded == inst == separate
            assert len(set(map(id, separate.bribe_vectors))) == separate.num_challengers
            shared += len(set(map(id, decoded.bribe_vectors))) < inst.num_challengers
            for solver in (solve_fpt_bribe_values, solve_fpt_prob_values, solve_dp):
                assert solver(decoded) == solver(inst) == solver(separate), (idx, solver)
            normalized = [normalize_instance(x) for x in (separate, inst, decoded)]
            assert normalized[0] == normalized[1] == normalized[2]
            positive = all(v.entries[-1].losing_probability for v in normalized[0].bribe_vectors)
            for build in (build_bribe_value_milp, build_prob_value_milp):
                if not positive:  # a zero-only challenger: no model to build
                    for x in normalized:
                        with pytest.raises(ModelError):
                            build(x)
                    continue
                (model, vmap), *others = map(build, normalized)
                for other_model, other_vmap in others:
                    assert other_model.dump() == model.dump() and other_vmap == vmap, idx
        assert shared >= 25, shared

    def test_front_end_keeps_sharing(self):
        a = vector([(0, "1/2"), (1, "1/2"), (2, "3/4")])
        b = vector([(0, "0"), (1, "1/4")])
        inst = CbcctInstance((a, b, a, b), 3, F(1, 8))
        normalized = normalize_instance(inst)
        v = normalized.bribe_vectors
        assert v[0] is v[2] and v[1] is v[3] is b
        assert v[0] == vector([(0, "1/2"), (2, "3/4")])
        assert normalize_instance(normalized) is normalized
        # b's leading zero entry is left out of its group key.
        assert _grouping(normalized) == {
            ((F(1, 4),), (1,)): [1, 3],
            ((F(1, 2), F(3, 4)), (0, 2)): [0, 2],
        }


class TestScale:
    """n=10**5 scale-pool draw at B=100n: 56 distinct vectors, no DP.

    The frontier tail of `fpt-probs` (a threshold at a frontier value takes
    thousands of LPs at this size, ROADMAP item 2) is left out: its
    threshold here is the product of every top entry, above the optimum.
    """

    def test_fpt_routes_at_n_1e5(self):
        n = 10**5
        drawn = gen_cbcct(
            9, n, 4, 100 * n, verify.SCALE_VALUE_POOL, verify.SCALE_PROB_POOL,
            canonical=True, index=0,
        )
        inst = CbcctInstance(drawn.bribe_vectors, drawn.budget, F(1, 1000))
        decoded = instance_from_dict(instance_to_dict(inst))
        assert len(set(map(id, decoded.bribe_vectors))) == 56
        r = solve_fpt_bribe_values(decoded)
        assert r == solve_fpt_bribe_values(inst)
        cost, prob = evaluate_plan(inst, r.witness)
        assert cost <= inst.budget and prob == r.best_probability and not r.decision
        top = evaluate_plan(inst, BribePlan(tuple(len(v) for v in inst.bribe_vectors)))
        assert top.cost > inst.budget and top.win_probability > r.best_probability
        probs = solve_fpt_prob_values(CbcctInstance(inst.bribe_vectors, inst.budget, top.win_probability))
        assert not probs.decision and probs.witness is None


class TestBranchingTail:
    """Branching on value-group sums keeps the scale draws' trees small.

    Draws as the benchmark makes them (`perfbench/workloads.py`,
    `random.Random(seed)`, B = 100n).  Splitting one column at a time, n=1000
    seed 7 took 71 LP solves and n=3000 seed 2 took 959.
    """

    @pytest.mark.parametrize("n, seed", [(1000, 7), (3000, 2)])
    def test_fpt_bribes_needs_few_lps(self, n, seed, monkeypatch):
        import importlib.util
        import random
        from pathlib import Path

        from champbribe.core import instance_from_dict

        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        inst = instance_from_dict(
            workloads.draw_instance(
                random.Random(seed), n, 4, 100 * n, workloads.SCALE_VALUES,
                workloads.SCALE_PROBS, True,
            )
        )
        solves = []
        real = milp._simplex

        def counted(tab, objective):
            solves.append(tab)
            return real(tab, objective)

        monkeypatch.setattr(milp, "_simplex", counted)
        r = solve_fpt_bribe_values(inst)
        assert len(solves) <= 5
        assert r.best_probability == budget_sweep(inst).best_at()


def test_lp_and_pivot_totals_are_pinned(monkeypatch):
    # Bland's rule makes every pivot a function of the exact tableau, so a
    # change to how the tableau is stored must leave these totals as they
    # are.  Scale-pool draws, n in 10..40, budgets between 20n and 300n, and
    # the same draws over the gcd-1 value pool, where the row gcd rule leaves
    # the budget row as it is and the fpt-bribes trees stay deep.
    counts = {"lp": 0, "pivots": 0}
    simplex, spend = milp._simplex, milp._Pivots.spend

    def counted_simplex(tab, objective):
        counts["lp"] += 1
        return simplex(tab, objective)

    def counted_spend(pivots):
        counts["pivots"] += 1
        return spend(pivots)

    monkeypatch.setattr(milp, "_simplex", counted_simplex)
    monkeypatch.setattr(milp._Pivots, "spend", counted_spend)
    totals = {}
    for values in (verify.SCALE_VALUE_POOL, verify.GCD1_VALUE_POOL):
        rng = split_rng(23, "pinned-counts")
        draws = []
        for idx in range(10):
            n = rng.randint(10, 40)
            draws.append(gen_cbcct(
                23, n, 4, rng.randint(20 * n, 300 * n), values, verify.SCALE_PROB_POOL,
                canonical=True, index=idx,
            ))
        for solve in (solve_fpt_bribe_values, solve_fpt_prob_values):
            counts.update(lp=0, pivots=0)
            for inst in draws:
                solve(inst)
            totals[values[1], solve.__name__] = (counts["lp"], counts["pivots"])
    assert totals == {
        (500, "solve_fpt_bribe_values"): (26, 314),
        (500, "solve_fpt_prob_values"): (56, 401),
        (499, "solve_fpt_bribe_values"): (152, 576),
        (499, "solve_fpt_prob_values"): (58, 407),
    }


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
        low, high = model.fractional_columns()
        assert _plan_from_assignment(inst, vmap, assignment) == BribePlan((1, 2))
        # Fractional counts, counts short of the group, and a negative count.
        for counts in ((F(1, 2), F(3, 2)), (F(1), F(0)), (F(-1), F(2))):
            assignment[low], assignment[high] = counts
            with pytest.raises(SolverError):
                _plan_from_assignment(inst, vmap, assignment)


class TestRouteSuites:
    """The route suites report a corrupted route, and name it."""

    @staticmethod
    def corrupt(monkeypatch, name, change):
        """Replace the route `name` in `verify` by one whose results pass through `change`."""
        route = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda inst: change(inst, route(inst)))

    def test_solver_agreement_catches_a_dropped_dp_witness(self, monkeypatch):
        self.corrupt(monkeypatch, "solve_dp", lambda inst, r: dataclasses.replace(r, witness=None))
        report = verify.suite_solver_agreement(count=50)
        assert not report.passed
        assert all(re.search(r"\) dp: reports \S+ without a witness$", f) for f in report.failures)

    def test_fpt_scale_catches_a_flipped_fpt_probs_decision(self, monkeypatch):
        self.corrupt(
            monkeypatch, "solve_fpt_prob_values",
            lambda inst, r: dataclasses.replace(r, decision=not r.decision),
        )
        report = verify.suite_fpt_scale(count=1)
        assert len(report.failed) == report.total == 2
        assert any(re.search(r"\) fpt-probs: says \w+ at ", f) for f in report.failures)

    def test_value_agreement_catches_a_costlier_fpt_probs_witness(self, monkeypatch):
        def costlier(inst, r):
            # On a yes, hand back the optimal plan at B: it fits the budget and
            # reaches the threshold, but need not be the cheapest plan that does.
            if not r.decision:
                return r
            dp = solve_dp(inst)
            return dataclasses.replace(r, best_probability=dp.best_probability, witness=dp.witness)

        self.corrupt(monkeypatch, "solve_fpt_prob_values", costlier)
        report = verify.suite_value_agreement()
        pattern = re.compile(r" fpt-probs: says True at witness cost (\d+), dp minimum budget (\d+)")
        found = [tuple(map(int, m.groups())) for m in map(pattern.search, report.failures) if m]
        # The witness cost is the only failure, and it is above the least budget.
        assert found and len(found) == len(report.failures)
        assert all(cost > need for cost, need in found)
