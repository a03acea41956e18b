"""Domain types, normalization, and plan evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from champbribe import (
    BribeEntry,
    BribePlan,
    BribeVector,
    CbcctInstance,
    InstanceError,
    PlanError,
    evaluate_plan,
    instance_from_dict,
    instance_to_dict,
    normalize_bribe_vector,
    normalize_instance,
)
from champbribe.core import best_purchasable, vector


def F(*args):
    return Fraction(*args)


class TestInvariants:
    def test_entry_rejects_negative_bribe(self):
        with pytest.raises(InstanceError):
            BribeEntry(-1, F(1, 2))

    def test_entry_rejects_probability_outside_unit_interval(self):
        with pytest.raises(InstanceError):
            BribeEntry(0, F(3, 2))
        with pytest.raises(InstanceError):
            BribeEntry(0, F(-1, 2))

    def test_vector_rejects_empty(self):
        with pytest.raises(InstanceError):
            BribeVector(())

    def test_vector_rejects_non_increasing_bribes(self):
        with pytest.raises(InstanceError):
            vector([(0, "1/2"), (0, "3/4")])
        with pytest.raises(InstanceError):
            vector([(3, "1/2"), (1, "3/4")])

    def test_flags(self):
        v = vector([(0, "1/2"), (2, "3/4")])
        assert v.canonical_first_zero and v.monotone
        w = vector([(1, "3/4"), (2, "1/2")])
        assert not w.canonical_first_zero and not w.monotone

    def test_instance_rejects_bad_budget_and_threshold(self):
        v = vector([(0, "1/2")])
        with pytest.raises(InstanceError):
            CbcctInstance((v,), -1, F(1, 2))
        with pytest.raises(InstanceError):
            CbcctInstance((v,), 0, F(2))


class TestNormalize:
    def test_already_monotone_is_identity(self):
        v = vector([(0, "1/2")])
        assert normalize_bribe_vector(v) is v

    def test_deletes_equal_probability_tail(self):
        v = vector([(0, "1/2"), (3, "1/2")])
        assert normalize_bribe_vector(v) == vector([(0, "1/2")])

    def test_deletes_dominated_middle_entry(self):
        v = vector([(0, "1/2"), (2, "1/4"), (5, "3/4")])
        assert normalize_bribe_vector(v) == vector([(0, "1/2"), (5, "3/4")])

    def test_idempotent(self):
        v = vector([(0, "1/2"), (2, "1/4"), (5, "3/4"), (7, "1/8")])
        once = normalize_bribe_vector(v)
        assert normalize_bribe_vector(once) == once

    def test_purchasable_probability_preserved_at_every_budget(self):
        # Oracle: best single-entry probability affordable at each budget.
        v = vector([(0, "1/2"), (2, "1/4"), (3, "2/3"), (5, "2/3"), (9, "1")])
        w = normalize_bribe_vector(v)
        for budget in range(12):
            assert best_purchasable(v, budget) == best_purchasable(w, budget)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8),
                st.fractions(min_value=0, max_value=1, max_denominator=8),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda t: t[0],
        )
    )
    def test_normalization_properties(self, pairs):
        pairs = sorted(pairs)
        v = BribeVector(tuple(BribeEntry(b, p) for b, p in pairs))
        w = normalize_bribe_vector(v)
        assert w.monotone
        assert normalize_bribe_vector(w) == w
        for budget in range(10):
            assert best_purchasable(v, budget) == best_purchasable(w, budget)

    def test_normalize_instance_fixed_point(self):
        inst = CbcctInstance(
            (vector([(0, "1/4"), (1, "1/2")]), vector([(0, "1/3")])), 5, F(1, 2)
        )
        assert normalize_instance(inst) is inst

    def test_normalize_instance_rewrites_offending_vector(self):
        inst = CbcctInstance(
            (vector([(0, "1/2"), (3, "1/2")]), vector([(0, "1/3")])), 5, F(1, 2)
        )
        out = normalize_instance(inst)
        assert out.bribe_vectors[0] == vector([(0, "1/2")])
        assert out.bribe_vectors[1] == inst.bribe_vectors[1]

    def test_normalize_empty_instance(self):
        inst = CbcctInstance((), 0, F(1))
        assert normalize_instance(inst) is inst


class TestEvaluatePlan:
    def test_worked_example(self):
        inst = CbcctInstance(
            (vector([(0, "1/2"), (1, "1")]), vector([(0, "1/3"), (2, "2/3")])),
            5,
            F(1, 3),
        )
        assert evaluate_plan(inst, BribePlan((2, 1))) == (1, F(1, 3))
        assert evaluate_plan(inst, BribePlan((1, 1))) == (0, F(1, 6))

    def test_empty_product(self):
        inst = CbcctInstance((), 0, F(1))
        assert evaluate_plan(inst, BribePlan(())) == (0, F(1))

    def test_index_out_of_range(self):
        inst = CbcctInstance((vector([(0, "1/2")]),), 5, F(1, 3))
        with pytest.raises(PlanError):
            evaluate_plan(inst, BribePlan((2,)))
        with pytest.raises(PlanError):
            evaluate_plan(inst, BribePlan((0,)))
        with pytest.raises(PlanError):
            evaluate_plan(inst, BribePlan(()))

    def test_cost_is_order_independent(self):
        vs = (
            vector([(0, "1/2"), (4, "3/4")]),
            vector([(1, "1/3"), (2, "2/3")]),
            vector([(0, "1/5"), (7, "4/5")]),
        )
        inst = CbcctInstance(vs, 20, F(1, 2))
        rev = CbcctInstance(vs[::-1], 20, F(1, 2))
        plan = BribePlan((2, 1, 2))
        assert evaluate_plan(inst, plan) == evaluate_plan(rev, BribePlan(plan.choices[::-1]))


class TestJson:
    def test_roundtrip(self):
        inst = CbcctInstance(
            (vector([(0, "1/2"), (1, "1")]), vector([(0, "1/3"), (2, "2/3")])),
            7,
            F(2, 5),
        )
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_schema_fields(self):
        inst = CbcctInstance((vector([(0, "1/2")]),), 3, F(1, 4))
        data = instance_to_dict(inst)
        assert set(data) == {"players", "budget", "threshold"}
        assert data["players"][0]["entries"][0] == {"bribe": 0, "p": "1/2"}
        assert data["threshold"] == "1/4"

    def test_rejects_malformed(self):
        with pytest.raises(InstanceError):
            instance_from_dict({"budget": 1, "threshold": "1/2"})
        with pytest.raises(InstanceError):
            instance_from_dict({"players": [], "budget": "x", "threshold": "1/2"})
        with pytest.raises(InstanceError):
            instance_from_dict({"players": [{}], "budget": 1, "threshold": "1/2"})
        for players in ([{"entries": [{"bribe": 0}]}], [{"entries": "x"}], "x"):
            with pytest.raises(InstanceError):
                instance_from_dict({"players": players, "budget": 1, "threshold": "1/2"})
