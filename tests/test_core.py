"""Domain types, normalization, and plan evaluation."""

import weakref
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
from champbribe.core import best_purchasable, map_distinct, vector, vector_from_json
from champbribe.generators import gen_cbcct, split_rng


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

    def test_messages(self):
        inst = CbcctInstance((vector([(0, "1/2")]), vector([(0, "1/3"), (1, "1")])), 5, F(0))
        cases = [
            ((1,), "plan has 1 choices for 2 challengers"),
            ((1, 3), "choice 3 out of range 1..2 for challenger 2"),
            ((0, 9), "choice 0 out of range 1..1 for challenger 1"),
        ]
        for choices, message in cases:
            with pytest.raises(PlanError) as err:
                evaluate_plan(inst, BribePlan(choices))
            assert str(err.value) == message

    def test_counts_equal_the_product(self):
        # Seeded plans over pools with 0 and 1, on generated instances (no
        # shared objects) and on the same instances decoded (shared vectors).
        rng = split_rng(5, "evaluate")
        pools = [(F(0), F(1, 3), F(1, 2), F(1)), (F(1, 4), F(2, 7), F(3, 4), F(1))]
        for idx in range(60):
            pool = pools[idx % 2]
            inst = gen_cbcct(5, rng.randint(0, 40), 3, 20, prob_pool=pool, index=idx)
            inst = CbcctInstance(inst.bribe_vectors, inst.budget, F(1, 2))
            decoded = instance_from_dict(instance_to_dict(inst))
            for _ in range(5):
                plan = BribePlan(tuple(rng.randint(1, len(v)) for v in inst.bribe_vectors))
                cost, prob = 0, F(1)
                for v, j in zip(inst.bribe_vectors, plan.choices):
                    cost += v.entries[j - 1].bribe
                    prob *= v.entries[j - 1].losing_probability
                assert evaluate_plan(inst, plan) == (cost, prob), idx
                assert evaluate_plan(decoded, plan) == (cost, prob), idx

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


class TestMapDistinct:
    def test_short_lived_vectors_keep_their_own_results(self):
        # Only map_distinct holds the generator's vectors.  A freed one could
        # pass its id on to a later one, which would get the freed one's
        # result, so every vector seen must stay alive for the call.
        seen = []

        def fn(v):
            assert all(ref() is not None for ref in seen)
            seen.append(weakref.ref(v))
            return v.entries[0].losing_probability

        out = map_distinct(fn, (vector([(0, p)]) for p in ["1/3", "1/2", "2/3", "3/4"]))
        assert out == [F(1, 3), F(1, 2), F(2, 3), F(3, 4)]

    def test_one_call_per_vector_object(self):
        a, b = vector([(0, "1/2")]), vector([(0, "1/2")])
        calls = []
        assert map_distinct(lambda v: calls.append(v) or len(calls), [a, b, a, b]) == [1, 2, 1, 2]
        assert calls[0] is a and calls[1] is b


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


class TestDecodeSharing:
    """Equal entry lists decode to one vector; everything else as before."""

    @staticmethod
    def _decode(*entry_lists):
        players = [{"entries": entries} for entries in entry_lists]
        return instance_from_dict({"players": players, "budget": 1, "threshold": "1/2"})

    def test_equal_entry_lists_share_one_vector(self):
        a = [{"bribe": 0, "p": "1/2"}, {"bribe": 3, "p": "3/4"}]
        b = [{"bribe": 0, "p": "1/2"}, {"bribe": 2, "p": "3/4"}]
        inst = self._decode(a, b, [dict(e) for e in a], a)
        v = inst.bribe_vectors
        assert v[0] is v[2] is v[3] and v[1] is not v[0]
        assert v[0].entries[0] is v[1].entries[0]  # one entry, parsed once
        assert v == (
            vector([(0, "1/2"), (3, "3/4")]),
            vector([(0, "1/2"), (2, "3/4")]),
            vector([(0, "1/2"), (3, "3/4")]),
            vector([(0, "1/2"), (3, "3/4")]),
        )

    def test_values_of_another_type_are_not_shared(self):
        # true, 1.0 and 1 are equal in Python, but only 1 is a JSON integer.
        good = [{"bribe": 1, "p": 1}]
        for field, bad in [("bribe", True), ("bribe", 1.0), ("bribe", "1"), ("p", True), ("p", 1.0)]:
            other = [{**good[0], field: bad}]
            with pytest.raises(InstanceError):
                self._decode(good, other)
        assert self._decode(good, [{"bribe": 1, "p": "1"}]).bribe_vectors[1].entries[0].losing_probability == 1

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "x",
            {"bribe": 0, "p": "1/2"},
            [{"bribe": 0, "p": "1/2"}, 5],
            [{"bribe": 0, "p": "1/2"}, ["bribe", "p"]],
            [{"bribe": 0}],
            [{"bribe": 0, "p": "1/2"}, {"p": "3/4"}],
            [{"bribe": [0], "p": "1/2"}],
            [{"bribe": 0, "p": {"num": 1}}],
            [{"bribe": 0, "p": "1/2"}, {"bribe": 0, "p": "3/4"}],
            [{"bribe": 0, "p": "3/2"}],
            [{"bribe": 0, "p": "1/0"}],
            [{"bribe": -1, "p": "1/2"}],
            [],
        ],
    )
    def test_malformed_after_a_valid_vector(self, bad):
        # Each message is the one `vector_from_json` gives for the list alone.
        valid = [{"bribe": 0, "p": "1/2"}]
        with pytest.raises(InstanceError) as alone:
            vector_from_json(bad)
        for lists in ([bad], [valid, bad], [valid, valid, bad]):
            with pytest.raises(InstanceError) as err:
                self._decode(*lists)
            assert str(err.value) == str(alone.value)

    def test_pinned_messages(self):
        cases = [
            ([{"bribe": 0}], "entry must be an object with 'bribe' and 'p': KeyError('p')"),
            ("x", "bribe vector must be a list of entries, got 'x'"),
            ([{"bribe": 0, "p": "1/2"}, 5],
             "entry must be an object with 'bribe' and 'p': "
             "TypeError(\"'int' object is not subscriptable\")"),
            ([{"bribe": [0], "p": "1/2"}], "bribe must be an integer >= 0, got [0]"),
        ]
        for bad, message in cases:
            with pytest.raises(InstanceError) as err:
                self._decode([{"bribe": 0, "p": "1/2"}], bad)
            assert str(err.value) == message

    def test_player_that_is_not_an_object(self):
        players = [{"entries": [{"bribe": 0, "p": "1/2"}]}, 7]
        with pytest.raises(InstanceError, match="got None"):
            instance_from_dict({"players": players, "budget": 1, "threshold": "1/2"})
