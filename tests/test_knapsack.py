"""Product knapsack, multicolored variant, and small k-sum oracles."""

from fractions import Fraction

import pytest

from champbribe import (
    CapExceededError,
    InstanceError,
    MpkInstance,
    PkpInstance,
    PkpItem,
    SmallKSumInstance,
    solve_mpk_bruteforce,
    solve_pkp_bruteforce,
    solve_pkp_dp,
    solve_small_ksum_bruteforce,
)
from champbribe.knapsack import (
    ksum_from_dict,
    ksum_to_dict,
    mpk_from_dict,
    mpk_to_dict,
    pkp_from_dict,
    pkp_to_dict,
)


def F(*args):
    return Fraction(*args)


def pkp(items, capacity, target):
    return PkpInstance(tuple(PkpItem(w, F(v)) for w, v in items), capacity, F(target))


class TestPkpBruteforce:
    def test_worked_example_yes(self):
        inst = pkp([(2, 3), (3, 4), (4, 5)], 5, 12)
        r = solve_pkp_bruteforce(inst)
        assert r.best_product == 12 and r.witness == (0, 1) and r.decision

    def test_worked_example_no(self):
        inst = pkp([(2, 3), (3, 4), (4, 5)], 4, 12)
        r = solve_pkp_bruteforce(inst)
        assert r.best_product == 5 and not r.decision

    def test_empty_product(self):
        inst = pkp([], 3, 1)
        r = solve_pkp_bruteforce(inst)
        assert r.best_product == 1 and r.witness == () and r.decision

    def test_cap(self):
        inst = pkp([(1, 2)] * 5, 3, 1)
        with pytest.raises(CapExceededError):
            solve_pkp_bruteforce(inst, max_items=4)


class TestPkpDp:
    def test_agrees_with_bruteforce_on_examples(self):
        for items, cap, target in [
            ([(2, 3), (3, 4), (4, 5)], 5, 12),
            ([(2, 3), (3, 4), (4, 5)], 4, 12),
            ([], 3, 1),
        ]:
            inst = pkp(items, cap, target)
            brute = solve_pkp_bruteforce(inst)
            table = solve_pkp_dp(inst)
            assert table.best_product == brute.best_product
            assert table.decision == brute.decision

    def test_single_item_heavier_than_capacity(self):
        inst = pkp([(9, 5)], 3, 2)
        assert solve_pkp_dp(inst).best_product == 1

    def test_all_zero_weights_take_only_improving_items(self):
        # Oracle: product of profits > 1 only.
        inst = pkp([(0, "1/2"), (0, 3), (0, 2), (0, "3/4")], 1, 1)
        r = solve_pkp_dp(inst)
        assert r.best_product == 6
        assert sorted(r.witness) == [1, 2]

    def test_agrees_with_bruteforce_randomized(self):
        import random

        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(0, 8)
            items = [
                (rng.randint(0, 6), F(rng.randint(1, 8), rng.randint(1, 4)))
                for _ in range(n)
            ]
            inst = PkpInstance(
                tuple(PkpItem(w, v) for w, v in items),
                rng.randint(1, 15),
                F(rng.randint(1, 9), rng.randint(1, 3)),
            )
            # The whole result, witness included: both take the smallest-bitmask optimum.
            assert solve_pkp_dp(inst) == solve_pkp_bruteforce(inst)

    def test_memory_cap(self, monkeypatch):
        # A large capacity costs nothing: one two-entry item forms 2 candidates.
        from champbribe import dp

        inst = pkp([(1, 2)], 10**7, 1)
        assert solve_pkp_dp(inst) == solve_pkp_bruteforce(inst)
        monkeypatch.setattr(dp, "CANDIDATE_CAP", 1)
        with pytest.raises(CapExceededError):
            solve_pkp_dp(inst)


class TestMpk:
    def _example(self, target):
        items = (
            PkpItem(1, F(1, 2)),
            PkpItem(3, F(3, 4)),
            PkpItem(0, F(1, 3)),
            PkpItem(2, F(2, 3)),
        )
        return MpkInstance(items, ((0, 1), (2, 3)), 3, F(target))

    def test_worked_example_yes(self):
        r = solve_mpk_bruteforce(self._example("1/3"))
        assert r.best_product == F(1, 3) and r.witness == (0, 3) and r.decision

    def test_worked_example_no(self):
        r = solve_mpk_bruteforce(self._example("1/2"))
        assert r.best_product == F(1, 3) and not r.decision

    def test_no_classes(self):
        inst = MpkInstance((), (), 3, F(1))
        r = solve_mpk_bruteforce(inst)
        assert r.best_product == 1 and r.witness == () and r.decision

    def test_all_selections_overweight(self):
        inst = MpkInstance((PkpItem(5, F(1, 2)),), ((0,),), 3, F(1, 4))
        r = solve_mpk_bruteforce(inst)
        assert r.best_product is None and r.witness is None and not r.decision

    def test_singleton_classes_force_every_item(self):
        items = (PkpItem(1, F(1, 2)), PkpItem(2, F(2, 1)))
        inst = MpkInstance(items, ((0,), (1,)), 5, F(1))
        r = solve_mpk_bruteforce(inst)
        assert r.witness == (0, 1) and r.best_product == 1

    def test_partition_validation(self):
        items = (PkpItem(1, F(1, 2)), PkpItem(2, F(1, 3)))
        with pytest.raises(InstanceError):
            MpkInstance(items, ((0,),), 3, F(1))  # item 1 uncovered
        with pytest.raises(InstanceError):
            MpkInstance(items, ((0, 1), (1,)), 3, F(1))  # item 1 twice
        with pytest.raises(InstanceError):
            MpkInstance(items, ((0, 1), ()), 3, F(1))  # empty class


class TestSmallKSum:
    def test_worked_example_yes(self):
        r = solve_small_ksum_bruteforce(SmallKSumInstance((-1, 1, 2), 2))
        assert r.decision and r.witness == (0, 1)

    def test_worked_example_no(self):
        assert not solve_small_ksum_bruteforce(SmallKSumInstance((1, 2, 4), 2)).decision

    def test_k_zero(self):
        assert solve_small_ksum_bruteforce(SmallKSumInstance((), 0)).decision
        assert solve_small_ksum_bruteforce(
            SmallKSumInstance((1,), 0, target=0, shifted=True)
        ).decision
        assert not solve_small_ksum_bruteforce(
            SmallKSumInstance((1,), 0, target=5, shifted=True)
        ).decision

    def test_range_invariant_enforced(self):
        with pytest.raises(InstanceError):
            SmallKSumInstance((100,), 1)  # 1^2 = 1 < 100
        with pytest.raises(InstanceError):
            SmallKSumInstance((-10, 0), 1)  # 2^2 = 4 < 10
        assert SmallKSumInstance((-4, 0), 1).k == 1  # 4 is on the bound
        assert SmallKSumInstance((1, 2, 3), 10**9).k == 10**9  # bound never built

    def test_rejects_bool_k(self):
        with pytest.raises(InstanceError):
            SmallKSumInstance((0, 1), True)

    def test_cap(self):
        inst = SmallKSumInstance(tuple([0] * 30), 15)
        with pytest.raises(CapExceededError):
            solve_small_ksum_bruteforce(inst, combo_cap=10**4)


class TestJson:
    def test_pkp_roundtrip(self):
        inst = pkp([(2, 3), (3, "4/7")], 5, "12/5")
        assert pkp_from_dict(pkp_to_dict(inst)) == inst

    def test_mpk_roundtrip(self):
        inst = MpkInstance(
            (PkpItem(1, F(1, 2)), PkpItem(2, F(1, 3))), ((0,), (1,)), 4, F(1, 6)
        )
        assert mpk_from_dict(mpk_to_dict(inst)) == inst

    def test_ksum_roundtrip(self):
        inst = SmallKSumInstance((-3, 0, 5), 2)
        assert ksum_from_dict(ksum_to_dict(inst)) == inst
        shifted = SmallKSumInstance((10, 12), 2, target=22, shifted=True)
        assert ksum_from_dict(ksum_to_dict(shifted)) == shifted
