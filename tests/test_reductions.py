"""The reduction chain: transformers, caps and decision preservation."""

import dataclasses
import re
from fractions import Fraction

import pytest

from champbribe import (
    BribeEntry,
    BribePlan,
    BribeVector,
    CapExceededError,
    CbcctInstance,
    MpkInstance,
    PkpItem,
    ReductionError,
    SmallKSumInstance,
    cbcct_to_cup,
    cup_win_probability,
    evaluate_plan,
    ksum_to_pkp,
    mpk_to_cbcct,
    shift_ksum,
    solve_bruteforce,
    solve_cup_bruteforce,
    solve_mpk_bruteforce,
    solve_pkp_bruteforce,
    solve_small_ksum_bruteforce,
    verify,
)
from champbribe.core import vector
from champbribe.cup import CUP_PAIRS_CAP, bracket_distribution
from champbribe.generators import gen_pkp
from champbribe.reductions import (
    SHIFT_BITS_CAP,
    chain_preconditions_met,
    cup_choices_from_plan,
    pkp_to_mpk,
)


def F(*args):
    return Fraction(*args)


class TestShiftKsum:
    def test_worked_example(self):
        out = shift_ksum(SmallKSumInstance((-1, 1, 2), 2))
        assert out.numbers == (242, 244, 245)
        assert out.target == 486 and out.shifted

    def test_single_number(self):
        out = shift_ksum(SmallKSumInstance((0,), 1))
        assert out.numbers == (3,) and out.target == 3

    def test_decision_preserved(self):
        for numbers, k in [((-1, 1, 2), 2), ((1, 2, 4), 2), ((-2, -1, 3), 3)]:
            src = SmallKSumInstance(numbers, k)
            dst = shift_ksum(src)
            assert (
                solve_small_ksum_bruteforce(src).decision
                == solve_small_ksum_bruteforce(dst).decision
            )

    def test_rejects_already_shifted(self):
        with pytest.raises(ReductionError):
            shift_ksum(shift_ksum(SmallKSumInstance((0,), 1)))

    def test_rejects_nonzero_target(self):
        with pytest.raises(ReductionError):
            shift_ksum(SmallKSumInstance((0, 1), 1, target=1))

    def test_bit_cap(self):
        # The shift for n = 3 has about 1.58 k^2 bits: 65 315 at k = 203 and
        # 65 960 at k = 204, on either side of the 65 536-bit cap.
        assert SHIFT_BITS_CAP == 1 << 16
        assert shift_ksum(SmallKSumInstance((0, 1, -1), 203)).shifted
        with pytest.raises(CapExceededError):
            shift_ksum(SmallKSumInstance((0, 1, -1), 204))
        with pytest.raises(CapExceededError):
            shift_ksum(SmallKSumInstance((1, 2, 3), 10**9))

    def test_chain_preconditions(self):
        assert not chain_preconditions_met(SmallKSumInstance((), 4))
        assert not chain_preconditions_met(SmallKSumInstance((0, 1, 2), 3))
        assert chain_preconditions_met(SmallKSumInstance((0,), 4))
        assert chain_preconditions_met(SmallKSumInstance((1, 2, 3), 10**9))


class TestKsumToPkp:
    def test_profit_formula(self):
        pkp = ksum_to_pkp(shift_ksum(SmallKSumInstance((-1, 1, 2), 2)))
        assert pkp.items[0].weight == 242
        assert pkp.items[0].profit == F(236196, 235954)  # T^2/(T^2 - 242), T = 486
        assert pkp.capacity == 486
        assert pkp.target == F(472392, 471421)  # (1 - 1/T + 1/(2T^2))^-1

    def test_requires_shifted(self):
        with pytest.raises(ReductionError):
            ksum_to_pkp(SmallKSumInstance((-1, 1, 2), 2))

    def test_at_most_k_items_fit(self):
        src = shift_ksum(SmallKSumInstance((-3, 0, 1, 2, -1), 2))
        pkp = ksum_to_pkp(src)
        weights = sorted(item.weight for item in pkp.items)
        assert sum(weights[: src.k + 1]) > pkp.capacity

    def test_decision_preserved_on_samples(self):
        for numbers, k in [((-1, 1, 2), 2), ((1, 2, 4), 2), ((0, 0), 2), ((-2, 1, 1), 3)]:
            src = SmallKSumInstance(numbers, k)
            shifted = shift_ksum(src)
            assert (
                solve_small_ksum_bruteforce(shifted).decision
                == solve_pkp_bruteforce(ksum_to_pkp(shifted)).decision
            )

    def test_preconditions_flag(self):
        assert not chain_preconditions_met(SmallKSumInstance((-1, 1, 2), 2))
        big = SmallKSumInstance(tuple([0] * 5), 4)
        assert chain_preconditions_met(big)


class TestPkpToMpk:
    def test_decision_preserved_on_seeded_instances(self):
        decisions = set()
        for idx in range(40):
            src = gen_pkp(61, 1 + idx % 6, index=idx)
            decision = solve_pkp_bruteforce(src).decision
            assert solve_mpk_bruteforce(pkp_to_mpk(src)).decision == decision, idx
            decisions.add(decision)
        assert decisions == {True, False}


class TestMpkToCbcct:
    def _example(self, target="1/3"):
        items = (
            PkpItem(1, F(1, 2)),
            PkpItem(3, F(3, 4)),
            PkpItem(0, F(1, 3)),
            PkpItem(2, F(2, 3)),
        )
        return MpkInstance(items, ((0, 1), (2, 3)), 3, F(target))

    def test_worked_example(self):
        out = mpk_to_cbcct(self._example())
        assert out.bribe_vectors[0] == vector([(1, "1/2"), (3, "3/4")])
        assert out.bribe_vectors[1] == vector([(0, "1/3"), (2, "2/3")])
        assert out.budget == 3 and out.threshold == F(1, 3)
        assert solve_mpk_bruteforce(self._example()).decision
        assert solve_bruteforce(out).decision

    def test_no_instance_preserved(self):
        inst = self._example("1/2")
        assert not solve_mpk_bruteforce(inst).decision
        assert not solve_bruteforce(mpk_to_cbcct(inst)).decision

    def test_single_free_item(self):
        inst = MpkInstance((PkpItem(0, F(1)),), ((0,),), 1, F(1))
        out = mpk_to_cbcct(inst)
        assert solve_bruteforce(out).decision

    def test_duplicate_weight_keeps_max_profit(self):
        inst = MpkInstance(
            (PkpItem(1, F(1, 2)), PkpItem(1, F(3, 4))), ((0, 1),), 2, F(1, 2)
        )
        out = mpk_to_cbcct(inst)
        assert out.bribe_vectors[0] == vector([(1, "3/4")])

    def test_exact_duplicate_rejected(self):
        inst = MpkInstance(
            (PkpItem(1, F(1, 2)), PkpItem(1, F(1, 2))), ((0, 1),), 2, F(1, 2)
        )
        with pytest.raises(ReductionError):
            mpk_to_cbcct(inst)

    def test_profit_above_one_rejected(self):
        inst = MpkInstance((PkpItem(1, F(3, 2)),), ((0,),), 2, F(1, 2))
        with pytest.raises(ReductionError):
            mpk_to_cbcct(inst)

    def test_target_above_one_rejected(self):
        inst = MpkInstance((PkpItem(1, F(1, 2)),), ((0,),), 2, F(3, 2))
        with pytest.raises(ReductionError):
            mpk_to_cbcct(inst)

    def test_infeasible_maps_to_infeasible(self):
        inst = MpkInstance((PkpItem(5, F(1, 2)),), ((0,),), 3, F(1, 4))
        out = mpk_to_cbcct(inst)
        assert not solve_mpk_bruteforce(inst).decision
        assert not solve_bruteforce(out).decision


def two_challenger_instance(budget=1, threshold="1/3"):
    return CbcctInstance(
        (vector([(0, "1/2"), (1, "1")]), vector([(0, "1/3"), (2, "2/3")])),
        budget,
        F(threshold),
    )


class TestCbcctToCup:
    def test_two_challengers_structure(self):
        cup = cbcct_to_cup(two_challenger_instance())
        assert cup.num_players == 4
        assert cup.seeding[0] == 0  # favorite at position 1
        assert cup.seeding[1] == 1  # main player 1 at position 2
        assert cup.seeding[2] == 2  # main player 2 at position 3
        assert cup.budget == 1 and cup.threshold == F(1, 3)
        assert (1, 0) in cup.pairwise and (2, 0) in cup.pairwise
        multi = [p for p, v in cup.pairwise.items() if len(v) > 1]
        assert set(multi) == {(1, 0), (2, 0)}
        for pair, vec in cup.pairwise.items():
            if pair not in ((1, 0), (2, 0)):
                assert len(vec) == 1 and vec.entries[0].bribe == 0

    def test_three_challengers_positions(self):
        inst = CbcctInstance(
            (vector([(0, "1/2")]),) * 3,
            0,
            F(1, 8),
        )
        cup = cbcct_to_cup(inst)
        assert cup.num_players == 8
        assert cup.seeding[4] == 3  # main player 3 at position 5
        dummies = [p for p in cup.seeding if p > 3]
        assert len(dummies) == 4

    def test_single_challenger(self):
        cup = cbcct_to_cup(CbcctInstance((vector([(0, "1/2")]),), 0, F(1, 2)))
        assert cup.num_players == 2
        assert solve_cup_bruteforce(cup).best_probability == F(1, 2)

    def test_rejects_empty(self):
        with pytest.raises(ReductionError):
            cbcct_to_cup(CbcctInstance((), 0, F(1)))

    def test_pairs_cap(self):
        # Nine challengers store 43 480 vectors, within the cap; ten would
        # store 174 306, which is refused before anything is built.
        one = vector([(0, "1/2")])
        cup = cbcct_to_cup(CbcctInstance((one,) * 9, 0, F(1, 2)))
        assert len(cup.pairwise) == 43480 <= CUP_PAIRS_CAP
        with pytest.raises(CapExceededError):
            cbcct_to_cup(CbcctInstance((one,) * 10, 0, F(1, 2)))

    def test_main_player_meets_favorite_each_round(self):
        # With the favorite forced to win (opponents' losing probability 1),
        # the favorite must reach every round, meeting each main player with
        # probability 1; so its win probability is exactly 1.
        inst = CbcctInstance((vector([(0, "1")]),) * 3, 0, F(1))
        cup = cbcct_to_cup(inst)
        assert cup_win_probability(cup) == 1

    def test_round_opponent_subtree_won_by_main_player(self):
        # The favorite's round-i opponent comes from leaf positions
        # [2^(i-1), 2^i); main player i must win that subtree outright.
        from champbribe import CupInstance

        inst = CbcctInstance((vector([(0, "1/2"), (2, "3/4")]),) * 3, 4, F(1, 8))
        cup = cbcct_to_cup(inst)
        for i in (2, 3):
            lo, hi = 1 << (i - 1), 1 << i
            leaves = cup.seeding[lo:hi]
            renumber = {old: new for new, old in enumerate(leaves)}
            sub = CupInstance(
                hi - lo,
                renumber[i],
                tuple(range(hi - lo)),
                {
                    (renumber[a], renumber[b]): vec
                    for (a, b), vec in cup.pairwise.items()
                    if a in renumber and b in renumber
                },
                0,
                F(1),
            )
            dist = bracket_distribution(sub)
            assert dist[renumber[i]] == 1

    def test_decision_preserved(self):
        for budget, threshold in [(1, "1/3"), (2, "1/2"), (0, "1")]:
            inst = two_challenger_instance(budget, threshold)
            assert (
                solve_bruteforce(inst).decision
                == solve_cup_bruteforce(cbcct_to_cup(inst)).decision
            )

    def test_per_plan_probability_equality(self):
        from itertools import product

        inst = two_challenger_instance()
        cup = cbcct_to_cup(inst)
        for choices in product(*(range(1, len(v) + 1) for v in inst.bribe_vectors)):
            plan = BribePlan(choices)
            assert (
                cup_win_probability(cup, cup_choices_from_plan(plan))
                == evaluate_plan(inst, plan).win_probability
            )

    def test_bracket_normalizes_on_image(self):
        cup = cbcct_to_cup(two_challenger_instance())
        assert sum(bracket_distribution(cup).values()) == 1


class TestChainSuites:
    """The chain suites report a corrupted transformer."""

    def test_mpk_chain_catches_a_lowered_budget(self, monkeypatch):
        reduce = verify.mpk_to_cbcct

        def lowered(inst):
            image = reduce(inst)
            return dataclasses.replace(image, budget=image.budget - 1)

        monkeypatch.setattr(verify, "mpk_to_cbcct", lowered)
        report = verify.suite_mpk_chain()
        assert not report.passed
        # The decisions agree but only one side has an affordable plan: a
        # mismatch that comparing decisions alone would miss.
        pattern = re.compile(r"knapsack says (\w+) at (\S+), tournament says (\w+) at (\S+)$")
        found = [m.groups() for m in map(pattern.search, report.failures) if m]
        assert any(a == c and (b == "None") != (d == "None") for a, b, c, d in found)

    def test_cup_chain_catches_halved_probabilities(self, monkeypatch):
        reduce = verify.cbcct_to_cup

        def halved(inst):
            image = reduce(inst)
            first = image.pairwise[(1, 0)]
            half = BribeVector(
                tuple(BribeEntry(e.bribe, e.losing_probability / 2) for e in first.entries)
            )
            return dataclasses.replace(image, pairwise={**image.pairwise, (1, 0): half})

        monkeypatch.setattr(verify, "cbcct_to_cup", halved)
        report = verify.suite_cup_chain()
        assert not report.passed
        assert any(" plan (" in f for f in report.failures)
