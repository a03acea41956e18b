"""Cup tournaments: bracket DP, brute-force bribery search, JSON."""

from fractions import Fraction

import pytest

from champbribe import (
    CapExceededError,
    CupInstance,
    InstanceError,
    cup_win_probability,
    solve_cup_bruteforce,
)
from champbribe.core import vector
from champbribe.cup import (
    CUP_COMBO_CAP,
    bracket_distribution,
    choices_cost,
    cup_from_dict,
    cup_to_dict,
)
from champbribe.generators import gen_cup, split_rng


def F(*args):
    return Fraction(*args)


def single(p):
    return vector([(0, p)])


def all_pairs_cup(n, p="1/2", favorite=0, budget=0, threshold="1/4"):
    pairwise = {(i, j): single(p) for i in range(n) for j in range(i + 1, n)}
    return CupInstance(n, favorite, tuple(range(n)), pairwise, budget, F(threshold))


class TestInstance:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(InstanceError):
            all_pairs_cup(3)

    def test_rejects_bad_seeding(self):
        with pytest.raises(InstanceError):
            CupInstance(2, 0, (0, 0), {(0, 1): single("1/2")}, 0, F(1, 2))

    def test_rejects_double_stored_pair(self):
        pw = {(0, 1): single("1/2"), (1, 0): single("1/2")}
        with pytest.raises(InstanceError):
            CupInstance(2, 0, (0, 1), pw, 0, F(1, 2))


class TestBracket:
    def test_symmetric_four_players(self):
        inst = all_pairs_cup(4)
        dist = bracket_distribution(inst)
        assert dist == {i: F(1, 4) for i in range(4)}

    def test_dominant_player(self):
        # Every opponent loses to the favorite with probability 1.
        pw = {(i, 0): single("1") for i in range(1, 4)}
        pw[(1, 2)] = single("1/2")
        pw[(1, 3)] = single("1/2")
        pw[(2, 3)] = single("1/2")
        inst = CupInstance(4, 0, (0, 1, 2, 3), pw, 0, F(1))
        assert cup_win_probability(inst) == 1

    def test_distribution_sums_to_one(self):
        rng = split_rng(51, "cups")
        for idx in range(15):
            inst = gen_cup(51, rng.randint(1, 3), index=idx)
            choices = {
                pair: rng.randint(1, len(vec))
                for pair, vec in sorted(inst.pairwise.items())
            }
            assert sum(bracket_distribution(inst, choices).values()) == 1

    def test_missing_reachable_pair_raises(self):
        pw = {(0, 1): single("1/2")}  # pair (2, 3) missing
        inst = CupInstance(4, 0, (0, 1, 2, 3), pw, 0, F(1, 2))
        with pytest.raises(InstanceError):
            cup_win_probability(inst)

    def test_unreachable_pair_may_be_omitted(self):
        # Player 3 loses to 2 with probability 1, so (0, 3) never happens.
        pw = {
            (1, 0): single("1/2"),
            (3, 2): single("1"),
            (2, 0): single("1/4"),
            (1, 2): single("1/2"),
        }
        inst = CupInstance(4, 0, (0, 1, 2, 3), pw, 0, F(1, 2))
        assert cup_win_probability(inst) == F(1, 2) * F(1, 4)

    def test_seeding_respected(self):
        # Same vectors, swapped leaves: favorite's round-1 opponent changes.
        pw = {(1, 0): single("1"), (2, 0): single("0"), (1, 2): single("1/2"), (3,0): single("1/2"), (3,1): single("1/2"), (3,2): single("1/2")}
        a = CupInstance(4, 0, (0, 1, 2, 3), pw, 0, F(1, 2))
        b = CupInstance(4, 0, (0, 2, 1, 3), pw, 0, F(1, 2))
        assert cup_win_probability(a) != cup_win_probability(b)


class TestSolveCup:
    def test_two_leaf_example(self):
        pw = {(1, 0): vector([(0, "1/2"), (1, "1")])}
        inst = CupInstance(2, 0, (0, 1), pw, 1, F(1))
        r = solve_cup_bruteforce(inst)
        assert r.decision and r.best_probability == 1
        assert r.witness == {(1, 0): 2}

    def test_single_entry_vectors_have_one_combination(self):
        inst = all_pairs_cup(4, p="1/3")
        r = solve_cup_bruteforce(inst)
        assert r.witness == {pair: 1 for pair in inst.pairwise}
        assert r.best_probability == cup_win_probability(inst)

    def test_budget_excludes_expensive_choices(self):
        pw = {(1, 0): vector([(0, "1/2"), (5, "1")])}
        inst = CupInstance(2, 0, (0, 1), pw, 4, F(3, 4))
        r = solve_cup_bruteforce(inst)
        assert r.best_probability == F(1, 2) and not r.decision

    def test_no_affordable_combination(self):
        pw = {(1, 0): vector([(3, "1/2")])}
        inst = CupInstance(2, 0, (0, 1), pw, 2, F(1, 4))
        r = solve_cup_bruteforce(inst)
        assert r.best_probability is None and r.witness is None and not r.decision

    def test_cap(self):
        # 8 players, 28 pairs of two entries: 2**28 combinations, over
        # CUP_COMBO_CAP = 10**6.
        pw = {(i, j): vector([(0, "1/2"), (1, "1")]) for i in range(8) for j in range(i + 1, 8)}
        inst = CupInstance(8, 0, tuple(range(8)), pw, 3, F(1))
        message = f"{2**28} bribe combinations exceed the cap of {CUP_COMBO_CAP}"
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            solve_cup_bruteforce(inst)

    def test_choices_cost_counts_all_pairs(self):
        pw = {(1, 0): vector([(0, "1/2"), (2, "1")]), (2, 3): vector([(1, "1/2")])}
        inst = CupInstance(4, 0, (0, 1, 2, 3), pw, 9, F(1, 2))
        assert choices_cost(inst, {(1, 0): 2}) == 3  # 2 plus the forced 1


class TestJson:
    def test_roundtrip(self):
        rng = split_rng(53, "json")
        inst = gen_cup(53, 2)
        again = cup_from_dict(cup_to_dict(inst))
        assert again.num_players == inst.num_players
        assert again.seeding == inst.seeding
        assert again.pairwise == inst.pairwise
        assert again.threshold == inst.threshold

    def test_bad_record(self):
        with pytest.raises(InstanceError):
            cup_from_dict({"players": 2})
        with pytest.raises(InstanceError):
            cup_from_dict({**cup_to_dict(gen_cup(53, 2)), "budget": True})
        for pairwise in ([], "x", None):
            with pytest.raises(InstanceError):
                cup_from_dict({**cup_to_dict(gen_cup(53, 2)), "pairwise": pairwise})
        with pytest.raises(InstanceError):  # seeding length is checked before range(n)
            cup_from_dict({**cup_to_dict(gen_cup(53, 1)), "players": 2**40})
