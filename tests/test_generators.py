"""Seeded generators: determinism, pool bounds, planted instances."""

import json
from fractions import Fraction

import pytest

from champbribe import InstanceError, solve_bruteforce, solve_small_ksum_bruteforce
from champbribe.core import instance_to_dict, normalize_bribe_vector
from champbribe.generators import (
    gen_cbcct,
    gen_cup,
    gen_ksum,
    gen_mpk,
    gen_pkp,
    make_nonmonotone,
    split_rng,
)
from champbribe.knapsack import solve_mpk_bruteforce


def F(*args):
    return Fraction(*args)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = gen_cbcct(1, 3, 3, 10)
        b = gen_cbcct(1, 3, 3, 10)
        assert json.dumps(instance_to_dict(a), sort_keys=True) == json.dumps(
            instance_to_dict(b), sort_keys=True
        )

    def test_index_splits_stream(self):
        a = gen_cbcct(1, 3, 3, 10, index=0)
        b = gen_cbcct(1, 3, 3, 10, index=1)
        assert a != b

    def test_split_rng_stable(self):
        assert split_rng(5, "x").random() == split_rng(5, "x").random()
        assert split_rng(5, "x").random() != split_rng(5, "y").random()


class TestCbcct:
    def test_value_pool_bounds_distinct_bribes(self):
        inst = gen_cbcct(3, 6, 2, 10, value_pool=(0, 4), prob_pool=(F(1, 2), F(1)))
        values = {e.bribe for v in inst.bribe_vectors for e in v.entries}
        assert values <= {0, 4}

    def test_vectors_are_normalized_by_default(self):
        inst = gen_cbcct(4, 8, 3, 10)
        assert all(v.monotone for v in inst.bribe_vectors)

    def test_raw_vectors_can_be_non_monotone(self):
        insts = [
            gen_cbcct(5, 6, 3, 10, normalize=False, index=i) for i in range(10)
        ]
        assert any(
            not v.monotone for inst in insts for v in inst.bribe_vectors
        )

    def test_canonical_vectors_start_free(self):
        inst = gen_cbcct(6, 8, 3, 10, canonical=True)
        assert all(v.canonical_first_zero for v in inst.bribe_vectors)

    def test_equal_draws_share_one_vector(self):
        # Raw draws share one object exactly when their values are equal;
        # normalized ones may also equal a draw of another key.
        raw = gen_cbcct(16, 300, 2, 10, (0, 1, 2), normalize=False)
        assert len(set(map(id, raw.bribe_vectors))) == len(set(raw.bribe_vectors)) < 300
        inst = gen_cbcct(16, 300, 2, 10, (0, 1, 2))
        assert len(set(map(id, inst.bribe_vectors))) < 300
        assert inst.bribe_vectors == tuple(map(normalize_bribe_vector, raw.bribe_vectors))

    def test_lmax_must_fit_pool(self):
        with pytest.raises(InstanceError):
            gen_cbcct(1, 2, 4, 10, value_pool=(0, 1, 2))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"value_pool": ()}, "nonempty"),
            ({"value_pool": (1, 2, 3), "canonical": True}, "need 0"),
            ({"prob_pool": (F(1, 2), F(3, 2))}, r"\[0, 1\]"),
        ],
    )
    def test_pool_refusals(self, kwargs, message):
        with pytest.raises(InstanceError, match=message):
            gen_cbcct(1, 2, 2, 10, **kwargs)

    def test_yes_rate_regression_band(self):
        # Measured once by brute force and pinned: the threshold policy keeps
        # the yes-rate in a useful band.
        yes = 0
        for idx in range(200):
            rng = split_rng(0, "band", idx)
            inst = gen_cbcct(0, rng.randint(0, 6), 3, rng.randint(0, 20), index=idx)
            yes += solve_bruteforce(inst).decision
        assert 0.40 <= yes / 200 <= 0.60

    def test_make_nonmonotone(self):
        inst = gen_cbcct(7, 4, 3, 10)
        twisted = make_nonmonotone(inst)
        if any(len(v) >= 2 for v in inst.bribe_vectors):
            assert any(not v.monotone for v in twisted.bribe_vectors)


class TestKsum:
    def test_range_invariant(self):
        inst = gen_ksum(8, 6, 2)
        bound = 6**4
        assert all(abs(s) <= bound for s in inst.numbers)

    def test_magnitude_override(self):
        inst = gen_ksum(9, 6, 2, magnitude=3)
        assert all(abs(s) <= 3 for s in inst.numbers)

    def test_magnitude_cannot_exceed_invariant(self):
        with pytest.raises(InstanceError):
            gen_ksum(9, 2, 1, magnitude=100)

    def test_planted_is_yes(self):
        for idx in range(10):
            inst = gen_ksum(10, 6, 3, magnitude=5, planted=True, index=idx)
            assert solve_small_ksum_bruteforce(inst).decision


class TestMpk:
    def test_partition_and_profits(self):
        inst = gen_mpk(11, (2, 3, 1))
        assert inst.num_classes == 3
        assert [len(c) for c in inst.classes] == [2, 3, 1]
        assert all(0 < it.profit <= 1 for it in inst.items)

    def test_planted_is_yes(self):
        for idx in range(10):
            inst = gen_mpk(12, (2, 2), planted=True, index=idx)
            assert solve_mpk_bruteforce(inst).decision

    def test_weights_unique_within_class(self):
        inst = gen_mpk(13, (3, 3))
        for cls in inst.classes:
            weights = [inst.items[i].weight for i in cls]
            assert len(weights) == len(set(weights))


class TestOthers:
    def test_pkp_valid(self):
        inst = gen_pkp(14, 6)
        assert len(inst.items) == 6 and inst.capacity >= 1

    def test_cup_valid(self):
        inst = gen_cup(15, 3)
        assert inst.num_players == 8
        assert sorted(inst.seeding) == list(range(8))
        assert len(inst.pairwise) == 28
        assert len(set(map(id, inst.pairwise.values()))) < 28  # equal draws share
