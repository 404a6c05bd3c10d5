"""The minimum-rank oracle: values, ledger, restriction."""

from __future__ import annotations

import random

import pytest

from minrank import (
    MinRankOracle,
    RestrictedOracle,
    UniformMatroid,
    bit,
    full_mask,
    mask_of,
    popcount,
)
from conftest import crossed_pair, small_zoo, triangle


def test_rmin_is_pointwise_min():
    o = MinRankOracle(UniformMatroid(1, 3), UniformMatroid(2, 3))
    assert o.rmin(mask_of((0, 1))) == 1
    assert o.rmin(0) == 0


def test_rmin_crossed_fixture():
    o = MinRankOracle(*crossed_pair())
    assert o.rmin(mask_of((0, 3))) == 2


def test_is_common_independent():
    o = MinRankOracle(*crossed_pair())
    assert o.rmin(mask_of((0, 3))) == popcount(mask_of((0, 3)))
    assert o.rmin(mask_of((0, 1))) != popcount(mask_of((0, 1)))
    assert o.rmin(0) == popcount(0)


def test_query_ledger():
    o = MinRankOracle(*crossed_pair())
    assert o.query_count == 0
    o.rmin(bit(0))
    assert o.query_count == 1
    for _ in range(4):
        o.rmin(bit(1))
    assert o.query_count == 5


def test_rmin_monotone_exhaustive():
    zoo = small_zoo()
    for m1 in zoo[:4]:
        for m2 in zoo[:4]:
            if m1.n != m2.n:
                continue
            o = MinRankOracle(m1, m2)
            n = m1.n
            for X in range(1 << n):
                rX = o.rmin(X)
                for e in range(n):
                    if not (X >> e) & 1:
                        assert rX <= o.rmin(X | bit(e))


def test_one_third_submodularity_sampled():
    """Among any three subsets, at least two attain the min in the same
    matroid, so at least one pairwise submodular inequality holds."""
    rng = random.Random(7)
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    for _ in range(300):
        sets = [rng.randrange(16) for _ in range(3)]
        ok = False
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                X, Y = sets[i], sets[j]
                if o.rmin(X) + o.rmin(Y) >= o.rmin(X | Y) + o.rmin(X & Y):
                    ok = True
        assert ok


def test_out_of_range_rejected():
    o = MinRankOracle(*crossed_pair())
    with pytest.raises(ValueError):
        o.rmin(bit(10))


def test_restricted_oracle():
    o = MinRankOracle(*crossed_pair())
    r = RestrictedOracle(o, mask_of((0, 1, 2)))
    assert r.ground == mask_of((0, 1, 2))
    assert r.rmin(mask_of((0, 2))) == o.rmin(mask_of((0, 2)))
    with pytest.raises(ValueError):
        r.rmin(bit(3))


def test_restricted_oracle_refuses_a_larger_ground_set():
    o = MinRankOracle(triangle(), UniformMatroid(2, 3))
    with pytest.raises(ValueError, match="exceeds"):
        RestrictedOracle(o, bit(3))
    r = RestrictedOracle(o, mask_of((0, 1)))
    assert r.rmin(mask_of((0, 1))) == popcount(mask_of((0, 1)))
    assert RestrictedOracle(o, full_mask(3)).rmin(full_mask(3)) != popcount(full_mask(3))
    assert o.query_count == 2


def test_restricted_oracle_shares_ledger():
    o = MinRankOracle(*crossed_pair())
    r = RestrictedOracle(o, mask_of((0, 1)))
    r.rmin(bit(0))
    assert o.query_count == 1
    assert r.query_count == 1


def test_mismatched_ground_sets_rejected():
    with pytest.raises(ValueError):
        MinRankOracle(UniformMatroid(1, 3), UniformMatroid(1, 4))


def test_full_mask_query():
    o = MinRankOracle(triangle(), UniformMatroid(2, 3))
    assert o.rmin(full_mask(3)) == 2
