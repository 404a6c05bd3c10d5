"""Matroid representations: ranks, independence, validation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from minrank import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    PartitionMatroid,
    UniformMatroid,
    bit,
    full_mask,
    mask_of,
    popcount,
    validate,
)
from conftest import crossed_pair, small_zoo, triangle


def test_uniform_rank():
    m = UniformMatroid(2, 4)
    assert m.rank(mask_of((0, 1, 2))) == 2
    assert m.rank(0) == 0
    assert m.rank(bit(3)) == 1
    assert m.rank(full_mask(4)) == 2


def test_graphic_triangle_rank():
    m = triangle()
    assert m.rank(full_mask(3)) == 2
    assert m.rank(0) == 0
    assert m.rank(mask_of((0, 1))) == 2
    assert m.is_independent(mask_of((0, 1)))
    assert not m.is_independent(full_mask(3))


def test_partition_independence():
    m1, _ = crossed_pair()
    assert m1.is_independent(mask_of((0, 3)))
    assert not m1.is_independent(mask_of((0, 1)))
    assert m1.is_independent(0)


def test_linear_rational_exact():
    m = LinearMatroid([["1/2", 1, 0], [0, "1/3", 0]])
    assert m.rank(mask_of((0, 1))) == 2
    assert m.rank(bit(2)) == 0  # zero column is a loop
    big = LinearMatroid([[10**30, 1], [0, Fraction(1, 10**30)]])
    assert big.rank(full_mask(2)) == 2


@pytest.mark.parametrize(
    "text", ["3", " -3 ", "+4", "1_000", "\u0663", "3.0", "1/2", "0x1", ""]
)
def test_linear_string_entry_reads_as_fraction(text):
    """Integer strings skip the Fraction parser; the value, and the error
    for a string Fraction rejects, stay Fraction's."""
    try:
        want = Fraction(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            LinearMatroid([[text]])
        assert str(info.value) == str(exc)
        return
    m = LinearMatroid([[text]])
    assert m.matrix[0][0] == want
    assert m.params() == {"rows": [[str(want)]]}
    assert m.rank(bit(0)) == (want != 0)


def test_explicit_from_family():
    u = UniformMatroid(1, 3)
    fam = [m for m in range(8) if u.is_independent(m)]
    e = ExplicitMatroid(3, fam)
    for mask in range(8):
        assert e.rank(mask) == u.rank(mask)


def test_rank_axioms_exhaustive():
    for m in small_zoo():
        n = m.n
        assert m.rank(0) == 0
        for X in range(1 << n):
            rX = m.rank(X)
            assert 0 <= rX <= popcount(X)
            for e in range(n):
                if (X >> e) & 1:
                    continue
                rXe = m.rank(X | bit(e))
                assert rX <= rXe <= rX + 1


def test_submodularity_exhaustive_small():
    for m in small_zoo():
        if m.n > 4:
            continue
        for X in range(1 << m.n):
            for Y in range(1 << m.n):
                assert m.rank(X) + m.rank(Y) >= m.rank(X | Y) + m.rank(X & Y)


def test_validate_accepts_good():
    for m in small_zoo():
        assert validate(m).ok


def test_validate_rejects_loop():
    report = validate(ExplicitMatroid(3, [0, bit(0), bit(1)]))
    assert not report.ok
    assert "loop" in (report.axiom or "") or "loop" in report.detail


def test_validate_rejects_not_downward_closed():
    report = validate(ExplicitMatroid(2, [0, mask_of((0, 1))]))
    assert not report.ok


def test_validate_rejects_exchange_failure():
    # {0,1} and {2} maximal of different sizes: exchange axiom fails.
    fam = [0, bit(0), bit(1), bit(2), mask_of((0, 1))]
    report = validate(ExplicitMatroid(3, fam))
    assert not report.ok


def test_linear_matches_partition_fixture():
    """Paired encodings of the same matroid rank identically."""
    m1, _ = crossed_pair()
    # block {0,1} cap 1 -> identical columns; block {2,3} cap 1 likewise
    lin = LinearMatroid([[1, 1, 0, 0], [0, 0, 1, 1]])
    for X in range(16):
        assert m1.rank(X) == lin.rank(X)


def test_ground_set_bounds():
    with pytest.raises(ValueError):
        UniformMatroid(1, 65)
    m = UniformMatroid(2, 4)
    with pytest.raises(ValueError):
        m.rank(bit(10))


def test_graphic_edge_list_params():
    m = GraphicMatroid(3, ((0, 1), (1, 2)))
    assert m.rank(full_mask(2)) == 2
    assert m.kind == "graphic"
    assert m.params()["num_vertices"] == 3
