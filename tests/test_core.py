"""Matroid representations: ranks, independence, validation."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minrank.core
from minrank import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    bit,
    elements_of,
    full_mask,
    mask_of,
    popcount,
    validate,
)
from minrank.instances import _matroid_to_spec
from conftest import crossed_pair, fraction_rank, small_zoo, triangle


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
    assert _matroid_to_spec(m) == {"kind": "linear-rational", "rows": [[str(want)]]}
    assert m.rank(bit(0)) == (want != 0)


# -- the linear elimination stack ----------------------------------------------

_ENTRIES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**30), max_value=10**30),
)


@st.composite
def stack_walk(draw):
    """A matrix with zero and scaled duplicate columns, and a walk of
    (move, value) steps over its column masks."""
    nr = draw(st.integers(min_value=1, max_value=4))
    nc = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    cols = st.integers(min_value=0, max_value=nc - 1)
    for c in draw(st.sets(cols, max_size=2)):
        for row in rows:
            row[c] = 0
    scales = st.sampled_from([-1, 2, 10**30])
    for src, dst, k in draw(st.lists(st.tuples(cols, cols, scales), max_size=2)):
        for row in rows:
            row[dst] = row[src] * k
    moves = st.sampled_from(["toggle", "drop-early", "jump", "repeat"])
    steps = draw(st.lists(st.tuples(moves, st.integers(min_value=0)), min_size=1, max_size=40))
    return rows, steps


@settings(max_examples=300, deadline=None)
@given(stack_walk())
def test_linear_rank_walk_matches_fraction_elimination(case):
    """One matroid answers a walk of masks: single-element toggles near the
    anchor, removals of one of the first two stacked elements, far jumps
    and repeats of an earlier mask. Every answer is the exact rank."""
    rows, steps = case
    m = LinearMatroid(rows)
    mask = 0
    asked = [0]
    for move, value in steps:
        if move == "toggle":
            mask ^= bit(value % m.n)
        elif move == "drop-early" and m._stack:
            mask &= ~bit(m._stack[value % min(2, len(m._stack))][0])
        elif move == "jump":
            mask = value & full_mask(m.n)
        elif move == "repeat":
            mask = asked[value % len(asked)]
        asked.append(mask)
        cols = elements_of(mask)
        assert m.rank(mask) == fraction_rank([[Fraction(row[c]) for c in cols] for row in rows])


def test_linear_rank_adds_one_column_to_an_independent_anchor(monkeypatch):
    """After rank(I) on an independent I, rank(I + x) reduces only x's
    column, whether I + x is independent or not."""
    reduce = minrank.core._reduce
    reduced = []

    def spy(column, rows):
        reduced.append(column)
        return reduce(column, rows)

    monkeypatch.setattr(minrank.core, "_reduce", spy)
    m = LinearMatroid([[1, 0, 0, 1, 2, 1, 0], [0, 1, 0, 1, 3, 1, 0], [0, 0, 1, 1, 5, 0, 0]])
    anchor = mask_of((0, 2))
    assert m.rank(anchor) == 2
    for x in (1, 3, 4, 5, 6):
        reduced.clear()
        m.rank(anchor | bit(x))
        assert len(reduced) == 1
    # Dropping the first stacked element re-reduces what was stacked after it.
    reduced.clear()
    assert m.rank(mask_of((2, 5))) == 2
    assert len(reduced) == 2


def test_explicit_from_family():
    u = UniformMatroid(1, 3)
    fam = [m for m in range(8) if u.is_independent(m)]
    e = ExplicitMatroid(3, fam)
    for mask in range(8):
        assert e.rank(mask) == u.rank(mask)


def test_explicit_bases_are_the_largest_maximal_members():
    """The bases are the largest members, which are exactly the maximal
    members of the largest size, for matroid and non-matroid families."""
    families = [
        (m.n, [X for X in range(1 << m.n) if m.is_independent(X)]) for m in small_zoo()
    ]
    families.append((4, [0, 1, 2, 3, 4, 8, 12]))  # not a matroid
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 10)
        families.append((n, rng.sample(range(1 << n), rng.randint(1, min(40, 1 << n)))))
    for n, family in families:
        fam = set(family) | {0}
        maximal = [f for f in fam if not any(g != f and g & f == f for g in fam)]
        top = max(map(popcount, maximal))
        want = tuple(sorted(f for f in maximal if popcount(f) == top))
        e = ExplicitMatroid(n, family)
        assert e.bases == want
        for X in rng.sample(range(1 << n), min(16, 1 << n)):
            assert e.rank(X) == max(popcount(X & b) for b in want)


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


def test_constructors_refuse_malformed_input():
    with pytest.raises(ValueError, match="nonnegative"):
        UniformMatroid(-1, 3)
    for blocks, caps, message in (
        ([mask_of((0, 1)), mask_of((2, 3))], [1], "one capacity per block"),
        ([mask_of((0, 1)), mask_of((1, 2, 3))], [1, 1], "overlap"),
        ([mask_of((0, 1)), bit(2)], [1, 1], "cover every element"),
        ([mask_of((0, 1)), mask_of((2, 3))], [1, -1], "nonnegative"),
    ):
        with pytest.raises(ValueError, match=message):
            PartitionMatroid(4, blocks, caps)
    with pytest.raises(ValueError, match="outside vertex range"):
        GraphicMatroid(3, ((0, 1), (1, 3)))
    with pytest.raises(ValueError, match="ragged"):
        LinearMatroid([[1, 0, 1], [0, 1]])
    for entry in (True, 0.5):
        with pytest.raises(ValueError, match="not an exact rational"):
            LinearMatroid([[1, entry]])
    for family in ([bit(0), bit(1), bit(5)], [bit(0), -1]):
        with pytest.raises(ValueError, match="outside"):
            ExplicitMatroid(2, family)


class _Broken(Matroid):
    """A rank function that breaks one axiom."""

    kind = "broken"

    def __init__(self, n, rank):
        super().__init__(n)
        self._rank = rank


@pytest.mark.parametrize(
    "rank, axiom",
    [
        (lambda X: 1, "empty-rank"),
        (lambda X: 2 * popcount(X), "unit-monotone"),
        (lambda X: max(popcount(X) - 1, 0), "submodular"),
    ],
)
@pytest.mark.parametrize("n", [4, 14])
def test_validate_reports_each_broken_axiom(rank, axiom, n):
    """Exhaustive checks at n <= 12 and sampled ones above both catch each
    broken axiom, and name it."""
    report = validate(_Broken(n, rank))
    assert not report.ok and report.axiom == axiom
    assert str(report).startswith(f"violation: {axiom} (")


def test_validate_samples_above_twelve_elements():
    assert validate(UniformMatroid(3, 14)).ok
    assert validate(PartitionMatroid(14, [full_mask(7), full_mask(14) & ~full_mask(7)], [2, 3])).ok


def test_graphic_edge_list_params():
    m = GraphicMatroid(3, ((0, 1), (1, 2)))
    assert m.rank(full_mask(2)) == 2
    assert m.kind == "graphic"
    assert _matroid_to_spec(m)["num_vertices"] == 3


def test_graphic_rank_spans_only_the_endpoints():
    """A rank query's union-find runs over the edges' endpoints, not every
    declared vertex: far-apart labels rank like the triangle, and one rank
    at 10**6 declared vertices peaks under 64 KiB."""
    m = GraphicMatroid(10**6, ((999_999, 7), (7, 500_000), (999_999, 500_000)))
    assert [m.rank(x) for x in range(8)] == [triangle().rank(x) for x in range(8)]
    tracemalloc.start()
    try:
        m.rank(full_mask(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
