"""Randomized invariant checks over generated inputs."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from minrank import (
    GraphicMatroid,
    LinearMatroid,
    MinRankOracle,
    PartitionMatroid,
    bit,
    dumps,
    elements_of,
    format_set,
    full_mask,
    iter_bits,
    loads,
    mask_of,
    popcount,
    random_instance,
)
from minrank.consistency import TwoSat, solve_2sat

from conftest import fraction_rank

# -- bitsets -----------------------------------------------------------------


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_bitset_round_trip(mask):
    xs = elements_of(mask)
    assert xs == sorted(xs)
    assert mask_of(xs) == mask
    assert list(iter_bits(mask)) == xs
    assert popcount(mask) == len(xs)
    assert format_set(mask) == "{" + ",".join(str(x) for x in xs) + "}"


@given(st.lists(st.integers(min_value=0, max_value=63), max_size=12))
def test_mask_of_ignores_duplicates_and_order(xs):
    assert mask_of(xs) == mask_of(sorted(set(xs)))
    for x in xs:
        assert mask_of(xs) & bit(x)


# -- the joint rank function --------------------------------------------------


@st.composite
def oracle_and_masks(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    inst = random_instance(seed, n)
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    extra = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return MinRankOracle(inst.matroid1, inst.matroid2), a, a | extra


@settings(max_examples=60, deadline=None)
@given(oracle_and_masks())
def test_joint_rank_monotone_and_subcardinal(data):
    o, a, b = data
    ra, rb = o.rmin(a), o.rmin(b)
    assert 0 <= ra <= popcount(a)
    assert ra <= rb <= ra + popcount(b & ~a)
    assert o.rmin(0) == 0
    assert o.is_common_independent(a) == (ra == popcount(a))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=8),
    st.booleans(),
)
def test_instance_serialization_round_trip(seed, n, weighted):
    inst = random_instance(seed, n, weighted=weighted)
    text = dumps(inst)
    assert dumps(loads(text)) == text


# -- rank kernels against references ----------------------------------------

_MASKS = st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=20)


@st.composite
def partition_case(draw):
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=64)
    )
    blocks = [mask_of(e for e, b in enumerate(labels) if b == i) for i in range(6)]
    caps = draw(st.lists(st.integers(min_value=0, max_value=7), min_size=6, max_size=6))
    return PartitionMatroid(len(labels), blocks, caps), draw(_MASKS)


@settings(max_examples=200, deadline=None)
@given(partition_case())
@example((PartitionMatroid(5, (0b00011, 0b11100), (0, 3)), [0b11111, 0b10101, 0b00010]))
def test_partition_rank_matches_sum_of_min(case):
    m, masks = case
    for mask in masks:
        mask &= full_mask(m.n)
        want = sum(min(popcount(mask & b), c) for b, c in zip(m.blocks, m.capacities))
        assert m.rank(mask) == want


def _forest_size(m: GraphicMatroid, mask: int) -> int:
    parent = list(range(m.num_vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    merges = 0
    for e in iter_bits(mask):
        u, v = m.edges[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    return merges


@st.composite
def graphic_case(draw):
    v = draw(st.integers(min_value=1, max_value=10))
    vertex = st.integers(min_value=0, max_value=v - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=64))
    return GraphicMatroid(v, edges), draw(_MASKS)


@settings(max_examples=200, deadline=None)
@given(graphic_case())
@example(
    (GraphicMatroid(5, ((0, 1), (1, 0), (1, 2), (0, 2), (0, 1))), [0b11111, 0b10011])
)
def test_graphic_rank_matches_union_find(case):
    m, masks = case
    for mask in masks:
        mask &= full_mask(m.n)
        assert m.rank(mask) == _forest_size(m, mask)


_ENTRIES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.sampled_from((10**30, -(10**30), Fraction(1, 10**30), Fraction(7, 3 * 10**30))),
)


def _matrices(h: int, w: int):
    row = st.lists(_ENTRIES, min_size=w, max_size=w)
    return st.lists(row, min_size=h, max_size=h)


@st.composite
def linear_case(draw):
    """A product of an nr x k and a k x nc matrix, so the rank is at most k
    and dependent column sets are common; some columns are then zeroed."""
    nr = draw(st.integers(min_value=1, max_value=5))
    nc = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=nr))
    left = draw(_matrices(nr, k))
    right = draw(_matrices(k, nc))
    rows = [
        [sum(a * right[i][c] for i, a in enumerate(lrow)) for c in range(nc)]
        for lrow in left
    ]
    for c in draw(st.sets(st.integers(min_value=0, max_value=nc - 1), max_size=2)):
        for r in rows:
            r[c] = 0
    return rows, draw(_MASKS)


@settings(max_examples=200, deadline=None)
@given(linear_case())
@example(([["1/2", 1, 0], [0, "1/3", 0]], [0b011, 0b100, 0b111]))
@example(([[10**30, 1, 0], [0, Fraction(1, 10**30), 0]], [0b011, 0b111]))
def test_linear_rank_matches_fraction_elimination(case):
    rows, masks = case
    m = LinearMatroid(rows)
    for mask in masks:
        cols = elements_of(mask & full_mask(m.n))
        want = fraction_rank([[Fraction(row[c]) for c in cols] for row in rows])
        assert m.rank(mask & full_mask(m.n)) == want


# -- two-literal satisfiability ------------------------------------------------


@st.composite
def two_cnf(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    arcs = [(i, i + 1) for i in range(m)]
    f = TwoSat(arcs)
    n_clauses = draw(st.integers(min_value=0, max_value=16))
    for _ in range(n_clauses):
        l1 = draw(st.integers(min_value=1, max_value=m))
        l2 = draw(st.integers(min_value=1, max_value=m))
        s1 = draw(st.booleans())
        s2 = draw(st.booleans())
        f.add(l1 if s1 else -l1, l2 if s2 else -l2)
    return f


def _brute_satisfiable(f: TwoSat) -> bool:
    m = len(f.variables)
    for bits in range(1 << m):
        ok = True
        for l1, l2 in f.clauses:
            v1 = bool(bits >> (abs(l1) - 1) & 1) == (l1 > 0)
            v2 = bool(bits >> (abs(l2) - 1) & 1) == (l2 > 0)
            if not (v1 or v2):
                ok = False
                break
        if ok:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(two_cnf())
def test_two_sat_matches_brute_force(f):
    assignment = solve_2sat(f)
    if assignment is None:
        assert not _brute_satisfiable(f)
        return
    assert _brute_satisfiable(f)
    for l1, l2 in f.clauses:
        v1 = assignment[f.variables[abs(l1) - 1]] == (l1 > 0)
        v2 = assignment[f.variables[abs(l2) - 1]] == (l2 > 0)
        assert v1 or v2


@settings(max_examples=200, deadline=None)
@given(two_cnf())
def test_two_sat_deterministic(f):
    assert solve_2sat(f) == solve_2sat(f)


# -- weights survive text form ---------------------------------------------------


@given(
    st.lists(
        st.fractions(min_value=-100, max_value=100, max_denominator=50),
        min_size=4,
        max_size=4,
    )
)
def test_fractional_weights_round_trip(ws):
    from minrank import crossed_partition_instance

    inst = crossed_partition_instance(weights=tuple(ws))
    again = loads(dumps(inst))
    assert again.weight_vector() == tuple(Fraction(w) for w in ws)
