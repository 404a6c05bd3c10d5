"""Exchange graphs: true, modified, intersected; paths and certificates."""

from __future__ import annotations

import hashlib
import random

import pytest

from minrank import (
    ExchangeGraph,
    ExtensionSurvey,
    MinRankOracle,
    NegativeCycleError,
    StarPair,
    UniformMatroid,
    bit,
    build_modified_graph,
    build_true_graph,
    common_independent_sets,
    find_star_pair,
    full_mask,
    intersect_modified,
    mask_of,
    popcount,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
    shortest_cheapest_path,
    survey_extensions,
)
from minrank.cli import cardinality_trajectory
from minrank.exchange import (
    _search,
    probe_pair_search,
    reachability_certificate,
    shortest_augmenting_path,
)
from minrank.verify import shortest_st_paths
from conftest import crossed_pair, lift_by_two_pair, small_zoo, triangle


def arcs1_pairs(g: ExchangeGraph) -> set[tuple[int, int]]:
    return set(g.arcs1_pairs())


def arcs2_pairs(g: ExchangeGraph) -> set[tuple[int, int]]:
    return set(g.arcs2_pairs())


def test_true_graph_crossed_fixture():
    """Arcs at I={0,3}: removals that keep independence, per layer."""
    m1, m2 = crossed_pair()
    g = build_true_graph(m1, m2, mask_of((0, 3)))
    assert g.S == 0 and g.T == 0
    assert arcs1_pairs(g) == {(0, 1), (3, 2)}
    assert arcs2_pairs(g) == {(1, 3), (2, 0)}


def test_true_graph_empty_I():
    m1, m2 = crossed_pair()
    g = build_true_graph(m1, m2, 0)
    assert g.S == full_mask(4) and g.T == full_mask(4)
    assert g.arc_count() == 0


def test_true_graph_triangle_vs_uniform():
    g = build_true_graph(triangle(), UniformMatroid(2, 3), mask_of((0, 1)))
    assert arcs1_pairs(g) == {(0, 2), (1, 2)}
    assert arcs2_pairs(g) == {(2, 0), (2, 1)}
    assert g.S == 0 and g.T == 0


def test_true_graph_rejects_dependent_set():
    m1, m2 = crossed_pair()
    with pytest.raises(ValueError):
        build_true_graph(m1, m2, mask_of((0, 1)))


def test_find_star_pair_direct_augment():
    o = MinRankOracle(*crossed_pair())
    assert find_star_pair(o, bit(0)).direct == (3,)


def test_find_star_pair_none_at_maximum():
    o = MinRankOracle(*crossed_pair())
    assert find_star_pair(o, mask_of((0, 3))).all_flat


def test_find_star_pair_empty_set_loopless():
    o = MinRankOracle(*crossed_pair())
    assert find_star_pair(o, 0).direct == (0,)


def test_survey_extensions_lists_all_direct():
    o = MinRankOracle(*crossed_pair())
    s = survey_extensions(o, bit(0))
    assert s.direct == (3,)
    assert s.pair == StarPair(1, 2)
    assert not s.all_flat
    assert survey_extensions(o, mask_of((0, 3))).all_flat


def pair_loop_survey(o, I: int, first: bool) -> ExtensionSurvey:
    """The judge: the survey that asks every pair of flat elements in
    order, up to the first pair that lifts the min-rank."""
    k = popcount(I)
    direct = []
    flat = []
    for x in range(o.n):
        if (I >> x) & 1:
            continue
        if o.rmin(I | bit(x)) == k + 1:
            if first:
                return ExtensionSurvey((x,), None)
            direct.append(x)
        else:
            flat.append(x)
    for i, s in enumerate(flat):
        for t in flat[i + 1 :]:
            if o.rmin(I | bit(s) | bit(t)) == k + 1:
                return ExtensionSurvey(tuple(direct), StarPair(s, t))
    return ExtensionSurvey(tuple(direct), None)


def test_survey_finds_the_pair_loops_pair():
    """On every common independent set of five generators at n = 4..8,
    with and without `first`, the prefix search returns the pair loop's
    survey, and asks no more than the loop over all surveys."""
    makers = (
        lambda seed, n: random_instance(seed, n),
        random_promise_instance,
        lambda seed, n: random_fpt_instance(seed, n, 3),
        random_lexmax_instance,
        lambda seed, n: random_instance(seed, n, kinds=("graphic",)),
    )
    surveys = pairs = asked = judged = 0
    for make in makers:
        for n in range(4, 9):
            for seed in range(6):
                inst = make(seed, n)
                m1, m2 = inst.matroid1, inst.matroid2
                for I in common_independent_sets(m1, m2):
                    for first in (False, True):
                        o = MinRankOracle(m1, m2)
                        judge = MinRankOracle(m1, m2)
                        got = survey_extensions(o, I, first)
                        assert got == pair_loop_survey(judge, I, first), (n, seed, I)
                        surveys += 1
                        pairs += got.pair is not None
                        asked += o.query_count
                        judged += judge.query_count
    assert surveys >= 10000 and pairs >= 500  # 10,560 and 526
    assert asked < judged  # 41,249 against 52,794


def test_survey_pair_when_a_prefix_lifts_by_two():
    """Flat elements 0, 1 are addable in the first matroid only and 2, 3
    in the second only, so the whole flat list lifts the min-rank by two.
    The searches ask the prefixes of length 2, 4 and 3, then {0} with t = 2
    added, and read a lift as any value above |I|."""
    m1, m2 = lift_by_two_pair()
    o = MinRankOracle(m1, m2)
    asked = []
    rmin = o.rmin

    def recorded(mask: int) -> int:
        asked.append(mask)
        return rmin(mask)

    o.rmin = recorded
    assert o.rmin(full_mask(4)) == 2
    asked.clear()
    assert survey_extensions(o, 0) == ExtensionSurvey((), StarPair(0, 2))
    assert survey_extensions(MinRankOracle(m1, m2), 0) == pair_loop_survey(
        MinRankOracle(m1, m2), 0, False
    )
    assert asked == [bit(0), bit(1), bit(2), bit(3)] + [
        mask_of((0, 1)),
        mask_of((0, 1, 2, 3)),
        mask_of((0, 1, 2)),
        mask_of((0, 2)),
    ]


def test_shortest_path_single_vertex():
    """S and T overlap at I={0}: the path is one vertex."""
    m1, m2 = crossed_pair()
    g = build_true_graph(m1, m2, bit(0))
    assert g.S == mask_of((2, 3))
    assert g.T == mask_of((1, 3))
    assert shortest_augmenting_path(g) == [3]


def test_shortest_path_none_when_unreachable():
    m1, m2 = crossed_pair()
    g = build_true_graph(m1, m2, mask_of((0, 3)))
    assert shortest_augmenting_path(g) is None
    Z = reachability_certificate(g)
    o = MinRankOracle(m1, m2)
    assert o.rmin(Z) + o.rmin(full_mask(4) & ~Z) == 2


def test_reachability_certificate_empty_sinks():
    g = ExchangeGraph(2, bit(0), 0, 0, [0, 0], [0, 0], [0, 0], [0, 0])
    assert reachability_certificate(g) == 0


def test_bfs_tie_breaks_lexicographic():
    # I={2}; sources {0,1}, sinks {3,4}; every s->2->t path has 3 vertices.
    arcs1 = [0, 0, mask_of((3, 4)), 0, 0]
    arcs2 = [bit(2), bit(2), 0, 0, 0]
    g = ExchangeGraph(
        5, bit(2), mask_of((0, 1)), mask_of((3, 4)), arcs1, arcs2, arcs1, arcs2
    )
    assert shortest_augmenting_path(g) == [0, 2, 3]
    assert shortest_st_paths(g) == [
        (0, 2, 3),
        (0, 2, 4),
        (1, 2, 3),
        (1, 2, 4),
    ]


def test_bfs_path_is_the_smallest_brute_force_shortest_path():
    """The BFS and, at zero weights, the cheapest-path search both find the
    smallest brute-force shortest path. Without a path, the cheapest-path
    search at any weights either meets a negative cycle or answers with the
    BFS certificate."""
    rng = random.Random(2024)
    wrng = random.Random(7)
    longer = unreachable = cycles = 0
    for _ in range(3000):
        n = rng.randint(1, 9)
        I = rng.getrandbits(n)
        outside = full_mask(n) & ~I
        arcs1 = [rng.getrandbits(n) & outside if (I >> v) & 1 else 0 for v in range(n)]
        arcs2 = [rng.getrandbits(n) & I if (outside >> v) & 1 else 0 for v in range(n)]
        S = rng.getrandbits(n) & outside
        T = rng.getrandbits(n) & outside
        g = ExchangeGraph(n, I, S, T, arcs1, arcs2)
        paths = shortest_st_paths(g)
        longer += bool(paths) and len(paths[0]) > 1
        path = list(paths[0]) if paths else None
        assert shortest_augmenting_path(g) == path
        Z = 0 if paths else reachability_certificate(g)
        assert shortest_cheapest_path(g, [0] * n) == (path, Z)
        if paths:
            continue
        unreachable += 1
        w = [wrng.randint(-3, 3) for _ in range(n)]
        try:
            assert shortest_cheapest_path(g, w) == (None, Z)
        except NegativeCycleError:
            cycles += 1
    assert longer >= 150  # 221 graphs whose shortest path has an arc
    assert unreachable - cycles >= 1000 and cycles >= 10  # 1313 and 134


def test_search_asks_each_arc_once_and_stops_at_first_source_level():
    # I={2,5}; sources {0,1}, sinks {3,4}; 5 -> 0 would only be found at
    # level 3, after level 2 already holds the sources.
    I = mask_of((2, 5))
    arcs1 = [0, 0, mask_of((3, 4)), 0, 0, bit(0)]
    arcs2 = [bit(2), bit(2), 0, 0, 0, 0]
    g = ExchangeGraph(6, I, mask_of((0, 1)), mask_of((3, 4)), arcs1, arcs2)
    asked = []

    def arc(u, v):
        asked.append((u, v))
        return g.has_arc(u, v)

    reached, nxt = _search(I, full_mask(6) & ~I, g.S, g.T, arc)
    assert reached == mask_of((0, 1, 2, 3, 4))
    assert nxt == {2: 3, 0: 2, 1: 2}
    assert asked == [(2, 3), (5, 3), (5, 4), (0, 2), (1, 2)]
    # A sink that is also a source ends the search at level 0.
    asked.clear()
    assert _search(I, full_mask(6) & ~I, bit(3), g.T, arc) == (mask_of((3, 4)), {})
    assert asked == []


def test_modified_graph_contains_true_graph():
    """Definitional containment plus the fake-arc shortcut property, on
    every common independent set of the fixtures."""
    pairs = [crossed_pair(), (triangle(), UniformMatroid(2, 3))]
    for m1, m2 in pairs:
        n = m1.n
        o = MinRankOracle(m1, m2)
        for I in range(1 << n):
            if not (m1.is_independent(I) and m2.is_independent(I)):
                continue
            sp = find_star_pair(o, I).pair
            if not isinstance(sp, StarPair):
                continue
            D = build_true_graph(m1, m2, I)
            M = build_modified_graph(o, I, sp)
            assert set(D.arcs1_pairs()) <= set(M.arcs1_pairs())
            assert set(D.arcs2_pairs()) <= set(M.arcs2_pairs())
            for y, x in set(M.arcs1_pairs()) - set(D.arcs1_pairs()):
                assert not ((D.S | D.T) >> x) & 1 or not ((D.S | D.T) >> y) & 1
                assert (D.arcs1[y] >> sp.t) & 1  # shortcut through the sink probe
            N = intersect_modified(o, I, sp)
            assert set(D.arcs1_pairs()) <= set(N.arcs1_pairs()) <= set(M.arcs1_pairs())
            assert set(D.arcs2_pairs()) <= set(N.arcs2_pairs()) <= set(M.arcs2_pairs())


def test_sure_arcs_are_true_arcs():
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    for I in range(16):
        if not o.is_common_independent(I):
            continue
        sp = find_star_pair(o, I).pair
        if not isinstance(sp, StarPair):
            continue
        D = build_true_graph(m1, m2, I)
        N = intersect_modified(o, I, sp)
        true1, true2 = set(D.arcs1_pairs()), set(D.arcs2_pairs())
        for u, v in N.arcs1_pairs():
            if N.is_sure(u, v):
                assert (u, v) in true1
        for u, v in N.arcs2_pairs():
            if N.is_sure(u, v):
                assert (u, v) in true2


def test_single_sink_intersection_equals_modified():
    """With one sink beyond the sources, the intersection has one term."""
    for m1 in small_zoo():
        for m2 in small_zoo():
            if m1.n != m2.n or m1.n > 4:
                continue
            o = MinRankOracle(m1, m2)
            for I in range(1 << m1.n):
                if not o.is_common_independent(I):
                    continue
                sp = find_star_pair(o, I).pair
                if not isinstance(sp, StarPair):
                    continue
                M = build_modified_graph(o, I, sp)
                if M.T & ~M.S != bit(sp.t):
                    continue
                N = intersect_modified(o, I, sp)
                assert set(N.arcs1_pairs()) == set(M.arcs1_pairs())
                assert set(N.arcs2_pairs()) == set(M.arcs2_pairs())


def test_to_dot_styles():
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    g = build_true_graph(m1, m2, mask_of((0, 3)))
    dot = g.to_dot()
    assert dot.startswith("digraph exchange {")
    assert "style=solid" in dot
    named = g.to_dot(("a", "b", "c", "d"))
    assert 'label="a"' in named


def test_star_pair_definition_holds():
    o = MinRankOracle(triangle(), UniformMatroid(2, 3))
    sp = find_star_pair(o, bit(0)).pair
    if isinstance(sp, StarPair):
        k = 1
        assert o.rmin(bit(0) | bit(sp.s)) == k
        assert o.rmin(bit(0) | bit(sp.t)) == k
        assert o.rmin(bit(0) | bit(sp.s) | bit(sp.t)) == k + 1


# -- on-demand search against the full build -----------------------------------


def test_probe_pair_search_matches_full_build():
    """On every set of the cardinality trajectory that has a probe pair, the
    on-demand search returns the full graph's shortest path, or its
    certificate, and asks no more queries than building the graph."""
    instances = [random_instance(seed, n) for n in range(2, 13) for seed in range(30)]
    instances += [
        random_instance(seed, n, kinds=("partition",))
        for n in range(24, 33)
        for seed in range(10)
    ]
    paths = certificates = 0
    for inst in instances:
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        for I in cardinality_trajectory(inst.matroid1, inst.matroid2):
            sp = find_star_pair(o, I).pair
            if not isinstance(sp, StarPair):
                continue
            before = o.query_count
            g = build_modified_graph(o, I, sp)
            path = shortest_augmenting_path(g)
            Z = 0 if path is not None else reachability_certificate(g)
            full = o.query_count - before
            before = o.query_count
            assert probe_pair_search(o, I, sp) == (path, Z)
            assert o.query_count - before <= full
            paths += path is not None
            certificates += path is None
    assert paths >= 70 and certificates >= 66


class RecordingOracle(MinRankOracle):
    def __init__(self, m1, m2):
        super().__init__(m1, m2)
        self.asked: list[int] = []

    def rmin(self, mask: int) -> int:
        self.asked.append(mask)
        return super().rmin(mask)


def test_probe_graph_query_sequence_is_pinned():
    """`build_modified_graph` and `intersect_modified` ask their masks one
    outside element at a time: for each x ascending, the layer-1 arcs into
    x, then the layer-2 arcs out of x. The counts are those of the earlier
    row-by-row fill, which asked the same masks in another order; the
    digest below was recorded from the per-element fill on this instance
    list."""

    def cases():
        for seed in range(40):
            n = 5 + seed % 4
            kinds = ("partition", "graphic", "linear-rational")
            inst = random_instance(seed, n, kinds=kinds)
            o = MinRankOracle(inst.matroid1, inst.matroid2)
            for I in range(1 << n):
                if o.is_common_independent(I):
                    yield inst, I
        for n in (16, 24, 32, 40):
            for seed in range(10):
                inst = random_instance(seed, n, kinds=("partition", "graphic"))
                for I in cardinality_trajectory(inst.matroid1, inst.matroid2):
                    yield inst, I

    digest = hashlib.sha256()
    builds = asked = 0
    for inst, I in cases():
        m1, m2 = inst.matroid1, inst.matroid2
        sp = find_star_pair(MinRankOracle(m1, m2), I).pair
        if not isinstance(sp, StarPair):
            continue
        o = RecordingOracle(m1, m2)
        build_modified_graph(o, I, sp)
        intersect_modified(o, I, sp)
        builds += 1
        asked += len(o.asked)
        digest.update(repr(o.asked).encode())
    assert (builds, asked) == (33, 13443)
    assert digest.hexdigest() == (
        "3e45f09424eb6cadff13f562b96e96e8c4e070ea6c14feaed4d6fb4dad6fbf7b"
    )


def test_probe_graphs_are_pinned():
    """The true, modified and intersected graphs (kind, I, sources, sinks,
    arcs and sure labels) at every common independent set with a probe
    pair, on seeded pairs of four generators, and along the cardinality
    runs of larger pairs. The digest below was recorded from the row-by-row
    probe-graph fill that predates the per-element filler; a change to any
    arc, label, source or sink changes it."""

    def cases():
        for seed in range(120):
            n = 4 + seed % 6
            for inst in (
                random_instance(seed, n),
                random_promise_instance(seed, n),
                random_fpt_instance(seed, n, 3),
                random_lexmax_instance(seed, n),
            ):
                o = MinRankOracle(inst.matroid1, inst.matroid2)
                for I in range(1 << n):
                    if o.is_common_independent(I):
                        yield inst, I
        for n in (16, 24, 32):
            for seed in range(4):
                inst = random_instance(seed, n, kinds=("partition", "graphic"))
                for I in cardinality_trajectory(inst.matroid1, inst.matroid2):
                    yield inst, I

    digest = hashlib.sha256()
    graphs = 0
    for inst, I in cases():
        m1, m2 = inst.matroid1, inst.matroid2
        o = MinRankOracle(m1, m2)
        sp = survey_extensions(o, I).pair
        if sp is None:
            continue
        for g in (
            build_true_graph(m1, m2, I),
            build_modified_graph(o, I, sp),
            intersect_modified(o, I, sp),
        ):
            fields = (g.kind, g.I, g.S, g.T, g.arcs1, g.arcs2, g.sure1, g.sure2)
            digest.update(repr(fields).encode())
            graphs += 1
    assert graphs == 8733
    assert digest.hexdigest() == (
        "538a1374889448ea2209bf137d54463aab4b7882040b4b0cdc4ae41208aefc0d"
    )
