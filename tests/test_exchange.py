"""Exchange graphs: true, modified, intersected; paths and certificates."""

from __future__ import annotations

import hashlib
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    full_mask,
    intersect_modified,
    iter_bits,
    mask_of,
    max_cardinality,
    popcount,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
    survey_extensions,
)
from minrank.exchange import (
    _fill,
    _search,
    probe_pair_search,
    reachability_certificate,
    shortest_augmenting_path,
    shortest_cheapest_path,
)
from minrank.verify import shortest_st_paths
from conftest import crossed_pair, lift_by_two_pair, small_zoo, triangle


# Arcs 0->1 (sure), 0->2 and 1->0 (suspicious) over I = {0}.
_LABELLED = ExchangeGraph(3, bit(0), 0, 0, [mask_of((1, 2)), bit(0), 0], sure=[bit(1), 0, 0])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ExchangeGraph(3, bit(0), bit(0), 0, [0, 0, 0]), ValueError),
        (lambda: ExchangeGraph(3, bit(0), 0, bit(0), [0, 0, 0]), ValueError),
        (lambda: ExchangeGraph(3, mask_of((0, 1)), 0, 0, [bit(1), 0, 0]), ValueError),
        (lambda: ExchangeGraph(3, bit(0), 0, 0, [0, bit(2), 0]), ValueError),
        (lambda: ExchangeGraph(3, bit(0), 0, 0, [bit(1), 0, 0], sure=[bit(2), 0, 0]), ValueError),
        (lambda: ExchangeGraph(3, bit(0), 0, 0, [bit(1), 0]), ValueError),
        (lambda: _LABELLED.with_assignment({(0, 1): True}), ValueError),
        (lambda: _LABELLED.with_assignment({(2, 0): True}), ValueError),
        (lambda: _LABELLED.with_assignment({(-2, 0): True}), ValueError),
        (lambda: _LABELLED.with_assignment({(3, 0): True}), ValueError),
        (lambda: _LABELLED.with_assignment({(0, -1): True}), ValueError),
        (lambda: ExchangeGraph(3, bit(0), 0, 0, [bit(1), 0, 0], [0, bit(0), 0]), TypeError),
    ],
    ids=[
        "source-in-I",
        "sink-in-I",
        "arc-from-I-into-I",
        "arc-outside-to-outside",
        "sure-arc-not-an-arc",
        "short-head-list",
        "assign-a-sure-arc",
        "assign-an-absent-arc",
        "assign-a-negative-tail",
        "assign-an-out-of-range-tail",
        "assign-a-negative-head",
        "old-two-layer-call",
    ],
)
def test_exchange_graph_refuses_malformed_input(build, error):
    """The constructor refuses sources or sinks in I, arcs that do not
    cross between I and E \\ I, sure arcs that are no arcs and a head list
    of the wrong length; `with_assignment` accepts only suspicious arcs, so
    a negative or out-of-range index does not wrap round to another vertex
    and raises ValueError; and
    a call in the old form, with a second layer list where `sure` now
    stands, fails instead of reading that list as sure labels."""
    with pytest.raises(error):
        build()


def test_true_graph_crossed_fixture():
    """Arcs at I={0,3}: removals that keep independence, per layer."""
    m1, m2 = crossed_pair()
    g = build_true_graph(m1, m2, mask_of((0, 3)))
    assert g.S == 0 and g.T == 0
    assert set(g.arcs()) == {(0, 1), (3, 2), (1, 3), (2, 0)}


def test_true_graph_empty_I():
    m1, m2 = crossed_pair()
    g = build_true_graph(m1, m2, 0)
    assert g.S == full_mask(4) and g.T == full_mask(4)
    assert not any(g.succ)


def test_true_graph_triangle_vs_uniform():
    g = build_true_graph(triangle(), UniformMatroid(2, 3), mask_of((0, 1)))
    assert set(g.arcs()) == {(0, 2), (1, 2), (2, 0), (2, 1)}
    assert g.S == 0 and g.T == 0


def test_true_graph_rejects_dependent_set():
    m1, m2 = crossed_pair()
    with pytest.raises(ValueError):
        build_true_graph(m1, m2, mask_of((0, 1)))


def test_find_star_pair_direct_augment():
    o = MinRankOracle(*crossed_pair())
    assert survey_extensions(o, bit(0), first=True).direct == (3,)


def test_find_star_pair_none_at_maximum():
    o = MinRankOracle(*crossed_pair())
    assert survey_extensions(o, mask_of((0, 3)), first=True).all_flat


def test_find_star_pair_empty_set_loopless():
    o = MinRankOracle(*crossed_pair())
    assert survey_extensions(o, 0, first=True).direct == (0,)


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
    g = ExchangeGraph(2, bit(0), 0, 0, [0, 0], sure=[0, 0])
    assert reachability_certificate(g) == 0


def test_bfs_tie_breaks_lexicographic():
    # I={2}; sources {0,1}, sinks {3,4}; every s->2->t path has 3 vertices.
    succ = [bit(2), bit(2), mask_of((3, 4)), 0, 0]
    g = ExchangeGraph(5, bit(2), mask_of((0, 1)), mask_of((3, 4)), succ, sure=succ)
    assert shortest_augmenting_path(g) == [0, 2, 3]
    assert shortest_st_paths(g) == [
        (0, 2, 3),
        (0, 2, 4),
        (1, 2, 3),
        (1, 2, 4),
    ]


def _random_built_graph(rng: random.Random) -> ExchangeGraph:
    """A random exchange graph on 1..9 vertices with random arcs, sources
    and sinks."""
    n = rng.randint(1, 9)
    I = rng.getrandbits(n)
    outside = full_mask(n) & ~I
    # Heads out of I are drawn first, then heads into I; the counts the
    # tests below assert rest on that order.
    succ = [rng.getrandbits(n) & outside if (I >> v) & 1 else 0 for v in range(n)]
    for v in iter_bits(outside):
        succ[v] = rng.getrandbits(n) & I
    S = rng.getrandbits(n) & outside
    T = rng.getrandbits(n) & outside
    return ExchangeGraph(n, I, S, T, succ)


def test_bfs_path_is_the_smallest_brute_force_shortest_path():
    """The BFS and, at zero weights, the cheapest-path search both find the
    smallest brute-force shortest path. Without a path, the cheapest-path
    search at any weights either meets a negative cycle or answers with the
    BFS certificate."""
    rng = random.Random(2024)
    wrng = random.Random(7)
    longer = unreachable = cycles = 0
    for _ in range(3000):
        g = _random_built_graph(rng)
        n = g.n
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


def test_reverse_bfs_answers_as_the_cheapest_path_search():
    """The on-demand reverse BFS, run over a built graph's arcs and walked
    from the smallest reached source along the recorded successors, gives
    `shortest_cheapest_path` at zero costs: the same path, or the same
    certificate. So the BFS is judged on arbitrary graphs, not only on the
    probe graphs it searches in the solver."""
    rng = random.Random(19)
    paths = certificates = 0
    for _ in range(3000):
        g = _random_built_graph(rng)
        tails = arc_tails(lambda u, v: (g.succ[u] >> v) & 1)
        reached, nxt = _search(g.I, full_mask(g.n) & ~g.I, g.S, g.T, tails)
        v = min((s for s in range(g.n) if (reached & g.S) >> s & 1), default=None)
        if v is None:
            expected = (None, reached)
            certificates += 1
        else:
            path = [v]
            while v in nxt:
                v = nxt[v]
                path.append(v)
            expected = (path, 0)
            paths += len(path) > 1
        assert shortest_cheapest_path(g, [0] * g.n) == expected
    assert paths >= 150 and certificates >= 1000  # 218 and 1377


def arc_tails(arc):
    """`_search`'s tails callback from a per-arc test: every u of the
    offered set U, ascending, asked whether (u, v) is an arc."""
    return lambda v, U: mask_of(u for u in iter_bits(U) if arc(u, v))


def test_search_asks_each_arc_once_and_stops_at_first_source_level():
    # I={2,5}; sources {0,1}, sinks {3,4}; 5 -> 0 would only be found at
    # level 3, after level 2 already holds the sources.
    I = mask_of((2, 5))
    succ = [bit(2), bit(2), mask_of((3, 4)), 0, 0, bit(0)]
    g = ExchangeGraph(6, I, mask_of((0, 1)), mask_of((3, 4)), succ)
    asked = []

    def arc(u, v):
        asked.append((u, v))
        return (g.succ[u] >> v) & 1

    reached, nxt = _search(I, full_mask(6) & ~I, g.S, g.T, arc_tails(arc))
    assert reached == mask_of((0, 1, 2, 3, 4))
    assert nxt == {2: 3, 0: 2, 1: 2}
    assert asked == [(2, 3), (5, 3), (5, 4), (0, 2), (1, 2)]
    # A sink that is also a source ends the search at level 0.
    asked.clear()
    assert _search(I, full_mask(6) & ~I, bit(3), g.T, arc_tails(arc)) == (
        mask_of((3, 4)),
        {},
    )
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
            sp = survey_extensions(o, I, first=True).pair
            if not isinstance(sp, StarPair):
                continue
            D = build_true_graph(m1, m2, I)
            M = build_modified_graph(o, I, sp)
            assert set(D.arcs()) <= set(M.arcs())
            for y, x in set(M.arcs()) - set(D.arcs()):
                if (I >> y) & 1:  # an extra arc out of I
                    assert not ((D.S | D.T) >> x) & 1 or not ((D.S | D.T) >> y) & 1
                    assert (D.succ[y] >> sp.t) & 1  # shortcut through the sink probe
            N = intersect_modified(o, I, sp)
            assert set(D.arcs()) <= set(N.arcs()) <= set(M.arcs())


def test_sure_arcs_are_true_arcs():
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    for I in range(16):
        if not o.is_common_independent(I):
            continue
        sp = survey_extensions(o, I, first=True).pair
        if not isinstance(sp, StarPair):
            continue
        D = build_true_graph(m1, m2, I)
        N = intersect_modified(o, I, sp)
        true = set(D.arcs())
        for u, v in N.arcs():
            if (N.sure[u] >> v) & 1:
                assert (u, v) in true


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
                sp = survey_extensions(o, I, first=True).pair
                if not isinstance(sp, StarPair):
                    continue
                M = build_modified_graph(o, I, sp)
                if M.T & ~M.S != bit(sp.t):
                    continue
                N = intersect_modified(o, I, sp)
                assert set(N.arcs()) == set(M.arcs())


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
    sp = survey_extensions(o, bit(0), first=True).pair
    if isinstance(sp, StarPair):
        k = 1
        assert o.rmin(bit(0) | bit(sp.s)) == k
        assert o.rmin(bit(0) | bit(sp.t)) == k
        assert o.rmin(bit(0) | bit(sp.s) | bit(sp.t)) == k + 1


# -- the per-arc rule as judge of the group tests -------------------------------


def per_arc_probe_graph(o, I, S, T, t_probes, s_probes):
    """The judge: `_probe_graph` by the per-arc rule that the group tests
    replaced. A layer-1 arc into a source and a layer-2 arc out of a sink
    are free; a layer-1 arc into a sink or a layer-2 arc out of a source
    costs one swap query; every other arc holds when the three-element
    swap keeps the min-rank at |I| against each sink-side probe (layer 1)
    or source-side probe (layer 2). Same return shape and sure labels."""
    k = popcount(I)

    def arc(u, v):
        if (I >> u) & 1:
            xb, base, probes = bit(v), I & ~bit(u) | bit(v), t_probes
            if S & xb:
                return True
            if T & xb:
                return o.rmin(base) == k
        else:
            xb, base, probes = bit(u), I & ~bit(v) | bit(u), s_probes
            if T & xb:
                return True
            if S & xb:
                return o.rmin(base) == k
        return all(o.rmin(base | bit(p)) == k for p in probes)

    succ = _fill(o.n, I, o.ground & ~I, arc)
    ends = S | T
    return succ, [heads if (ends >> v) & 1 else heads & ends for v, heads in enumerate(succ)]


def graph_fields(g: ExchangeGraph) -> tuple:
    return (g.kind, g.I, g.S, g.T, g.succ, g.sure)


def layer_fields(g: ExchangeGraph) -> tuple:
    """The fields in the shape the pinned digest was recorded in: the head
    masks and sure masks split by the side of each tail, arcs out of I
    first, each list zero at the tails of the other side."""

    def split(masks, inside):
        return tuple(m if bool((g.I >> v) & 1) == inside else 0 for v, m in enumerate(masks))

    return (
        g.kind, g.I, g.S, g.T,
        split(g.succ, True), split(g.succ, False),
        split(g.sure, True), split(g.sure, False),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(
        [
            (("partition",), 40),
            (("graphic",), 40),
            (("partition", "graphic"), 40),
            (("linear-rational",), 14),
            (("linear-rational", "partition"), 14),
        ]
    ),
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=0, max_value=10**6),
)
def test_grouped_probe_graphs_equal_the_per_arc_rule(kinds_cap, n, seed):
    """At every set of a cardinality trajectory that has a probe pair, the
    grouped builders give the per-arc judge's modified and intersected
    graphs, field for field, and the on-demand search gives the judge's
    modified graph's shortest path or certificate. Linear pairs are capped
    at 14 elements, where the judge's rank evaluations stay cheap."""
    kinds, cap = kinds_cap
    inst = random_instance(seed, min(n, cap), kinds=kinds)
    m1, m2 = inst.matroid1, inst.matroid2
    for I in max_cardinality(MinRankOracle(m1, m2)).sets:
        o = MinRankOracle(m1, m2)
        sp = survey_extensions(o, I).pair
        if sp is None:
            continue
        grouped = [build_modified_graph(o, I, sp), intersect_modified(o, I, sp)]
        with patch("minrank.exchange._probe_graph", per_arc_probe_graph):
            judged = [build_modified_graph(o, I, sp), intersect_modified(o, I, sp)]
        assert [graph_fields(g) for g in grouped] == [graph_fields(g) for g in judged]
        path, Z = shortest_cheapest_path(judged[0], [0] * o.n)
        assert probe_pair_search(o, I, sp) == (path, Z)


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
        for I in max_cardinality(MinRankOracle(inst.matroid1, inst.matroid2)).sets:
            sp = survey_extensions(o, I, first=True).pair
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
    """`build_modified_graph` and `intersect_modified` ask their masks in
    one order: the survey of the probe pair's sources and sinks, then each
    star's circuit, stars ascending, then for each plain outside element
    ascending its layer-1 groups and its layer-2 groups, probe by probe,
    each split depth first with the lower half first. The per-arc rule
    asked 13,443 masks on this instance list; the group tests ask 6,818,
    and the digest below was recorded from them."""

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
                for I in max_cardinality(MinRankOracle(inst.matroid1, inst.matroid2)).sets:
                    yield inst, I

    digest = hashlib.sha256()
    builds = asked = 0
    for inst, I in cases():
        m1, m2 = inst.matroid1, inst.matroid2
        sp = survey_extensions(MinRankOracle(m1, m2), I, first=True).pair
        if not isinstance(sp, StarPair):
            continue
        o = RecordingOracle(m1, m2)
        build_modified_graph(o, I, sp)
        intersect_modified(o, I, sp)
        builds += 1
        asked += len(o.asked)
        digest.update(repr(o.asked).encode())
    assert (builds, asked) == (33, 6818)
    assert digest.hexdigest() == (
        "309c1ece608cf8f851f2acba1f3494c27a32a7432f9b9b3c2746942af0dff05d"
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
                for I in max_cardinality(MinRankOracle(inst.matroid1, inst.matroid2)).sets:
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
            digest.update(repr(layer_fields(g)).encode())
            graphs += 1
    assert graphs == 8733
    assert digest.hexdigest() == (
        "538a1374889448ea2209bf137d54463aab4b7882040b4b0cdc4ae41208aefc0d"
    )
