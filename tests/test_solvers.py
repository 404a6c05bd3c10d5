"""Cardinality, weighted, lexicographic, bounded-circuit, and approximate solvers."""

from __future__ import annotations

import ast
import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

import minrank.solvers
from minrank import (
    AugmentStep,
    ColoredGraph,
    ContractViolationError,
    ExchangeGraph,
    Level,
    MinRankOracle,
    NegativeCycleError,
    PartitionMatroid,
    StarPair,
    UniformMatroid,
    WeightedRun,
    almost_consistent_graph,
    approx_max_weight,
    bit,
    brute_lexmax,
    brute_max_common,
    brute_w_maximal,
    build_gadget,
    common_independent_sets,
    format_set,
    full_mask,
    iter_bits,
    lexicographic_max,
    mask_of,
    max_cardinality,
    parse_set,
    popcount,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
    weighted_fpt_circuit,
    weighted_no_circuit_inclusion,
)
from minrank.exchange import probe_pair_search, shortest_cheapest_path
from minrank.gadgets import COLORS
from minrank.solvers import (
    Augmented,
    Certificate,
    augment_min_rank,
    cheapest_path_augment,
    class_vector,
    path_cost,
    total_weight,
    weight_classes,
)
from minrank.verify import BruteTable, simple_cycles, simple_st_paths
from conftest import crossed_pair, fixture_weights, lift_by_two_pair, small_zoo, triangle


def swap_pair() -> tuple[PartitionMatroid, PartitionMatroid]:
    """Augmenting {1} needs a path swap: no single element lifts the rank."""
    m1 = PartitionMatroid(3, (mask_of((0, 1)), bit(2)), (1, 1))
    m2 = PartitionMatroid(3, (mask_of((1, 2)), bit(0)), (1, 1))
    return m1, m2


# -- one augmentation step ----------------------------------------------------


def test_augment_direct():
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    res, _, _ = augment_min_rank(o, bit(0))
    assert res == Augmented(mask_of((0, 3)))


def test_augment_from_empty_picks_smallest():
    m1, m2 = crossed_pair()
    res, _, _ = augment_min_rank(MinRankOracle(m1, m2), 0)
    assert res == Augmented(bit(0))


def test_augment_path_swap():
    m1, m2 = swap_pair()
    o = MinRankOracle(m1, m2)
    res, _, _ = augment_min_rank(o, bit(1))
    # {0, 2} is the only common independent pair, so the swap is forced.
    assert res == Augmented(mask_of((0, 2)))


def test_augment_certificate_at_maximum():
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    res, _, _ = augment_min_rank(o, mask_of((0, 3)))
    assert isinstance(res, Certificate)
    Z = res.Z
    comp = full_mask(4) & ~Z
    assert o.rmin(Z) + o.rmin(comp) == 2  # matches |I|: maximality proven


def test_augment_rejects_dependent_base():
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    with pytest.raises(ValueError):
        augment_min_rank(o, mask_of((0, 1)))  # rank 1 in the row matroid


def test_augment_star_pair_choice_does_not_change_size():
    """A forced probe pair changes neither the result type nor its size.

    Only sets with no rank-lifting element and at least two probe pairs
    count, so the graph really is built for other pairs. J and Z themselves
    may differ from the unforced step's (see `augment_min_rank`)."""
    augmented = certified = 0
    for seed in range(200):
        for n in range(3, 9):
            inst = random_instance(seed, n)
            m1, m2 = inst.matroid1, inst.matroid2
            o = MinRankOracle(m1, m2)
            for I in range(1 << n):
                if not o.is_common_independent(I):
                    continue
                k = popcount(I)
                outside = o.ground & ~I
                if any(o.rmin(I | bit(x)) > k for x in iter_bits(outside)):
                    continue
                pairs = [
                    StarPair(s, t)
                    for s, t in combinations(iter_bits(outside), 2)
                    if o.rmin(I | bit(s) | bit(t)) == k + 1
                ]
                if len(pairs) < 2:
                    continue
                baseline, _, _ = augment_min_rank(o, I)
                for sp in pairs:
                    path, Z = probe_pair_search(o, I, sp)
                    assert (path is None) == isinstance(baseline, Certificate)
                    if path is not None:
                        augmented += 1
                        J = I ^ mask_of(path)
                        assert popcount(J) == k + 1
                        assert m1.is_independent(J)
                        assert m2.is_independent(J)
                    else:
                        certified += 1
                        assert o.rmin(Z) + o.rmin(o.ground & ~Z) == k
    assert augmented >= 184 and certified >= 16


# -- maximum cardinality ------------------------------------------------------


def test_max_cardinality_crossed():
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    run = max_cardinality(o)
    assert run.queries == o.query_count  # ledger drained into the run
    assert run.I == mask_of((0, 3))
    assert popcount(run.I) == 2
    assert o.rmin(run.Z) + o.rmin(full_mask(4) & ~run.Z) == 2
    assert [s.action for s in run.trace] == ["augment", "augment", "certificate"]


def test_max_cardinality_matches_brute():
    for m1 in small_zoo():
        for m2 in small_zoo():
            if m1.n != m2.n:
                continue
            o = MinRankOracle(m1, m2)
            run = max_cardinality(o)
            assert o.is_common_independent(run.I)
            size, _ = brute_max_common(m1, m2)
            assert popcount(run.I) == size
            comp = full_mask(o.n) & ~run.Z
            assert o.rmin(run.Z) + o.rmin(comp) == popcount(run.I)


def test_max_cardinality_query_count_pinned():
    """The n=64 partition pair: 3,877 queries while the cardinality solver
    built the whole probe-pair graph, 1,341 with on-demand arc tests,
    1,345 since the survey finds its probe pair by prefix search, 665
    since the on-demand search finds arcs by group tests, and 361 since a
    step after a direct add resumes the survey before it."""
    inst = random_instance(7, 64, kinds=("partition",), weighted=True)
    run = max_cardinality(MinRankOracle(inst.matroid1, inst.matroid2))
    assert popcount(run.I) == 47
    assert run.queries == 361


def test_resumed_steps_match_the_unresumed_loop(monkeypatch):
    """A step after a direct add skips its entry check and the singletons
    known to be flat. That changes no set, certificate or trace line, only
    asks less; and every element a survey was told is flat is flat (I + y
    dependent in one of the two matroids)."""
    known: list[tuple[int, int]] = []
    survey = minrank.solvers.survey_extensions

    def recording(o, I, first=False, known_flat=0):
        known.append((I, known_flat))
        return survey(o, I, first, known_flat)

    monkeypatch.setattr(minrank.solvers, "survey_extensions", recording)
    saved = skipped = 0
    for n in range(6, 13):
        for seed in range(12):
            for inst in (
                random_instance(seed, n),
                random_fpt_instance(seed, n, 3),
                random_lexmax_instance(seed, n),
            ):
                m1, m2 = inst.matroid1, inst.matroid2
                o = MinRankOracle(m1, m2)
                plain = minrank.solvers._run(o, lambda I: augment_min_rank(o, I))
                known.clear()
                run = max_cardinality(MinRankOracle(m1, m2))
                assert (run.sets, run.Z) == (plain.sets, plain.Z)
                assert [(t.k, t.action, t.detail) for t in run.trace] == [
                    (t.k, t.action, t.detail) for t in plain.trace
                ]
                assert run.queries <= plain.queries
                saved += plain.queries - run.queries
                for I, flat in known:
                    skipped += popcount(flat)
                    for y in iter_bits(flat):
                        J = I | bit(y)
                        assert not (m1.is_independent(J) and m2.is_independent(J))
    assert saved > 0 and skipped > 0


def test_max_cardinality_swap_instance():
    m1, m2 = swap_pair()
    run = max_cardinality(MinRankOracle(m1, m2))
    assert run.I == mask_of((0, 2))


def test_max_cardinality_sets_follow_the_run():
    """From the empty set, one element more per augmentation, every set
    common independent, ending at the maximum: one set per trace line."""
    for seed in range(120):
        inst = random_instance(seed, 2 + seed % 11)
        m1, m2 = inst.matroid1, inst.matroid2
        run = max_cardinality(MinRankOracle(m1, m2))
        assert run.sets[0] == 0
        assert [popcount(I) for I in run.sets] == list(range(len(run.sets)))
        assert all(m1.is_independent(I) and m2.is_independent(I) for I in run.sets)
        assert run.sets[-1] == run.I
        assert len(run.sets) == len(run.trace)


def test_augment_step_str():
    step = AugmentStep(1, "augment", "J={0, 3}", 7)
    assert str(step) == "k=1 augment J={0, 3} queries=7"


# -- weighted, promise regime -------------------------------------------------


def test_weighted_levels_crossed():
    m1, m2 = crossed_pair()
    w = fixture_weights()
    o = MinRankOracle(m1, m2)
    run = weighted_no_circuit_inclusion(o, w)
    assert [lv.weight for lv in run.levels] == [0, 5, 8]
    assert run.levels[2].I == mask_of((1, 2))
    assert run.best == run.levels[2]
    assert run.queries == o.query_count
    comp = full_mask(4) & ~run.certificate
    assert o.rmin(run.certificate) + o.rmin(comp) == 2


def test_weighted_levels_match_brute_per_cardinality():
    m1, m2 = crossed_pair()
    w = fixture_weights()
    run = weighted_no_circuit_inclusion(MinRankOracle(m1, m2), w)
    for lv in run.levels:
        best, argmaxes = brute_w_maximal(m1, m2, w, lv.k)
        assert lv.weight == best
        assert lv.I in argmaxes


def test_weighted_run_best_prefers_smaller_cardinality_on_ties():
    run = WeightedRun(
        (
            Level(0, 0, Fraction(0)),
            Level(1, bit(0), Fraction(5)),
            Level(2, mask_of((0, 3)), Fraction(5)),
        ),
        0,
        0,
        (),
    )
    assert run.best.k == 1


def test_weighted_all_ones_counts_cardinality():
    m1, m2 = swap_pair()
    run = weighted_no_circuit_inclusion(MinRankOracle(m1, m2), [1, 1, 1])
    assert [lv.weight for lv in run.levels] == [0, 1, 2]
    assert run.levels[2].I == mask_of((0, 2))


def test_cheapest_path_augment_star_pair_invariance():
    """Forcing any valid probe pair must preserve the achieved weight."""
    m1, m2 = crossed_pair()
    w = fixture_weights()
    I = bit(0)
    o = MinRankOracle(m1, m2)
    baseline, action, _ = cheapest_path_augment(o, w, I)
    assert isinstance(baseline, Augmented) and action == "path"
    k = popcount(I)
    outside = full_mask(4) & ~I
    flats = [
        x for x in range(4) if (outside >> x) & 1 and o.rmin(I | bit(x)) == k
    ]
    pairs = [
        StarPair(s, t)
        for i, s in enumerate(flats)
        for t in flats[i + 1 :]
        if o.rmin(I | bit(s) | bit(t)) == k + 1
    ]
    assert pairs  # the fixture does expose a probe pair here
    for sp in pairs:
        path, _ = shortest_cheapest_path(almost_consistent_graph(o, I, sp), w)
        assert path is not None
        assert total_weight(w, I ^ mask_of(path)) == total_weight(w, baseline.J)


# -- bounded circuit size -----------------------------------------------------


def test_fpt_matches_promise_solver_on_crossed():
    m1, m2 = crossed_pair()
    w = fixture_weights()
    run = weighted_fpt_circuit(MinRankOracle(m1, m2), w, gamma=2)
    assert [lv.weight for lv in run.levels] == [0, 5, 8]
    assert run.best.I == mask_of((1, 2))


def test_fpt_guess_budget():
    m1, m2 = crossed_pair()
    w = fixture_weights()
    run = weighted_fpt_circuit(MinRankOracle(m1, m2), w, gamma=2)
    for step in run.trace:
        if step.action == "guesses":
            tried = int(step.detail.split("tried=")[1].split()[0])
            assert tried <= 2**2


def test_fpt_degenerate_gamma_equals_n():
    m1 = triangle()
    m2 = UniformMatroid(2, 3)
    w = [Fraction(2), Fraction(1), Fraction(3)]
    run = weighted_fpt_circuit(MinRankOracle(m1, m2), w, gamma=3)
    for lv in run.levels:
        best, argmaxes = brute_w_maximal(m1, m2, w, lv.k)
        assert lv.weight == best
        assert lv.I in argmaxes


def test_fpt_guess_inside_J_skips_or_adds_a_clause(monkeypatch):
    # Single-vertex gadgets are the instances whose evil observations have
    # Y inside the suspicious-head bound J, which the random generators
    # never reach. A guess holding all of such a Y contradicts itself and is
    # not tried; one holding a single element of Y adds a clause.
    extras = []

    def counted(table, g, extra=()):
        extras.append(tuple(extra))
        return build_cnf(table, g, extra=extra)

    build_cnf = minrank.solvers.build_cnf
    monkeypatch.setattr(minrank.solvers, "build_cnf", counted)
    skipped = 0
    for color in COLORS:
        m1, m2 = build_gadget(ColoredGraph(1, (), (color,))).as_matroids()
        for seed in range(20):
            rng = random.Random(seed)
            w = [rng.randint(1, 6) for _ in range(m1.n)]
            run = weighted_fpt_circuit(MinRankOracle(m1, m2), w, gamma=3)
            for lv in run.levels:
                best, argmaxes = brute_w_maximal(m1, m2, w, lv.k)
                assert lv.weight == best
                assert lv.I in argmaxes
            for step in run.trace:
                if step.action == "guesses":
                    found = re.fullmatch(r"J=(\S+) tried=(\d+) .*", step.detail)
                    J, tried = found.groups()
                    skipped += int(tried) < 2 ** popcount(parse_set(J))
    assert skipped > 0
    assert any(extras)


def test_fpt_rejects_small_gamma():
    with pytest.raises(ValueError):
        weighted_fpt_circuit(MinRankOracle(*crossed_pair()), [1, 1, 1, 1], gamma=1)


# -- trace accounting ---------------------------------------------------------


TRACED_MODES = {
    "cardinality": lambda o, w: max_cardinality(o),
    "promise": weighted_no_circuit_inclusion,
    "fpt-2": lambda o, w: weighted_fpt_circuit(o, w, 2),
    "fpt-3": lambda o, w: weighted_fpt_circuit(o, w, 3),
    "lexmax": lexicographic_max,
}


@pytest.mark.parametrize("mode", list(TRACED_MODES))
def test_trace_steps_sum_to_run_queries(mode):
    """Every query of a run is charged to exactly one trace step, the fpt
    step's closing certificate check included."""
    instances = [
        random_fpt_instance(seed, n, 3) for seed in range(60) for n in (6, 8, 10)
    ]
    instances += [random_instance(seed, 8, weighted=True) for seed in range(60)]
    for inst in instances:
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        run = TRACED_MODES[mode](o, inst.weight_vector())
        assert sum(step.queries for step in run.trace) == run.queries


# -- lexicographic maximum ----------------------------------------------------


def test_lexmax_crossed():
    m1, m2 = crossed_pair()
    w = fixture_weights()
    o = MinRankOracle(m1, m2)
    run = lexicographic_max(o, w)
    assert run.I == mask_of((0, 3))
    assert run.vector == (1, 0, 1)
    assert total_weight(w, run.I) == 6
    assert run.queries == o.query_count


def test_lexmax_matches_brute():
    m1, m2 = crossed_pair()
    w = fixture_weights()
    vector, witness = brute_lexmax(m1, m2, w)
    run = lexicographic_max(MinRankOracle(m1, m2), w)
    assert run.vector == vector
    assert class_vector(w, weight_classes(w, full_mask(4)), run.I) == vector
    assert class_vector(w, weight_classes(w, full_mask(4)), witness) == vector


def test_lexmax_beats_heavier_set_lexicographically():
    """{1, 2} weighs more (8 > 6) but takes no heaviest-class element."""
    m1, m2 = crossed_pair()
    w = fixture_weights()
    run = lexicographic_max(MinRankOracle(m1, m2), w)
    other = class_vector(w, weight_classes(w, full_mask(4)), mask_of((1, 2)))
    assert other == (0, 2, 0)
    assert run.vector > other
    assert total_weight(w, run.I) < total_weight(w, mask_of((1, 2)))


def _assert_lexmax_levels(m1, m2, w):
    """Each level holds the best class vector among sets of its size and
    reports its own weight under the caller's weights."""
    classes = weight_classes(w, full_mask(m1.n))
    best: dict[int, tuple[int, ...]] = {}
    for I in common_independent_sets(m1, m2):
        k = popcount(I)
        best[k] = max(best.get(k, ()), class_vector(w, classes, I))
    run = lexicographic_max(MinRankOracle(m1, m2), w)
    assert [lv.k for lv in run.levels] == sorted(best)
    for lv in run.levels:
        assert class_vector(w, classes, lv.I) == best[lv.k]
        assert lv.weight == total_weight(w, lv.I)
    assert run.vector == max(best.values())


@pytest.mark.parametrize("n", range(2, 10))
def test_lexmax_levels_are_class_vector_maximal(n):
    for seed in range(8):
        for inst in (
            random_lexmax_instance(seed, n),
            random_instance(seed, n, weighted=True),
        ):
            _assert_lexmax_levels(inst.matroid1, inst.matroid2, inst.weight_vector())


def test_lexmax_path_cost_is_the_signed_class_count():
    """A `path` trace line's cost is, per weight class heaviest first, the
    path's elements inside I minus those outside, read off the sets the
    run passed through (its levels)."""
    paths = 0
    for n in range(6, 10):
        for seed in range(30):
            inst = random_lexmax_instance(seed, n)
            w = inst.weight_vector()
            run = lexicographic_max(MinRankOracle(inst.matroid1, inst.matroid2), w)
            classes = sorted({Fraction(x) for x in w}, reverse=True)
            sets = [lv.I for lv in run.levels]
            for I, J, step in zip(sets, sets[1:], run.trace):
                if step.action != "path":
                    continue
                P, cost = step.detail.removeprefix("P=").split(" cost=")
                assert mask_of(ast.literal_eval(P)) == I ^ J
                want = tuple(
                    sum(1 if (I >> e) & 1 else -1 for e in iter_bits(I ^ J) if w[e] == c)
                    for c in classes
                )
                assert ast.literal_eval(cost) == want
                paths += 1
    assert paths >= 10


def test_lexmax_levels_need_a_large_base():
    """Under class weights 4, 2, 1 (base 2), the size-5 vectors (1, 1, 3)
    and (0, 4, 1) both weigh 9, and the solver keeps the lexicographically
    worse {1,2,3,4,5}; base 2n+1 orders them correctly."""
    blocks1 = [(2, 3, 6), (0, 4), (1, 5), (7,)]
    blocks2 = [(5,), (3, 4), (2, 7), (6,), (0, 1)]
    m1 = PartitionMatroid(8, tuple(map(mask_of, blocks1)), (2, 1, 2, 1))
    m2 = PartitionMatroid(8, tuple(map(mask_of, blocks2)), (1, 2, 1, 1, 1))
    _assert_lexmax_levels(m1, m2, [9, 5, 5, 5, 5, 1, 1, 1])


def test_weight_classes_and_class_vector():
    w = fixture_weights()
    ground = full_mask(4)
    classes = weight_classes(w, ground)
    assert classes == [Fraction(5), Fraction(4), Fraction(1)]
    assert class_vector(w, classes, mask_of((0, 3))) == (1, 0, 1)
    assert class_vector(w, classes, mask_of((1, 2))) == (0, 2, 0)
    assert class_vector(w, classes, 0) == (0, 0, 0)


# -- positive-weight approximation --------------------------------------------


def test_approx_crossed():
    m1, m2 = crossed_pair()
    w = fixture_weights()
    res = approx_max_weight(MinRankOracle(m1, m2), w)
    assert res.I == mask_of((0, 3))
    assert res.weight == 6
    assert res.alpha == Fraction(5, 4)
    assert res.guarantee == Fraction(5, 8)
    best2, _ = brute_w_maximal(m1, m2, w, 2)
    assert res.weight >= res.guarantee * best2


def test_approx_single_weight_class_is_exact():
    m1, m2 = crossed_pair()
    res = approx_max_weight(MinRankOracle(m1, m2), [3, 3, 3, 3])
    assert res.alpha is None
    assert res.guarantee == 1
    assert res.weight == 6  # a maximum common independent set of size 2


def test_approx_ignores_non_positive_elements():
    m1, m2 = crossed_pair()
    res = approx_max_weight(MinRankOracle(m1, m2), [5, -1, -1, 1])
    assert res.I == mask_of((0, 3))
    assert res.weight == 6
    assert res.alpha == Fraction(5)
    assert res.guarantee == 1  # alpha/2 > 1 caps at exactness


def test_approx_all_non_positive():
    m1, m2 = crossed_pair()
    res = approx_max_weight(MinRankOracle(m1, m2), [0, -1, 0, -2])
    assert res == (0, 0, 1, None, 0)


# -- shortest cheapest paths --------------------------------------------------


def _path_graph(succ, n=5, I=mask_of((1, 3)), S=bit(0), T=bit(4)):
    return ExchangeGraph(n, I, S, T, succ, kind="resolved")


def test_path_tie_breaks_shorter_then_lexicographic():
    # 0->1->2->3->4 and 0->3->4 at equal (zero) cost: shorter wins.
    g = _path_graph([bit(1) | bit(3), bit(2), bit(3), bit(4), 0])
    w = [0] * 5
    assert shortest_cheapest_path(g, w) == ([0, 3, 4], 0)

    # Two length-3 paths 0->1->4 / 0->3->4: smaller vertex sequence wins.
    g2 = _path_graph([bit(1) | bit(3), bit(4), 0, bit(4), 0])
    assert shortest_cheapest_path(g2, w) == ([0, 1, 4], 0)


def test_path_prefers_cheaper_over_shorter():
    g = _path_graph([bit(1) | bit(3), bit(2), bit(3), bit(4), 0])
    w = [0, -6, 0, -1, 0]  # 1 and 3 lie in I, so they cost w
    # 0,1,2,3,4 costs -7; 0,3,4 costs -1.
    assert shortest_cheapest_path(g, w) == ([0, 1, 2, 3, 4], 0)


def test_path_single_vertex_when_source_is_sink():
    g = ExchangeGraph(2, bit(1), bit(0), bit(0), [0, 0], kind="resolved")
    assert shortest_cheapest_path(g, [2, 1]) == ([0], 0)


def test_path_unreachable_returns_none():
    g = _path_graph([bit(1), 0, bit(3), bit(4), 0])
    assert shortest_cheapest_path(g, [0] * 5) == (None, mask_of((2, 3, 4)))


def test_path_negative_cycle_detected():
    # 1 <-> 2 with total cost -1 per lap, sink still reachable via 1->4.
    g = ExchangeGraph(
        5,
        bit(1),
        bit(0),
        bit(4),
        [bit(1), bit(2) | bit(4), bit(1), 0, 0],
        kind="resolved",
    )
    w = [0, -1, 0, 0, 0]  # 1 lies in I, so it costs w
    with pytest.raises(NegativeCycleError):
        shortest_cheapest_path(g, w)


def _reaches_sink(g: ExchangeGraph) -> int:
    reach = g.T
    while True:
        more = reach | mask_of(v for v in range(g.n) if g.succ[v] & reach)
        if more == reach:
            return reach
        reach = more


def test_cheapest_path_matches_brute_force_on_random_graphs():
    """On seeded random graphs with int and Fraction weights, the search
    raises exactly when some negative simple cycle has a vertex that reaches
    a sink; otherwise it returns the brute-force minimum of (`path_cost`,
    length, vertex sequence) over simple source-sink paths, or (None, Z)
    with Z the vertices that reach a sink. `_fpt_augment` met no negative
    cycle in 1,658 searches over `random_fpt_instance(seed, n, 3)`, seeds
    0..399 and n = 6..9, so this test is what covers the raise rule."""
    rng = random.Random(12)
    longer = raised = 0
    for _ in range(20000):
        n = rng.randint(1, 9)
        I = rng.getrandbits(n)
        outside = full_mask(n) & ~I
        # Heads out of I are drawn first, then heads into I.
        succ = [rng.getrandbits(n) & outside if (I >> v) & 1 else 0 for v in range(n)]
        for v in iter_bits(outside):
            succ[v] = rng.getrandbits(n) & I
        S = T = 0
        for v in iter_bits(outside):  # 10% both, 35% source, 50% sink
            r = rng.random()
            S |= (r < 0.45) << v
            T |= (r < 0.1 or r > 0.5) << v
        g = ExchangeGraph(n, I, S, T, succ, kind="resolved")
        w = [
            Fraction(rng.randint(-7, 7), 2) if rng.random() < 0.5 else rng.randint(-3, 3)
            for _ in range(n)
        ]
        reach = _reaches_sink(g)
        if any(
            path_cost(cycle, I, w) < 0 and mask_of(cycle) & reach
            for cycle in simple_cycles(g)
        ):
            raised += 1
            with pytest.raises(NegativeCycleError):
                shortest_cheapest_path(g, w)
            continue
        paths = simple_st_paths(g)
        if not paths:
            assert shortest_cheapest_path(g, w) == (None, reach)
            continue
        best = min(paths, key=lambda p: (path_cost(p, I, w), len(p), p))
        longer += len(best) > 1
        assert shortest_cheapest_path(g, w) == (list(best), 0)
    assert longer >= 1000 and raised >= 1000  # 1330 and 7438


INT_PATH_MODES = {
    "weighted": (random_promise_instance, weighted_no_circuit_inclusion),
    "fpt": (lambda seed, n: random_fpt_instance(seed, n, 3),
            lambda o, w: weighted_fpt_circuit(o, w, 3)),
    "lexmax": (lambda seed, n: random_instance(seed, n, weighted=True), lexicographic_max),
    "approx": (lambda seed, n: random_instance(seed, n, weighted=True), approx_max_weight),
}


@pytest.mark.parametrize("mode", list(INT_PATH_MODES))
def test_path_search_receives_only_int_weights(mode, monkeypatch):
    """Every weighted mode hands the cheapest-path search exact ints, scaled
    once per run, even when the caller's weights are Fractions; so Fraction
    arithmetic cannot come back into the path search unnoticed."""
    seen: list[list] = []
    search = minrank.solvers.shortest_cheapest_path

    def recorded(g, w):
        seen.append(list(w))
        return search(g, w)

    monkeypatch.setattr(minrank.solvers, "shortest_cheapest_path", recorded)
    make, solve = INT_PATH_MODES[mode]
    halves = 0
    for seed in range(20):
        inst = make(seed, 8)
        w = inst.weight_vector()
        halves += any(Fraction(x).denominator > 1 for x in w)
        solve(MinRankOracle(inst.matroid1, inst.matroid2), w)
    assert halves and seen
    assert all(type(x) is int for w in seen for x in w)


def test_path_cost_orientation():
    w = fixture_weights()
    costs = [path_cost((v,), mask_of((0, 3)), w) for v in range(4)]
    assert costs == [5, -4, -4, 1]


def test_total_weight_is_exact():
    w = [Fraction(1, 3), Fraction(1, 6), 0, 1]
    assert total_weight(w, mask_of((0, 1))) == Fraction(1, 2)
    assert total_weight(w, 0) == 0


# -- lying oracles ------------------------------------------------------------


class PerturbedOracle(MinRankOracle):
    """Answers off by one on a seeded 5% of queries: no matroid pair fits."""

    def __init__(self, m1, m2, seed: int):
        super().__init__(m1, m2)
        self._rng = random.Random(seed)

    def rmin(self, mask: int) -> int:
        value = super().rmin(mask)
        if self._rng.random() < 0.05:
            value += self._rng.choice((-1, 1))
        return value


class HashedLiar(MinRankOracle):
    """Answers off by one on about 5% of masks, picked and signed by a
    sha256 of (seed, mask): a function, so a repeated query repeats its lie."""

    def __init__(self, m1, m2, seed: int):
        super().__init__(m1, m2)
        self._seed = seed

    def rmin(self, mask: int) -> int:
        value = super().rmin(mask)
        h = hashlib.sha256(f"{self._seed}:{mask}".encode()).digest()
        if h[0] < 13:  # 13/256, about 5%
            value += 1 if h[1] & 1 else -1
        return value


class ScriptedLiar(MinRankOracle):
    """Answers `lies[mask]` for the masks it lies about, honestly elsewhere."""

    def __init__(self, m1, m2, lies: dict[int, int]):
        super().__init__(m1, m2)
        self._lies = lies

    def rmin(self, mask: int) -> int:
        value = super().rmin(mask)
        return self._lies.get(mask, value)


@pytest.mark.parametrize(
    "mask,value",
    [
        (mask_of((0, 1)), 2),  # the first prefix lifts two flat elements by two
        (mask_of((0, 1)), -1),  # a prefix falls below |I|
        (mask_of((0, 2)), 2),  # the first prefix of the second search, with t
    ],
    ids=["lifts-by-two", "below-I", "second-search"],
)
def test_survey_lie_is_a_contract_violation(mask, value):
    """An answer the prefix searches of the survey cannot hold to (a set of
    flat elements lifts the min-rank by more than half its size, or below
    |I|) surfaces as ContractViolationError naming the set, never as a
    TypeError or IndexError from a search."""
    m1, m2 = lift_by_two_pair()
    with pytest.raises(ContractViolationError, match=re.escape(format_set(mask))):
        max_cardinality(ScriptedLiar(m1, m2, {mask: value}))


@pytest.mark.parametrize("value", [-1, 2])
def test_singleton_lie_is_a_contract_violation(value):
    """A singleton answer outside |I| .. |I| + 1 (here at I = {}) is no
    flat element and no lift; the survey's scan reports it by its mask
    instead of filing the element as flat."""
    m1, m2 = crossed_pair()
    with pytest.raises(ContractViolationError, match=re.escape(format_set(bit(0)))):
        max_cardinality(ScriptedLiar(m1, m2, {bit(0): value}))


@pytest.mark.parametrize(
    "seed,n,mode,mask,value",
    [
        (None, 7, "lexmax", mask_of((0, 2)), 3),
        (None, 7, "lexmax", mask_of((0, 3, 4, 5)), 4),
        (5, 5, "cardinality", bit(3), 2),
        (5, 5, "cardinality", mask_of((1, 2, 4)), 3),
        (None, 7, "lexmax", mask_of((0, 1, 5)), 2),
    ],
    ids=["star", "plain", "bfs-column", "bfs-tail", "denied-member"],
)
def test_group_test_lie_is_a_contract_violation(seed, n, mode, mask, value):
    """A group test answered outside its two allowed values surfaces as
    ContractViolationError naming the set it asked, never as a wrong arc:
    in a star's circuit and in a plain element's group with a probe (both
    in the intersected graph of `random_lexmax_instance(1, 7)`), and in the
    on-demand search of `random_instance(5, 5)`, at a sink's column and in
    a group of tails. A member implied by its sibling's answer but denied
    by its own (`denied-member`, an answer in range) is reported the same
    way."""
    if seed is None:
        inst = random_lexmax_instance(1, n)
    else:
        inst = random_instance(seed, n, weighted=True)
    o = ScriptedLiar(inst.matroid1, inst.matroid2, {mask: value})
    message = f"rmin({format_set(mask)}) = {value}, but the group test of"
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        if mode == "cardinality":
            max_cardinality(o)
        else:
            lexicographic_max(o, inst.weight_vector())


class NthQueryLiar(MinRankOracle):
    """Answers `value` to the `nth` query (counting from 1), honestly
    elsewhere."""

    def __init__(self, m1, m2, nth: int, value: int):
        super().__init__(m1, m2)
        self._nth = nth
        self._value = value

    def rmin(self, mask: int) -> int:
        value = super().rmin(mask)
        return self._value if self.query_count == self._nth else value


@pytest.mark.parametrize(
    "nth,named",
    [(7, "rmin({0,3}) = 1,"), (8, "rmin({0,1,2,3}) = 1,"), (9, "rmin({}) = 1")],
    ids=["I", "Z", "E-minus-Z"],
)
def test_certificate_lie_is_a_contract_violation(nth, named):
    """On the crossed pair the last step follows the direct add of 3, so no
    entry check asks rmin({0,3}): its certificate check asks it (query 7),
    then rmin(Z) and rmin(E \\ Z) with Z = E. A lie in any of the three is
    a ContractViolationError naming the masks and values."""
    m1, m2 = crossed_pair()
    with pytest.raises(ContractViolationError, match=re.escape(named)):
        max_cardinality(NthQueryLiar(m1, m2, nth, 1))


LYING_MODES = ["cardinality", "lexmax", "weighted", "fpt", "approx"]


@pytest.mark.parametrize(
    "liar,mode",
    [(liar, m) for liar in (PerturbedOracle, HashedLiar) for m in LYING_MODES],
    ids=LYING_MODES + [f"{m}-per-mask" for m in LYING_MODES],
)
def test_lying_oracle_returns_or_reports_contract_violation(liar, mode):
    """A lie may pass unnoticed, but it must never surface as a ValueError,
    whether the liar draws its lies per query or fixes them per mask."""
    violations = 0
    for seed in range(40):
        if mode == "weighted":
            inst = random_promise_instance(seed, 8)
        elif mode == "fpt":
            inst = random_fpt_instance(seed, 8, 3)
        else:
            inst = random_instance(seed, 8, weighted=True)
        o = liar(inst.matroid1, inst.matroid2, seed)
        w = inst.weight_vector()
        try:
            if mode == "cardinality":
                max_cardinality(o)
            elif mode == "lexmax":
                lexicographic_max(o, w)
            elif mode == "weighted":
                weighted_no_circuit_inclusion(o, w)
            elif mode == "fpt":
                weighted_fpt_circuit(o, w, 3)
            else:
                approx_max_weight(o, w)
        except ContractViolationError:
            violations += 1
    assert violations > 0  # the lies do reach the augmentation steps


@pytest.mark.parametrize("liar", [PerturbedOracle, HashedLiar])
def test_lying_oracle_never_gets_a_wrong_cardinality_answer(liar):
    """Under either liar, `max_cardinality` raises ContractViolationError
    or returns a largest common independent set. A resumed step asks
    fewer questions, so a lie can slip past the survey (seeds 71 and 174
    end at a wrong set without the certificate check); the certifying
    step's `rmin(I) = |I|` and `rmin(Z) + rmin(E \\ Z) = |I|` catch it."""
    for seed in range(200):
        inst = random_instance(seed, 8, weighted=True)
        table = BruteTable(inst.matroid1, inst.matroid2)
        try:
            run = max_cardinality(liar(inst.matroid1, inst.matroid2, seed))
        except ContractViolationError:
            continue
        assert run.I in table.common
        assert popcount(run.I) == table.max_common()[0]
