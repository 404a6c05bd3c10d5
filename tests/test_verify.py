"""Brute-force referees and the graph-construction audit."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from minrank import (
    BruteReport,
    ColoredGraph,
    ContractViolationError,
    ExchangeGraph,
    ExplicitMatroid,
    GraphicMatroid,
    MinRankOracle,
    PartitionMatroid,
    UniformMatroid,
    audit_graphs,
    bit,
    brute_dual,
    brute_lexmax,
    brute_max_common,
    brute_w_maximal,
    build_gadget,
    build_true_graph,
    check_promise_no_circuit_inclusion,
    common_independent_sets,
    full_mask,
    iter_bits,
    mask_of,
    popcount,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
    survey_extensions,
)
from minrank.gadgets import COLORS
from minrank.solvers import class_vector, path_cost, weight_classes
from minrank.verify import (
    BruteTable,
    has_perfect_matching,
    simple_cycles,
    simple_st_paths,
)
from conftest import crossed_pair, fixture_weights, small_zoo, triangle


def _table_pairs() -> list:
    """Every same-size pair of the zoo, and a pair that breaks exchange."""
    pairs = [
        pytest.param(m1, m2, id=f"{m1.kind}-{m2.kind}-n{m1.n}")
        for m1 in small_zoo()
        for m2 in small_zoo()
        if m1.n == m2.n
    ]
    non_matroid = ExplicitMatroid(4, [0, 1, 2, 3, 4, 8, 12])
    other = ExplicitMatroid(4, [0, 2, 4, 6, 8, 10])
    return pairs + [pytest.param(non_matroid, other, id="non-matroid")]


# -- exhaustive enumeration ----------------------------------------------------


def test_common_independent_sets_crossed():
    m1, m2 = crossed_pair()
    sets = sorted(common_independent_sets(m1, m2))
    assert sets == [0, 1, 2, 4, 6, 8, 9]
    assert all(m1.is_independent(I) and m2.is_independent(I) for I in sets)


@pytest.mark.parametrize("m1,m2", _table_pairs())
def test_brute_table_agrees_with_independent_judges(m1, m2):
    """The table's common sets are the depth-first enumeration's (an
    ExplicitMatroid reads independence off its bases, so its independent
    sets stay downward closed even where exchange fails), and its circuits
    are the minimal dependent sets."""
    table = BruteTable(m1, m2)
    assert table.common == sorted(common_independent_sets(m1, m2))
    for m, got in zip((m1, m2), table.circuits):
        minimal_dependent = [
            X
            for X in range(1, full_mask(m.n) + 1)
            if not m.is_independent(X)
            and all(m.is_independent(X & ~bit(e)) for e in range(m.n) if (X >> e) & 1)
        ]
        assert got == minimal_dependent


def test_brute_max_common_crossed():
    m1, m2 = crossed_pair()
    assert brute_max_common(m1, m2) == (2, mask_of((1, 2)))


def test_brute_max_common_identical_matroids():
    m = UniformMatroid(2, 4)
    size, witness = brute_max_common(m, m)
    assert size == 2
    assert witness == mask_of((0, 1))


def test_brute_dual_crossed():
    m1, m2 = crossed_pair()
    value, argmin = brute_dual(m1, m2)
    assert value == 2
    assert argmin == 0  # Z = empty set: rmin(E) alone equals the optimum


def test_brute_dual_free_versus_rank_one():
    m1 = UniformMatroid(3, 3)
    m2 = UniformMatroid(1, 3)
    assert brute_dual(m1, m2) == (1, 0)


def test_brute_dual_agrees_with_max_size():
    for m1 in small_zoo():
        for m2 in small_zoo():
            if m1.n != m2.n:
                continue
            size, _ = brute_max_common(m1, m2)
            value, _ = brute_dual(m1, m2)  # raises unless both dual forms agree
            assert value == size


def test_brute_dual_rejects_a_non_matroid_pair():
    # The first family breaks the augmentation axiom: {0} takes neither
    # element of {2, 3}. The min-rank form bottoms out at 2 while no two
    # elements are independent in both.
    m1 = ExplicitMatroid(4, [0, 1, 2, 3, 4, 8, 12])
    m2 = ExplicitMatroid(4, [0, 2, 4, 6, 8, 10])
    with pytest.raises(ContractViolationError, match="duality mismatch"):
        brute_dual(m1, m2)


def test_brute_w_maximal_crossed():
    m1, m2 = crossed_pair()
    w = fixture_weights()
    assert brute_w_maximal(m1, m2, w, 0) == (0, (0,))
    assert brute_w_maximal(m1, m2, w, 1) == (5, (bit(0),))
    assert brute_w_maximal(m1, m2, w, 2) == (8, (mask_of((1, 2)),))
    assert brute_w_maximal(m1, m2, w, 3) == (None, ())


def test_brute_w_maximal_reports_all_argmaxes():
    m1, m2 = crossed_pair()
    best, argmaxes = brute_w_maximal(m1, m2, [1, 1, 1, 1], 2)
    assert best == 2
    assert argmaxes == (mask_of((1, 2)), mask_of((0, 3)))


def test_brute_lexmax_crossed():
    m1, m2 = crossed_pair()
    vector, witness = brute_lexmax(m1, m2, fixture_weights())
    assert vector == (1, 0, 1)
    assert witness == mask_of((0, 3))
    w = fixture_weights()
    assert class_vector(w, weight_classes(w, full_mask(4)), witness) == vector


# -- circuit structure ---------------------------------------------------------


def test_circuits_partition():
    assert BruteTable(*crossed_pair()).circuits == (
        [mask_of((0, 1)), mask_of((2, 3))],
        [mask_of((0, 2)), mask_of((1, 3))],
    )


def test_circuits_graphic_triangle():
    """Each matroid's circuits, read from its own rank list."""
    assert BruteTable(triangle(), UniformMatroid(3, 3)).circuits == ([mask_of((0, 1, 2))], [])


def test_circuits_uniform():
    assert BruteTable(UniformMatroid(2, 3), UniformMatroid(1, 3)).circuits == (
        [mask_of((0, 1, 2))],
        [mask_of((0, 1)), mask_of((0, 2)), mask_of((1, 2))],
    )
    assert BruteTable(UniformMatroid(3, 3), UniformMatroid(3, 3)).circuits == ([], [])


def test_largest_circuit_size():
    """The largest circuit of either matroid; 0 when both are free."""
    assert BruteTable(*crossed_pair()).largest_circuit() == 2
    assert BruteTable(triangle(), UniformMatroid(3, 3)).largest_circuit() == 3
    assert BruteTable(UniformMatroid(3, 3), triangle()).largest_circuit() == 3
    assert BruteTable(UniformMatroid(3, 3), UniformMatroid(3, 3)).largest_circuit() == 0


def test_promise_holds_for_crossed_partitions():
    m1, m2 = crossed_pair()
    assert check_promise_no_circuit_inclusion(m1, m2)


def test_promise_fails_for_identical_and_nested_circuits():
    m1, _ = crossed_pair()
    assert not check_promise_no_circuit_inclusion(m1, m1)
    # Triangle and U(2,3) share the circuit {0,1,2}.
    assert not check_promise_no_circuit_inclusion(triangle(), UniformMatroid(2, 3))


# -- small graph combinatorics --------------------------------------------------


def test_perfect_matchings_two_by_two():
    both = mask_of((1, 2))
    g = ExchangeGraph(mask_of((0, 3)), 0, 0, [both, 0, 0, both])
    assert has_perfect_matching(g, 1, mask_of((0, 3)), both)
    assert not has_perfect_matching(g, 1, mask_of((0, 3)), bit(1))
    assert not has_perfect_matching(g, 2, mask_of((0, 3)), both)
    crowded = ExchangeGraph(mask_of((0, 3)), 0, 0, [bit(1), 0, 0, bit(1)])
    assert not has_perfect_matching(crowded, 1, mask_of((0, 3)), both)


def test_has_perfect_matching_matches_brute_force():
    """Random layers with sides of 0..5 vertices, equal and unequal, judged
    by trying every assignment of the left side to the right side."""
    rng = random.Random(7)
    answers = {True: 0, False: 0}
    equal_false = 0
    for _ in range(4000):
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        n = a + b
        order = rng.sample(range(n), n)
        I = mask_of(order[:a])
        inside, outside = sorted(order[:a]), sorted(order[a:])
        p = rng.random()
        succ = [0] * n
        for y in inside:
            succ[y] = mask_of(x for x in outside if rng.random() < p)
        for x in outside:
            succ[x] = mask_of(y for y in inside if rng.random() < p)
        g = ExchangeGraph(I, 0, 0, succ)
        left = [y for y in inside if rng.random() < 0.7]
        right = [x for x in outside if rng.random() < 0.7]
        if rng.random() < 0.5:
            right = right[: len(left)]
            left = left[: len(right)]
        layers = {
            1: lambda y, x: (succ[y] >> x) & 1,
            2: lambda y, x: (succ[x] >> y) & 1,
        }
        for layer, adjacent in layers.items():
            want = len(left) == len(right) and any(
                all(adjacent(y, x) for y, x in zip(left, xs))
                for xs in permutations(right)
            )
            assert has_perfect_matching(g, layer, mask_of(left), mask_of(right)) == want
            answers[want] += 1
            equal_false += len(left) == len(right) and not want
    assert answers[True] >= 2000 and answers[False] >= 2000, answers
    assert equal_false >= 1000, equal_false


def test_true_graph_cycle_and_matching_count():
    m1, m2 = crossed_pair()
    D = build_true_graph(m1, m2, mask_of((0, 3)))
    cycles = simple_cycles(D)
    assert len(cycles) == 1
    assert sorted(cycles[0]) == [0, 1, 2, 3]
    assert has_perfect_matching(D, 1, mask_of((0, 3)), mask_of((1, 2)))
    assert has_perfect_matching(D, 2, mask_of((0, 3)), mask_of((1, 2)))
    assert simple_st_paths(D) == []  # no sources or sinks at a maximum


def test_true_graph_st_paths_at_size_one():
    m1, m2 = crossed_pair()
    D = build_true_graph(m1, m2, bit(0))
    got = {tuple(p) for p in simple_st_paths(D)}
    assert got == {(3,), (2, 0, 1), (2, 0, 3), (3, 0, 1)}


def test_path_cost_signs():
    w = fixture_weights()
    I = mask_of((0, 3))
    # Cycle 0 -> 1 -> 3 -> 2 -> 0: +5 -4 +1 -4 = -2.
    assert path_cost((0, 1, 3, 2), I, w) == Fraction(-2)
    assert path_cost((3,), bit(0), w) == Fraction(-1)


def test_brute_report_str():
    ok = BruteReport("inst", "max-size", 2, 2)
    bad = BruteReport("inst", "max-size", 2, 1)
    assert BruteReport._fields == ("instance", "quantity", "brute", "solver")
    assert ok.ok and not bad.ok
    assert str(ok) == "[ok] inst: max-size brute=2 solver=2"
    assert str(bad) == "[MISMATCH] inst: max-size brute=2 solver=1"


# -- the graph audit -----------------------------------------------------------


def test_audit_passes_on_fixture_bases():
    m1, m2 = crossed_pair()
    for I in common_independent_sets(m1, m2):
        reports = audit_graphs(m1, m2, I, w=fixture_weights())
        assert reports, "audit must always report something"
        failing = [str(r) for r in reports if not r.ok]
        assert failing == []


def test_audit_passes_across_zoo():
    for m1 in small_zoo():
        for m2 in small_zoo():
            if m1.n != m2.n or m1.n > 4:
                continue
            for I in common_independent_sets(m1, m2):
                failing = [r for r in audit_graphs(m1, m2, I) if not r.ok]
                assert failing == []


def test_audit_reports_carry_instance_label():
    m1, m2 = crossed_pair()
    reports = audit_graphs(m1, m2, bit(0), instance="crossed@1")
    assert all(r.instance == "crossed@1" for r in reports)


def test_audit_flags_dropped_sure_arc():
    """A resolved graph missing a certainly-true arc must trip the audit."""
    m1, m2 = crossed_pair()

    def drop_first(C: ExchangeGraph) -> ExchangeGraph:
        succ = list(C.succ)
        sure = list(C.sure)
        for y in iter_bits(C.I):
            if succ[y]:
                x = succ[y] & -succ[y]
                succ[y] &= ~x
                sure[y] &= ~x
                break
        return ExchangeGraph(C.I, C.S, C.T, succ, sure=sure)

    reports = audit_graphs(m1, m2, bit(0), w=fixture_weights(), mutate=drop_first)
    failing = {r.quantity for r in reports if not r.ok}
    assert "resolved-within-bounds" in failing


def test_audit_flags_rewired_graph():
    """Swapping the resolved graph for a wrong-shape one must trip the audit."""
    m1, m2 = crossed_pair()

    def clear_layer2(C: ExchangeGraph) -> ExchangeGraph:
        def out_of_I(masks):
            return [m if (C.I >> v) & 1 else 0 for v, m in enumerate(masks)]

        return ExchangeGraph(C.I, C.S, C.T, out_of_I(C.succ), sure=out_of_I(C.sure))

    reports = audit_graphs(m1, m2, bit(0), mutate=clear_layer2)
    assert any(not r.ok for r in reports)


def test_audit_covers_the_swapped_orientation():
    """The survey's probe pair may have a true sink as `s`; the solvers then
    build the graphs of the swapped matroid pair. The oracle is symmetric,
    so auditing (m2, m1) audits exactly the graphs they use."""
    sets = 0
    for seed in range(200):
        inst = random_instance(seed, 2 + seed % 7, weighted=True)
        m1, m2 = inst.matroid1, inst.matroid2
        o = MinRankOracle(m1, m2)
        for I in common_independent_sets(m1, m2):
            pair = survey_extensions(o, I).pair
            if pair is None or not (build_true_graph(m1, m2, I).T >> pair.s) & 1:
                continue
            sets += 1
            reports = audit_graphs(m2, m1, I, w=inst.weight_vector())
            assert [str(r) for r in reports if not r.ok] == []
    assert sets >= 50


def test_audit_reaches_every_builder_on_the_weighted_generators():
    """Most sets of the acceptance sweep stop at `no-probe-pair`. Here every
    common independent set with a probe pair is audited, so each audit
    reaches the intersected graph, the clause system and the resolved
    graph's partition checks."""
    sets = 0
    for seed in range(20):
        n = 5 + seed % 4
        for inst in (
            random_promise_instance(seed, n),
            random_fpt_instance(seed, n, 3),
            random_lexmax_instance(seed, n),
        ):
            m1, m2 = inst.matroid1, inst.matroid2
            o = MinRankOracle(m1, m2)
            for I in common_independent_sets(m1, m2):
                if survey_extensions(o, I).pair is None:
                    continue
                sets += 1
                reports = audit_graphs(m1, m2, I, w=inst.weight_vector())
                assert [str(r) for r in reports if not r.ok] == []
                quantities = {r.quantity for r in reports}
                assert {"intersected-contains-true", "cycle-partition"} <= quantities
    assert sets >= 200


def test_audit_trips_on_an_arc_across_an_evil_pair():
    """In each single-vertex gadget the resolved graph leaves the evil pair
    X = {x1, x2}, Y = {y1, y2} underestimated, with no arc between them.
    An added arc (y1, x1) stays within the intersected graph's bounds but
    breaks that rule."""
    for color in COLORS:
        gi = build_gadget(ColoredGraph(1, (), (color,)))
        m1, m2 = gi.as_matroids()
        x1, y1 = gi.vertex_x[0][0], gi.vertex_y[0][0]

        def add_arc(C: ExchangeGraph) -> ExchangeGraph:
            succ = list(C.succ)
            succ[y1] |= bit(x1)
            return ExchangeGraph(C.I, C.S, C.T, succ, sure=C.sure)

        assert all(r.ok for r in audit_graphs(m1, m2, gi.I))
        reports = audit_graphs(m1, m2, gi.I, mutate=add_arc)
        assert [r.quantity for r in reports if not r.ok] == [
            "resolved-almost-consistent"
        ]


def test_audit_trivial_when_no_probe_pair():
    m1, m2 = crossed_pair()
    reports = audit_graphs(m1, m2, mask_of((0, 3)))
    assert len(reports) == 1
    assert reports[0].quantity == "no-probe-pair"
    assert reports[0].ok


def test_audit_rejects_large_ground_set():
    m = UniformMatroid(3, 12)
    with pytest.raises(ValueError):
        audit_graphs(m, m, 0)
