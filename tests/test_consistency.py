"""Local-exchange observations, the clause system, and 2-SAT resolution."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

import minrank.consistency
import minrank.solvers
from minrank import (
    ContractViolationError,
    ExchangeGraph,
    MinRankOracle,
    UniformMatroid,
    almost_consistent_graph,
    bit,
    build_true_graph,
    full_mask,
    intersect_modified,
    lexicographic_max,
    mask_of,
    popcount,
    random_fpt_instance,
    random_instance,
    random_promise_instance,
    survey_extensions,
    weighted_fpt_circuit,
    weighted_no_circuit_inclusion,
)
from minrank.consistency import ObservationTable, TwoSat, build_cnf, solve_2sat
from minrank.verify import all_observations, check_consistency, consistency_summary
from conftest import crossed_pair, small_zoo, triangle


def _table(m1, m2, I):
    return ObservationTable(MinRankOracle(m1, m2), build_true_graph(m1, m2, I))


def _bare(o, I):
    """A table at I whose graph has no arcs, sources or sinks, so every
    outside element is plain."""
    return ObservationTable(o, ExchangeGraph(I, 0, 0, [0] * o.ground.bit_length()))


def test_observation_count_one_each():
    """One inside and one outside element: exactly one pair shape."""
    m1 = UniformMatroid(1, 2)
    m2 = UniformMatroid(1, 2)
    # I={0}; the other element is not addable (rank 1), so S=T=empty.
    t = _table(m1, m2, bit(0))
    assert len(list(t.pairs())) == 1
    assert len(all_observations(t)) == 1


def test_observation_count_nine():
    """|I|=2 with two plain outside elements: 3 X-shapes x 3 Y-shapes."""
    m1, m2 = crossed_pair()
    I = mask_of((0, 3))
    t = _table(m1, m2, I)
    assert len(t.x_sets) == 3
    assert len(t.y_sets) == 3
    obs = all_observations(t)
    assert len(obs) == 9
    assert list(obs) == list(t.pairs())


def test_observations_match_oracle_recomputation():
    m1, m2 = crossed_pair()
    I = mask_of((0, 3))
    o = MinRankOracle(m1, m2)
    t = _bare(o, I)
    fresh = MinRankOracle(m1, m2)
    for (X, Y), value in all_observations(t).items():
        assert value == fresh.rmin((I | X) & ~Y)


def test_observation_value_bounds():
    for m1 in small_zoo():
        for m2 in small_zoo():
            if m1.n != m2.n or m1.n > 4:
                continue
            o = MinRankOracle(m1, m2)
            for I in range(1 << m1.n):
                if o.rmin(I) != popcount(I) or I == 0:
                    continue
                t = _bare(o, I)
                k = popcount(I)
                for (X, Y), value in all_observations(t).items():
                    # Dropping Y removes at most |Y| rank; adding X restores
                    # at most |X|.
                    lo = k - popcount(Y)
                    hi = lo + popcount(X)
                    assert lo <= value <= hi


def test_observation_caching():
    m1, m2 = crossed_pair()
    o = MinRankOracle(m1, m2)
    t = _bare(o, mask_of((0, 3)))
    all_observations(t)
    spent = o.query_count
    all_observations(t)
    assert o.query_count == spent  # cached by exchanged-set mask


def test_is_evil_shape_requirements():
    m1, m2 = crossed_pair()
    t = _table(m1, m2, mask_of((0, 3)))
    X2 = mask_of((1, 2))
    Y2 = mask_of((0, 3))
    # |X|=1 pairs are never evil.
    assert not t.is_evil(bit(1), Y2)
    assert isinstance(t.is_evil(X2, Y2), bool)


class _Prescribed:
    """An oracle stub that answers prescribed min-ranks of the exchanged
    sets (I | X) & ~Y and records the masks it is asked."""

    def __init__(self, n, I, values):
        self.ground = full_mask(n)
        self.asked = []
        self._answers = {(I | X) & ~Y: v for (X, Y), v in values.items()}

    def rmin(self, mask):
        self.asked.append(mask)
        return self._answers[mask]


def test_evil_requires_exact_subpair_values():
    I = mask_of((0, 1))
    X, Y = mask_of((2, 3)), I
    exact = {
        (X, Y): 1,
        (bit(2), bit(0)): 1, (bit(2), bit(1)): 1,
        (bit(2), Y): 0,
        (bit(3), bit(0)): 1, (bit(3), bit(1)): 1,
        (bit(3), Y): 0,
        (X, bit(0)): 1, (X, bit(1)): 1,
    }
    t = _bare(_Prescribed(4, I, exact), I)
    assert t.is_evil(X, Y)
    assert t.evil_pairs(bit(0)) == [(X, Y)]
    # A pair whose Y misses J is never tested.
    o = _Prescribed(4, I, exact)
    assert _bare(o, I).evil_pairs(0) == []
    assert o.asked == []
    # One subpair value |I|-|Y'|+1: not evil, yet all eight subpairs are
    # still asked, so the queries do not depend on where the slack sits.
    off = dict(exact)
    off[(bit(2), bit(0))] = 2
    o = _Prescribed(4, I, off)
    t = _bare(o, I)
    assert not t.is_evil(X, Y)
    assert len(o.asked) == 9
    # The pair itself must sit at |I| - 1.
    low = dict(exact)
    low[(X, Y)] = 0
    assert not _bare(_Prescribed(4, I, low), I).is_evil(X, Y)
    # Wrong shape is never evil, regardless of values.
    assert not _bare(_Prescribed(4, I, exact), I).is_evil(bit(2), bit(0))


def test_cnf_case_1x1_high_forces_both():
    """Value |I| on a 1x1 pair forces the arc in both directions."""
    # Identical uniform matroids: swapping 2 for either of {0, 1} keeps
    # full rank, so every 1x1 pair is high.
    m = UniformMatroid(2, 3)
    o = MinRankOracle(m, m)
    I = mask_of((0, 1))
    succ = [bit(2), bit(2), mask_of((0, 1))]  # 0->2, 1->2 out of I; 2->0, 2->1 into I
    g = ExchangeGraph(I, 0, 0, succ, sure=[0] * 3)
    f = build_cnf(ObservationTable(o, g))
    assert f.clauses
    assignment = solve_2sat(f)
    assert assignment is not None
    for arc in ((2, 0), (0, 2), (2, 1), (1, 2)):
        assert assignment[arc] is True

    # Dropping one reverse arc makes the same high pair unsatisfiable.
    g_broken = ExchangeGraph(I, 0, 0, [0, bit(2), mask_of((0, 1))], sure=[0] * 3)
    assert solve_2sat(build_cnf(ObservationTable(o, g_broken))) is None

    # The resolver keeps exactly the four arcs, and refuses the broken graph.
    C = almost_consistent_graph(o, g)
    assert sorted(C.arcs()) == [(0, 2), (1, 2), (2, 0), (2, 1)]
    assert C.sure == g.sure
    with pytest.raises(ContractViolationError, match="unsatisfiable"):
        almost_consistent_graph(o, g_broken)


# -- the clause table, row by row ---------------------------------------------
#
# Each test compiles prescribed values with every arc between I and the
# plain elements present and suspicious, so no literal folds away, and
# compares the whole clause list. The table walks every subpair too; their
# clauses come first, in pair order.


def _compiled(n, I, values, names):
    out = full_mask(n) & ~I
    succ = [out if (I >> v) & 1 else I for v in range(n)]
    g = ExchangeGraph(I, 0, 0, succ, sure=[0] * n)
    f = build_cnf(ObservationTable(_Prescribed(n, I, values), g))
    assert not f.contradiction

    def spell(lit):
        name = names[f.variables[abs(lit) - 1]]
        return name if lit > 0 else "~" + name

    return [(spell(l1), spell(l2)) for l1, l2 in f.clauses]


# One-for-one: I = {0}, x = 1.
_NAMES_11 = {(1, 0): "a", (0, 1): "b"}


def _one_for_one(value):
    return _compiled(2, bit(0), {(bit(1), bit(0)): value}, _NAMES_11)


# One-for-two: I = {0, 1}, x = 2; a_j = (x, y_j), b_j = (y_j, x). The two
# one-for-one subpairs sit at |I| - 1 and come first.
_NAMES_12 = {(2, 0): "a1", (2, 1): "a2", (0, 2): "b1", (1, 2): "b2"}
_SUBPAIRS_12 = [("~a1", "~b1"), ("~a2", "~b2")]


def _one_for_two(value):
    values = {
        (bit(2), bit(0)): 1,
        (bit(2), bit(1)): 1,
        (bit(2), mask_of((0, 1))): value,
    }
    return _compiled(3, mask_of((0, 1)), values, _NAMES_12)


# Two-for-one: I = {0}, x_i = i; a_i = (x_i, y), b_i = (y, x_i). The two
# one-for-one subpairs sit at |I| - 1 and come first.
_NAMES_21 = {(1, 0): "a1", (2, 0): "a2", (0, 1): "b1", (0, 2): "b2"}
_SUBPAIRS_21 = [("~a1", "~b1"), ("~a2", "~b2")]


def _two_for_one(value):
    values = {
        (bit(1), bit(0)): 0,
        (bit(2), bit(0)): 0,
        (mask_of((1, 2)), bit(0)): value,
    }
    return _compiled(3, bit(0), values, _NAMES_21)


# Two-for-two: I = {0, 1}, x_i = i + 1; a_ij = (x_i, y_j), b_ij = (y_j, x_i).
# Every proper subpair sits at |I| - |Y'|, the values that make the pair
# evil at |I| - 1; their low clauses come first.
_X22, _Y22 = mask_of((2, 3)), mask_of((0, 1))
_NAMES_22 = {
    arc: f"{side}{i + 1}{j + 1}"
    for i, x in enumerate((2, 3))
    for j, y in enumerate((0, 1))
    for side, arc in (("a", (x, y)), ("b", (y, x)))
}
_SUBPAIRS_22 = [
    ("~a11", "~b11"), ("~a12", "~b12"), ("~a11", "~b12"), ("~a12", "~b11"),
    ("~a21", "~b21"), ("~a22", "~b22"), ("~a21", "~b22"), ("~a22", "~b21"),
    ("~a11", "~b21"), ("~a21", "~b11"), ("~a12", "~b22"), ("~a22", "~b12"),
]


def _two_for_two_values(value):
    values = {
        (Xp, Yp): 2 - popcount(Yp)
        for Xp in (bit(2), bit(3), _X22)
        for Yp in (bit(0), bit(1), _Y22)
    }
    values[(_X22, _Y22)] = value
    return values


def _two_for_two(value):
    return _compiled(4, _Y22, _two_for_two_values(value), _NAMES_22)


def test_cnf_row_one_for_one_value_k():
    assert _one_for_one(1) == [("a", "b"), ("~a", "b"), ("a", "~b")]


def test_cnf_row_one_for_one_value_k_minus_1():
    assert _one_for_one(0) == [("~a", "~b")]


def test_cnf_row_one_for_one_any_other_value():
    # Only a lying oracle answers these; they compile like the low row.
    assert _one_for_one(2) == [("~a", "~b")]
    assert _one_for_one(-1) == [("~a", "~b")]


def test_cnf_row_one_for_two_value_k_minus_1():
    assert _one_for_two(1) == _SUBPAIRS_12 + [("a1", "a2"), ("b1", "b2")]


def test_cnf_row_one_for_two_value_k_minus_2():
    assert _one_for_two(0) == _SUBPAIRS_12 + [("~a1", "~b2"), ("~a2", "~b1")]


def test_cnf_row_two_for_one_value_k():
    assert _two_for_one(1) == _SUBPAIRS_21 + [("a1", "a2"), ("b1", "b2")]


def test_cnf_row_two_for_one_value_k_minus_1():
    assert _two_for_one(0) == _SUBPAIRS_21 + [("~a1", "~b2"), ("~a2", "~b1")]


def test_cnf_row_two_for_two_value_k_minus_2():
    assert _two_for_two(0) == _SUBPAIRS_22 + [
        ("~a11", "~b22"), ("~a12", "~b21"), ("~a21", "~b12"), ("~a22", "~b11"),
    ]


def test_cnf_row_two_for_two_evil():
    assert _two_for_two(1) == _SUBPAIRS_22 + [
        ("~a11", "b22"), ("a11", "~b22"),
        ("~a12", "b21"), ("a12", "~b21"),
        ("~a21", "b12"), ("a21", "~b12"),
        ("~a22", "b11"), ("a22", "~b11"),
    ]


def test_cnf_row_anything_else_gives_no_clauses():
    # One-for-two above |I| - 1 or below |I| - 2, two-for-one above |I| or
    # below |I| - 1, two-for-two above |I| - 1 or below |I| - 2.
    for value in (2, -1):
        assert _one_for_two(value) == _SUBPAIRS_12
    for value in (2, -1):
        assert _two_for_one(value) == _SUBPAIRS_21
    for value in (2, -1):
        assert _two_for_two(value) == _SUBPAIRS_22
    # Two-for-two at |I| - 1 but not evil: the two-for-one subpair
    # ({2, 3}, {0}) sits two above |I| - 1, so it and the pair add nothing.
    values = _two_for_two_values(1)
    values[(_X22, bit(0))] = 3
    assert _compiled(4, _Y22, values, _NAMES_22) == [
        c for c in _SUBPAIRS_22 if c not in (("~a11", "~b21"), ("~a21", "~b11"))
    ]


def test_twosat_example_deterministic():
    """{(a|b), (~a|b)}: b forced true, a defaults false."""
    variables = [(0, 1), (2, 3)]
    ts = TwoSat(variables)
    a = ts.index[(0, 1)] + 1
    b = ts.index[(2, 3)] + 1
    ts.add(a, b)
    ts.add(-a, b)
    got = solve_2sat(ts)
    assert got == {(0, 1): False, (2, 3): True}


def test_twosat_contradiction():
    ts = TwoSat([(0, 1)])
    a = ts.index[(0, 1)] + 1
    ts.add(a, a)
    ts.add(-a, -a)
    assert solve_2sat(ts) is None


def test_twosat_constant_folding():
    ts = TwoSat([(0, 1)])
    a = ts.index[(0, 1)] + 1
    ts.add(True, a)  # satisfied; dropped
    assert not ts.clauses
    ts.add(False, a)  # unit clause: a must hold
    got = solve_2sat(ts)
    assert got == {(0, 1): True}
    ts.add(False, False)
    assert ts.contradiction
    assert solve_2sat(ts) is None


def test_twosat_folds_constants_on_either_side():
    ts = TwoSat([(0, 1), (1, 0)])
    ts.add(1, True)
    ts.add(True, False)
    assert ts.clauses == [] and not ts.contradiction
    ts.add(-2, False)
    ts.add(False, 1)
    ts.add(1, -2)
    assert ts.clauses == [(-2, -2), (1, 1), (1, -2)]
    assert not ts.contradiction


def test_twosat_unsatisfied():
    ts = TwoSat([(0, 1), (2, 3)])
    ts.add(1, 2)
    ts.add(-1, 2)
    ts.add(-2, -2)
    ts.add(1, -2)
    assignment = {(0, 1): False, (2, 3): True}
    # Falsified clauses come back in clause order.
    assert ts.unsatisfied(assignment) == [(-2, -2), (1, -2)]
    assert ts.unsatisfied({(0, 1): True, (2, 3): False}) == [(-1, 2)]
    assert TwoSat([(0, 1)]).unsatisfied({(0, 1): True}) == []


def test_solve_2sat_matches_truth_table_small():
    rng = random.Random(11)
    for _ in range(200):
        nvars = rng.randint(1, 8)
        variables = [(0, v + 1) for v in range(nvars)]
        ts = TwoSat(variables)
        clauses = []
        for _ in range(rng.randint(1, 3 * nvars)):
            l1 = rng.choice([-1, 1]) * rng.randint(1, nvars)
            l2 = rng.choice([-1, 1]) * rng.randint(1, nvars)
            ts.add(l1, l2)
            clauses.append((l1, l2))
        brute_sat = any(
            all(
                (assign >> (abs(l1) - 1)) & 1 == (l1 > 0)
                or (assign >> (abs(l2) - 1)) & 1 == (l2 > 0)
                for l1, l2 in clauses
            )
            for assign in range(1 << nvars)
        )
        got = solve_2sat(ts)
        assert (got is not None) == brute_sat


def test_solve_2sat_assignments_are_pinned():
    """Every verdict and assignment on seeded random systems of 1..14
    variables; the digest was recorded before the Tarjan pass lost its
    resume index and on-stack flags, so roots, successor order and
    component numbers stayed the same."""
    rng = random.Random(2019)
    digest = hashlib.sha256()
    satisfiable = 0
    for _ in range(3000):
        nvars = rng.randint(1, 14)
        ts = TwoSat([(v, v + 1) for v in range(nvars)])
        for _ in range(rng.randint(1, 3 * nvars)):
            ts.add(
                rng.choice((-1, 1)) * rng.randint(1, nvars),
                rng.choice((-1, 1)) * rng.randint(1, nvars),
            )
        got = solve_2sat(ts)
        satisfiable += got is not None
        digest.update(repr(got).encode())
    assert satisfiable == 2128
    assert digest.hexdigest() == (
        "8f57fc4f196ccaf7e8dd6bd6313d43ade35938ea41cd48adf945b34f09d5ec32"
    )


def test_check_consistency_verdicts():
    from minrank import ExchangeGraph

    I = bit(0)
    both = ExchangeGraph(I, 0, 0, [bit(1), bit(0)], sure=[0, 0])
    none_g = ExchangeGraph(I, 0, 0, [0, 0], sure=[0, 0])
    high = (bit(1), bit(0), 1)  # value = |I| -> needs both ways
    low = (bit(1), bit(0), 0)  # value = |I|-1 -> forbids both
    assert check_consistency(both, *high) == "consistent"
    assert check_consistency(none_g, *high) == "underestimated-only"
    assert check_consistency(both, *low) == "overestimated-only"
    assert check_consistency(none_g, *low) == "consistent"


def test_consistency_summary_rollup():
    I = bit(0)
    g = ExchangeGraph(I, 0, 0, [bit(1), bit(0)], sure=[0, 0])
    swap = (bit(1), bit(0))
    assert consistency_summary(g, {swap: 1}) == "consistent"
    assert consistency_summary(g, {swap: 0}) == "overestimated-only"
    # A consistent second exchange (1 joins, nothing leaves, no lift)
    # changes nothing.
    assert consistency_summary(g, {swap: 0, (bit(1), 0): 1}) == "overestimated-only"
    # At I = {0, 1} the arcs 0 -> 2 -> 0 make a low swap of 2 for 0
    # overestimated, and no arc out of 1 leaves a high swap of 3 for 1
    # underestimated: both kinds at once.
    g = ExchangeGraph(mask_of((0, 1)), 0, 0, [bit(2), 0, bit(0), 0])
    over = (bit(2), bit(0))
    under = (bit(3), bit(1))
    assert check_consistency(g, *over, 1) == "overestimated-only"
    assert check_consistency(g, *under, 2) == "underestimated-only"
    assert consistency_summary(g, {over: 1, under: 2}) == "neither"


def test_true_graph_always_consistent():
    for m1 in small_zoo():
        for m2 in small_zoo():
            if m1.n != m2.n or m1.n > 4:
                continue
            o = MinRankOracle(m1, m2)
            for I in range(1 << m1.n):
                if o.rmin(I) != popcount(I):
                    continue
                D = build_true_graph(m1, m2, I)
                t = ObservationTable(o, D)
                for (X, Y), value in all_observations(t).items():
                    assert check_consistency(D, X, Y, value) == "consistent"


def test_almost_consistent_graph_no_suspicious_equals_true():
    """When every arc is sure the resolved graph is the true graph of the
    orientation whose sources and sinks it found: the probe pair may put a
    true sink first, and then the graph is the swapped pair's (see
    `augment_min_rank`)."""

    def cases():
        for seed in range(40):
            for n in (5, 6, 7):
                inst = random_instance(seed, n)
                yield inst, range(1 << n)
        # Two sets with an outside element that is neither source nor sink.
        yield random_promise_instance(128, 8), [44]
        yield random_fpt_instance(50, 8, 3), [193]

    checked = swapped = 0
    for inst, sets in cases():
        m1, m2 = inst.matroid1, inst.matroid2
        o = MinRankOracle(m1, m2)
        for I in sets:
            if o.rmin(I) != popcount(I):
                continue
            survey = survey_extensions(o, I)
            if survey.pair is None:
                continue
            N = intersect_modified(o, survey)
            if list(N.suspicious_pairs()):
                continue
            C = almost_consistent_graph(o, N)
            D = build_true_graph(m1, m2, I)
            if (D.S, D.T) != (C.S, C.T):
                D = build_true_graph(m2, m1, I)
                swapped += 1
            assert (D.S, D.T) == (C.S, C.T)
            assert set(C.arcs()) == set(D.arcs())
            checked += 1
    assert checked >= 40 and swapped >= 5  # 49 and 8 when written


def test_clause_systems_are_pinned(monkeypatch):
    """Observing only the exchanges that touch a suspicious arc leaves every
    clause system of a genuine oracle as the full sweep over all pairs built
    it: the digest below was recorded from that sweep.

    The fpt `extra` lists enter the digest without their entries that fold
    to True. The sweep also tested evil pairs whose Y misses the suspicious
    heads; their clauses, over sure or absent arcs, always hold.

    Every step resolves here: a step that the intersected graph decides
    builds no clause system, and the solves below would build 8.
    """
    digest = hashlib.sha256()
    systems = extras = 0
    full_cnf = build_cnf

    def recorded(table, extra=()):
        nonlocal systems, extras
        g = table.g

        def holds(arc, neg):
            u, v = arc
            return neg if not (g.succ[u] >> v) & 1 else (g.sure[u] >> v) & 1 and not neg

        f = full_cnf(table, extra)
        kept = [c for c in extra if not any(holds(*lit) for lit in c)]
        digest.update(repr((f.variables, f.clauses, f.contradiction, kept)).encode())
        systems += 1
        extras += len(kept)
        return f

    monkeypatch.setattr(minrank.consistency, "build_cnf", recorded)
    monkeypatch.setattr(minrank.solvers, "build_cnf", recorded)
    monkeypatch.setattr(minrank.solvers, "_decide", lambda N, w, price: None)
    for seed in range(100):
        n = 6 + seed % 7
        inst = random_instance(seed, n, weighted=True)
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        lexicographic_max(o, inst.weight_vector())
        inst = random_promise_instance(seed, n)
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        weighted_no_circuit_inclusion(o, inst.weight_vector())
        inst = random_fpt_instance(seed, n, 3)
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        weighted_fpt_circuit(o, inst.weight_vector(), 3)
    # Guesses that add extra clauses are rare; a scan of seeds 0..449 at
    # n = 6..12 found these.
    for seed, n in ((272, 12), (292, 11), (300, 12), (377, 12), (447, 12)):
        inst = random_fpt_instance(seed, n, 3)
        o = MinRankOracle(inst.matroid1, inst.matroid2)
        weighted_fpt_circuit(o, inst.weight_vector(), 3)
    assert (systems, extras) == (373, 48)
    assert digest.hexdigest() == (
        "38576a6b8473a8cc173a75ac8c1a1afe25c72b4da2d772514e47fe9826e2a5b9"
    )


def test_no_suspicious_arc_asks_no_observation():
    """A graph whose arcs are all sure or absent compiles to an empty system
    without a single observation query."""
    graphs = 0
    for m1 in small_zoo():
        for m2 in small_zoo():
            if m1.n != m2.n:
                continue
            o = MinRankOracle(m1, m2)
            for I in range(1, 1 << m1.n):
                if o.rmin(I) != popcount(I):
                    continue
                D = build_true_graph(m1, m2, I)
                table = ObservationTable(o, D)
                before = o.query_count
                f = build_cnf(table)
                assert o.query_count == before
                assert (f.variables, f.clauses, f.contradiction) == ((), [], False)
                graphs += bool(table.x_sets)
    # Graphs with a plain outside element, where a sweep over every pair
    # would ask.
    assert graphs >= 72
