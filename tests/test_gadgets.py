"""The coloring reduction: gadget construction, verification, enumeration."""

from __future__ import annotations

import ast
import hashlib
import time
from fractions import Fraction

import pytest

import minrank.gadgets
from minrank import (
    ColoredGraph,
    Instance,
    LinearMatroid,
    MinRankOracle,
    bit,
    build_gadget,
    colorings_from_consistent_graphs,
    dumps,
    full_mask,
    mask_of,
    popcount,
    proper_four_colorings,
    verify_gadget,
)
from minrank.gadgets import _proper_colorings

from conftest import fraction_rank
from test_visibility import _module_tree


def vertex_gadget(color=(1, 1)):
    return build_gadget(ColoredGraph(1, (), (color,)))


def edge_gadget():
    return build_gadget(ColoredGraph(2, ((0, 1),), ((1, 1), (2, 2))))


def triangle_gadget():
    return build_gadget(
        ColoredGraph(3, ((0, 1), (1, 2), (0, 2)), ((1, 1), (1, 2), (2, 1)))
    )


# -- colored graphs -------------------------------------------------------------


def test_coloring_search_finds_the_smallest_coloring_at_once():
    # Exhaustive enumeration would walk 4**15 assignments first.
    start = time.perf_counter()
    first = next(_proper_colorings(ColoredGraph(15, ())))
    assert first == ((1, 1),) * 15
    assert time.perf_counter() - start < 0.5
    triangle = ColoredGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert list(_proper_colorings(triangle)) == sorted(proper_four_colorings(triangle))
    k5 = ColoredGraph(5, tuple((u, w) for u in range(5) for w in range(u + 1, 5)))
    assert next(_proper_colorings(k5), None) is None


def test_proper_four_coloring_counts():
    assert len(proper_four_colorings(ColoredGraph(1, ()))) == 4
    assert len(proper_four_colorings(ColoredGraph(2, ((0, 1),)))) == 12
    assert len(proper_four_colorings(ColoredGraph(3, ((0, 1), (1, 2), (0, 2))))) == 24
    # Two isolated vertices: all 16 combinations are proper.
    assert len(proper_four_colorings(ColoredGraph(2, ()))) == 16


def test_colored_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        ColoredGraph(2, ((0, 0),)).normalized_edges()  # loop
    with pytest.raises(ValueError):
        ColoredGraph(2, ((0, 1), (1, 0))).normalized_edges()  # duplicate
    with pytest.raises(ValueError):
        ColoredGraph(2, ((0, 2),)).normalized_edges()  # out of range


def test_colored_graph_rejects_a_negative_vertex_count():
    """A negative count is refused, not read as an uncolorable graph; an
    empty graph has the one empty coloring."""
    with pytest.raises(ValueError, match="vertex count -1 is negative"):
        proper_four_colorings(ColoredGraph(-1, ()))
    assert proper_four_colorings(ColoredGraph(0, ())) == {()}


def test_is_proper():
    assert ColoredGraph(2, ((0, 1),), ((1, 1), (1, 2))).is_proper()
    assert not ColoredGraph(2, ((0, 1),), ((1, 1), (1, 1))).is_proper()
    assert not ColoredGraph(1, (), None).is_proper()


# -- building -------------------------------------------------------------------


def test_build_requires_proper_coloring():
    bad = ColoredGraph(2, ((0, 1),), ((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        build_gadget(bad)


def test_build_refuses_more_than_64_elements_before_building():
    # Eight path vertices and six edges need 4*8 + 6*6 + 2 = 70 elements.
    path = ColoredGraph(8, tuple((i, i + 1) for i in range(6)), ((1, 1), (1, 2)) * 4)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="gadget needs 70 elements.*at most 64"):
        build_gadget(path)
    assert time.perf_counter() - start < 0.5


def test_build_rejects_missing_or_bad_coloring():
    with pytest.raises(ValueError):
        build_gadget(ColoredGraph(1, ()))
    with pytest.raises(ValueError):
        build_gadget(ColoredGraph(1, (), ((1, 3),)))
    with pytest.raises(ValueError):
        build_gadget(ColoredGraph(2, (), ((1, 1),)))


def test_single_vertex_layout():
    gi = vertex_gadget((1, 1))
    assert gi.n == 6
    assert gi.vertex_x == ((0, 1),)
    assert gi.vertex_y == ((2, 3),)
    assert gi.I == mask_of((2, 3))
    assert (gi.s, gi.t) == (4, 5)
    assert gi.k == 2
    assert gi.plain == mask_of((0, 1))
    assert len(gi.names) == 6


def test_single_vertex_matrix_pattern():
    """Color (1,1): into-I prime at (y1, x1) in Z2, out-of-I at (y2, x2) in Z1."""
    gi = vertex_gadget((1, 1))
    # Rows 0/1 carry the identity on I; columns 0/1 are x1/x2.
    assert gi.Z2[0][0] > 1 and gi.Z1[1][1] > 1
    assert gi.Z2[0][0] != gi.Z1[1][1]  # distinct primes per slot
    assert gi.Z1[0][0] == gi.Z1[0][1] == gi.Z1[1][0] == 0
    assert gi.Z2[0][1] == gi.Z2[1][0] == gi.Z2[1][1] == 0
    # Identity on I and the free-exchange columns for t (Z1) and s (Z2).
    assert gi.Z1[0][2] == gi.Z1[1][3] == 1
    assert gi.Z1[0][5] == gi.Z1[1][5] == 1
    assert gi.Z2[0][4] == gi.Z2[1][4] == 1
    # Realized arcs mirror the primes.
    assert gi.succ[0] == bit(2)  # x1 -> y1
    assert gi.succ[3] == bit(1)  # y2 -> x2


def test_value_table_is_coloring_independent():
    a = vertex_gadget((1, 1))
    b = vertex_gadget((2, 2))
    assert a.values == b.values
    assert a.Z1 != b.Z1  # only the realization moves with the coloring


def test_probe_prescriptions():
    gi = vertex_gadget((1, 2))
    m1, m2 = gi.as_matroids()
    o = MinRankOracle(m1, m2)
    k = gi.k
    assert o.rmin(gi.I) == k
    assert o.rmin(gi.I | bit(gi.s)) == k
    assert o.rmin(gi.I | bit(gi.t)) == k
    assert o.rmin(gi.I | bit(gi.s) | bit(gi.t)) == k + 1
    # The probe circuits close on opposite matroids.
    assert m1.rank(gi.I | bit(gi.s)) == k + 1
    assert m2.rank(gi.I | bit(gi.s)) == k
    assert m1.rank(gi.I | bit(gi.t)) == k
    assert m2.rank(gi.I | bit(gi.t)) == k + 1


def test_values_realized_by_matrices():
    gi = edge_gadget()
    m1, m2 = gi.as_matroids()
    o = MinRankOracle(m1, m2)
    for (X, Y), v in gi.values.items():
        assert o.rmin((gi.I | X) & ~Y) == v


def test_edge_gadget_is_loopless():
    gi = edge_gadget()
    m1, m2 = gi.as_matroids()
    o = MinRankOracle(m1, m2)
    assert all(o.rmin(bit(e)) == 1 for e in range(gi.n))


def test_single_vertex_x_columns_are_loops():
    """With no edges, each vertex contributes one loop per matrix; the
    reduction only promises looplessness once an edge ties blocks together."""
    gi = vertex_gadget((1, 1))
    m1, m2 = gi.as_matroids()
    o = MinRankOracle(m1, m2)
    assert [e for e in range(gi.n) if o.rmin(bit(e)) == 0] == [0, 1]


# -- verification ----------------------------------------------------------------


def test_verify_gadget_vertex_and_edge():
    for gi in (vertex_gadget((2, 1)), edge_gadget()):
        reports = verify_gadget(gi)
        assert reports
        assert [str(r) for r in reports if not r.ok] == []


def _failing_reports(gi):
    return {r.quantity: r.witnesses for r in verify_gadget(gi) if not r.ok}


def test_verify_gadget_flags_a_wrong_value():
    gi = vertex_gadget((1, 1))
    key = min(gi.values)
    wrong = gi._replace(values={**gi.values, key: gi.values[key] + 1})
    assert set(_failing_reports(wrong)) == {"le-values"}


def test_verify_gadget_flags_a_moved_arc():
    """Color (1,1) realizes the arc y2 -> x2; claiming y2 -> x1 instead
    trips only the graph comparison, which names both differing arcs."""
    gi = vertex_gadget((1, 1))
    assert gi.succ[3] == bit(1)
    succ = list(gi.succ)
    succ[3] = bit(0)
    moved = gi._replace(succ=tuple(succ))
    assert _failing_reports(moved) == {
        "true-graph": ("(y2.v0,x1.v0)", "(y2.v0,x2.v0)")
    }


def test_verify_gadget_size_cap():
    g = ColoredGraph(
        7,
        ((0, 1), (2, 3), (4, 5)),
        ((1, 1), (2, 2), (1, 1), (2, 2), (1, 1), (2, 2), (1, 1)),
    )
    gi = build_gadget(g)
    assert gi.n == 48
    with pytest.raises(ValueError):
        verify_gadget(gi)


def test_gadget_code_reads_no_matroid_directly():
    # Verification goes through the true graph and the min-rank oracle.
    found = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(_module_tree(minrank.gadgets))
        if isinstance(node, ast.Attribute) and node.attr in {"rank", "is_independent"}
    ]
    assert found == []


# -- enumeration ------------------------------------------------------------------


def test_coloring_counts_from_consistent_graphs():
    assert len(colorings_from_consistent_graphs(vertex_gadget((1, 1)))) == 4
    assert len(colorings_from_consistent_graphs(edge_gadget())) == 12
    assert len(colorings_from_consistent_graphs(triangle_gadget())) == 24


def test_enumeration_reads_only_the_value_table(monkeypatch):
    """The colorings come from the enumerated slot states alone: the
    construction's own orientation rule is never consulted."""
    gi = triangle_gadget()

    def refuse(*args):
        raise AssertionError("enumeration used the construction's arc rule")

    monkeypatch.setattr(minrank.gadgets, "_edge_slot_arcs", refuse)
    uncolored = ColoredGraph(gi.graph.vertices, gi.graph.edges)
    assert colorings_from_consistent_graphs(gi) == proper_four_colorings(uncolored)


def test_edge_block_wants_exactly_one_state_per_orientation(monkeypatch):
    """If every slot state of an edge sub-gadget passed its values, several
    states would share a key; that is an error, not a two-key survivor."""
    gi = edge_gadget()
    monkeypatch.setattr(minrank.gadgets, "_block_consistent", lambda *args: True)
    with pytest.raises(RuntimeError, match="edge 0 index 0"):
        minrank.gadgets._edge_index_configs(gi, 0, 0)


def test_enumeration_size_cap():
    g = ColoredGraph(
        5, (), ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1))
    )
    gi = build_gadget(g)
    with pytest.raises(ValueError):
        colorings_from_consistent_graphs(gi)


# -- exact integer rank ------------------------------------------------------------


def _linear_rank(rows):
    m = LinearMatroid(rows)
    return m.rank(full_mask(m.n))


def test_int_rank_prime_blocks():
    assert _linear_rank([[7, 0], [0, 11]]) == 2
    assert _linear_rank([[0, 7], [11, 0]]) == 2
    assert _linear_rank([[7, 11], [7, 11]]) == 1
    assert _linear_rank([[0, 0], [0, 0]]) == 0


def test_int_rank_matches_fraction_elimination():
    import random

    rng = random.Random(23)
    for _ in range(200):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        mask = rng.randrange(1, 1 << nc)
        cols = [c for c in range(nc) if (mask >> c) & 1]
        frac = [[Fraction(row[c]) for c in cols] for row in rows]
        assert LinearMatroid(rows).rank(mask) == fraction_rank(frac)


# -- parity ------------------------------------------------------------------------

PARITY_GRAPHS = (
    ColoredGraph(1, ()),
    ColoredGraph(2, ((0, 1),)),
    ColoredGraph(3, ((0, 1), (1, 2), (0, 2))),
    ColoredGraph(4, ((0, 1), (0, 2), (0, 3))),
    ColoredGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
)
PARITY_COLORINGS = (
    ColoredGraph(1, (), ((2, 2),)),
    ColoredGraph(2, ((0, 1),), ((2, 1), (1, 2))),
    ColoredGraph(3, ((0, 1), (1, 2), (0, 2)), ((2, 2), (2, 1), (1, 2))),
)
PARITY_DIGEST = "95cc0d63466812b084593deaec95d13cc2f03b9e52b82fb10ffc677465adc8a0"


def _gadget_fields(gi):
    """Every field, in the shape the pinned digest was recorded in: `succ`
    stands as two lists split by the side of each tail, the heads out of I
    first, each zero at the tails of the other side."""
    fields = []
    for name, value in zip(gi._fields, gi):
        if name == "succ":
            inside = [(gi.I >> v) & 1 for v in range(gi.n)]
            fields.append(tuple(m if i else 0 for m, i in zip(value, inside)))
            fields.append(tuple(0 if i else m for m, i in zip(value, inside)))
        else:
            fields.append(sorted(value.items()) if isinstance(value, dict) else value)
    return fields


def test_gadget_parity():
    """What `minrank gadget` prints for five graphs (the smallest proper
    coloring of each), every field of eight built gadgets, and the
    colorings read off their consistent graphs, pinned by one digest."""
    digest = hashlib.sha256()
    built = []
    for g in PARITY_GRAPHS:
        coloring = min(proper_four_colorings(g))
        gi = build_gadget(ColoredGraph(g.vertices, g.edges, coloring))
        digest.update(dumps(Instance(gi.n, *gi.as_matroids(), None, gi.names)).encode())
        built.append(gi)
    built += [build_gadget(g) for g in PARITY_COLORINGS]
    assert len(built) == 8
    for gi in built:
        digest.update(repr(_gadget_fields(gi)).encode())
        if gi.graph.vertices <= 4:
            digest.update(repr(sorted(colorings_from_consistent_graphs(gi))).encode())
    assert digest.hexdigest() == PARITY_DIGEST
