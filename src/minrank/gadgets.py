"""Gadget reduction from graph 4-coloring to consistent-graph search.

From a properly 4-colored graph this module builds a matroid pair given by
two rational matrices: a maximal common independent set I (all y-elements),
a probe pair s, t, and a table prescribing the minimum rank of every small
exchange. The arc assignments consistent with that table correspond, after
projecting each vertex block onto its exchange situation, exactly to the
proper 4-colorings of the graph — so resolving the suspicious arcs of such
an instance is as hard as coloring.

Colors are pairs (i, j) with i, j in {1, 2}. A vertex block carries four
elements x1, x2 (outside I) and y1, y2 (inside I); color (i, j) selects the
arc into I at slot (x_i, y_j) and the arc out of I at the complementary
slot (x_{3-i}, y_{3-j}). Each edge contributes two three-element
sub-gadgets whose two legal orientations transport the endpoint colors;
equal endpoint colors leave no legal orientation, which is the whole point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, product
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .bitset import (
    MAX_GROUND,
    bit,
    elements_of,
    format_set,
    full_mask,
    iter_bits,
    mask_of,
    popcount,
    small_subsets,
)
from .core import LinearMatroid, Matroid
from .exchange import ExchangeGraph, build_true_graph
from .oracle import MinRankOracle
from .verify import BruteReport, LEObservation, check_consistency

Color = tuple[int, int]
COLORS: tuple[Color, ...] = ((1, 1), (1, 2), (2, 1), (2, 2))

# A slot is an (x, y) position with x outside I and y inside; its state is
# None (no arcs), "a" (arc into I), "b" (arc out of I), or "both".
Slot = tuple[int, int]


class ColoredGraph(NamedTuple):
    """A small simple graph, optionally 4-colored.

    A coloring maps each vertex to one of the four colors; it is proper
    when adjacent vertices get different colors.
    """

    vertices: int
    edges: tuple[tuple[int, int], ...]
    coloring: tuple[Color, ...] | None = None

    def normalized_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges sorted with min endpoint first; rejects loops/duplicates."""
        out = []
        seen = set()
        for u, w in self.edges:
            if not (0 <= u < self.vertices and 0 <= w < self.vertices):
                raise ValueError(f"edge ({u},{w}) outside vertex range")
            if u == w:
                raise ValueError("self-loops are not allowed")
            e = (min(u, w), max(u, w))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            out.append(e)
        return tuple(sorted(out))

    def is_proper(self) -> bool:
        if self.coloring is None:
            return False
        return all(
            self.coloring[u] != self.coloring[w] for u, w in self.normalized_edges()
        )


def _proper_colorings(g: ColoredGraph) -> Iterator[tuple[Color, ...]]:
    """Proper 4-colorings in lexicographic order, by one depth-first search
    over the vertices in order and the colors in ascending order; the first
    one comes without enumerating the others."""
    edges = g.normalized_edges()
    earlier = [[u for u, w in edges if w == v] for v in range(g.vertices)]
    chosen: list[int] = []
    start = 0
    while True:
        v = len(chosen)
        if v == g.vertices:
            yield tuple(COLORS[c] for c in chosen)
        free = [
            c
            for c in range(start, 4)
            if v < g.vertices and all(chosen[u] != c for u in earlier[v])
        ]
        if free:
            chosen.append(free[0])
            start = 0
        elif chosen:
            start = chosen.pop() + 1
        else:
            return


def proper_four_colorings(g: ColoredGraph) -> set[tuple[Color, ...]]:
    """All proper 4-colorings."""
    return set(_proper_colorings(g))


class GadgetInstance(NamedTuple):
    """A built reduction: layout, value table, matrices, realized arcs.

    Element layout: vertex v owns 4v..4v+3 as (x1, x2, y1, y2); the k-th
    edge (u, w) owns 4V+6k..4V+6k+5 as (x1 at u, x1 at w, x2 at u, x2 at w,
    y1, y2); s and t come last. I is the set of all y-elements.

    ``values`` prescribes rmin((I | X) & ~Y) for every pair of nonempty
    X outside I (plain elements only, at most 2) and Y inside I (at most
    2). Probe prescriptions are uniform and implicit: every exchange that
    adds s or t has value |I|, except adding both, which has |I| + 1; the
    circuit of s with I closes on the second matroid and the circuit of t
    on the first.

    ``Z1``/``Z2`` realize the table: identity on I, all-ones column tying t
    to I in Z1 and s to I in Z2, and one distinct prime per slot, entering
    Z1 for an arc out of I and Z2 for an arc into I. ``arcs1[y]``/
    ``arcs2[x]`` record the realized arcs as bitmasks of heads.
    """

    graph: ColoredGraph
    n: int
    names: tuple[str, ...]
    I: int
    s: int
    t: int
    values: dict[tuple[int, int], int]
    Z1: tuple[tuple[Fraction, ...], ...]
    Z2: tuple[tuple[Fraction, ...], ...]
    arcs1: tuple[int, ...]
    arcs2: tuple[int, ...]
    vertex_x: tuple[tuple[int, int], ...]
    vertex_y: tuple[tuple[int, int], ...]
    edge_x: tuple[tuple[int, int, int, int], ...]
    edge_y: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return popcount(self.I)

    @property
    def plain(self) -> int:
        """Elements outside I other than s and t: the gadget x's."""
        return full_mask(self.n) & ~self.I & ~bit(self.s) & ~bit(self.t)

    def as_matroids(self) -> tuple[Matroid, Matroid]:
        return LinearMatroid(self.Z1), LinearMatroid(self.Z2)


def _primes(count: int) -> list[int]:
    out: list[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out):
            out.append(candidate)
        candidate += 1
    return out


def _pattern_rank(slots: Sequence[Slot]) -> int:
    """Rank of an occupancy pattern over at most two rows and columns.

    Distinct prime entries make the numeric rank match the pattern rank:
    2 when two entries sit on distinct rows and columns (no 2x2 minor built
    from distinct primes can vanish), 1 for any other nonempty pattern.
    """
    if not slots:
        return 0
    for (x, y), (x2, y2) in combinations(slots, 2):
        if x != x2 and y != y2:
            return 2
    return 1


def _slot_arcs(n: int, states: Mapping[Slot, str | None]) -> tuple[list[int], list[int]]:
    """Arc layers of slot states: "a" is the arc (x, y) into I, "b" the arc
    (y, x) out of I, "both" is both and None neither."""
    arcs1 = [0] * n
    arcs2 = [0] * n
    for (x, y), st in states.items():
        if st in ("a", "both"):
            arcs2[x] |= bit(y)
        if st in ("b", "both"):
            arcs1[y] |= bit(x)
    return arcs1, arcs2


def _vertex_slot_arcs(
    color: Color, vx: Sequence[int], vy: Sequence[int]
) -> dict[Slot, str]:
    """Color (i, j): arc into I at (x_i, y_j), out of I at (x_{3-i}, y_{3-j})."""
    i, j = color
    return {(vx[i - 1], vy[j - 1]): "a", (vx[2 - i], vy[2 - j]): "b"}


def _edge_slot_arcs(cfg: str, xu: int, xw: int, ye: int) -> dict[Slot, str]:
    """Orientation "A" feeds I from the first endpoint's element and leaves
    toward the second's; "B" mirrors."""
    if cfg == "A":
        return {(xu, ye): "a", (xw, ye): "b"}
    return {(xu, ye): "b", (xw, ye): "a"}


def _designated_values(
    k: int,
    vertex_x: Sequence[tuple[int, int]],
    vertex_y: Sequence[tuple[int, int]],
    edge_x: Sequence[tuple[int, int, int, int]],
    edge_y: Sequence[tuple[int, int]],
    edges: Sequence[tuple[int, int]],
) -> dict[tuple[int, int], int]:
    """Prescribed values for the constrained pairs.

    Per vertex: the full block is one exchange short (value |I| - 1) while
    every proper sub-block has no slack at all (|I| - |Y'|). Per edge
    sub-gadget: the two same-index slots jointly exchange (value |I|),
    each alone does not (|I| - 1). Per edge endpoint: the cross pairs
    tying the sub-gadget's y to the endpoint's y through x1 of the vertex
    have no slack anywhere (|I| - |Y'| on all sub-blocks) — these
    transport the color constraint.
    """
    values: dict[tuple[int, int], int] = {}

    def put(X: int, Y: int, v: int) -> None:
        old = values.setdefault((X, Y), v)
        if old != v:
            raise RuntimeError(
                f"conflicting designations {old} vs {v} at "
                f"({format_set(X)},{format_set(Y)})"
            )

    def put_blocks(X: int, Y: int, include_full: bool) -> None:
        for Xp in small_subsets(X, 2):
            for Yp in small_subsets(Y, 2):
                if not include_full and Xp == X and Yp == Y:
                    continue
                put(Xp, Yp, k - popcount(Yp))

    for v in range(len(vertex_x)):
        X = mask_of(vertex_x[v])
        Y = mask_of(vertex_y[v])
        put(X, Y, k - 1)
        put_blocks(X, Y, include_full=False)
    for e, (u, w) in enumerate(edges):
        x1u, x1w, x2u, x2w = edge_x[e]
        y1, y2 = edge_y[e]
        for i, (xu, xw, ye) in enumerate(((x1u, x1w, y1), (x2u, x2w, y2))):
            put(bit(xu) | bit(xw), bit(ye), k)
            put(bit(xu), bit(ye), k - 1)
            put(bit(xw), bit(ye), k - 1)
            for v, xev in ((u, xu), (w, xw)):
                CX = bit(xev) | bit(vertex_x[v][0])
                CY = bit(ye) | bit(vertex_y[v][i])
                put_blocks(CX, CY, include_full=True)
    return values


def _orientation(cu: Color, cw: Color, index: int) -> str:
    """Orientation of an edge's index-th sub-gadget under its endpoint colors.

    The full cross pair at each endpoint is slack-free, so the sub-gadget's
    slot there may not carry the direction opposite to the vertex slot
    (x1, y_{index+1}). That slot holds "a" under color (1, index+1), "b"
    under (2, 2-index), and nothing under any other color. "A" puts "a" at
    the first endpoint and "b" at the second; "B" mirrors. "A" wins unless
    only "B" is legal.
    """

    def state(c: Color) -> str | None:
        # The vertex slot (x1, y_{index+1}) of a block labelled x = y = (0, 1).
        return _vertex_slot_arcs(c, (0, 1), (0, 1)).get((0, index))

    a_legal = state(cu) != "b" and state(cw) != "a"
    b_legal = state(cu) != "a" and state(cw) != "b"
    return "B" if b_legal and not a_legal else "A"


def build_gadget(g: ColoredGraph) -> GadgetInstance:
    """Construct the reduction instance for a properly colored graph.

    Refuses an improper coloring, and a graph whose gadget would exceed
    the 64 elements of an instance file, before building anything. The
    value table is the realized arc pattern's ranks (identity plus distinct
    primes makes every small-exchange rank equal its pattern rank); on a
    proper coloring it agrees with the designated constants, and a
    disagreement raises RuntimeError.
    """
    if g.coloring is None:
        raise ValueError("a coloring is required to build a gadget")
    if len(g.coloring) != g.vertices:
        raise ValueError("coloring length disagrees with vertex count")
    for c in g.coloring:
        if c not in COLORS:
            raise ValueError(f"unknown color {c}")
    edges = g.normalized_edges()
    if not g.is_proper():
        raise ValueError("coloring is not proper: adjacent vertices share a color")
    V, F = g.vertices, len(edges)
    n = 4 * V + 6 * F + 2
    if n > MAX_GROUND:
        raise ValueError(
            f"gadget needs {n} elements; instance files carry at most {MAX_GROUND}"
        )

    names: list[str] = []
    vertex_x: list[tuple[int, int]] = []
    vertex_y: list[tuple[int, int]] = []
    for v in range(V):
        base = 4 * v
        vertex_x.append((base, base + 1))
        vertex_y.append((base + 2, base + 3))
        names += [f"x1.v{v}", f"x2.v{v}", f"y1.v{v}", f"y2.v{v}"]
    edge_x: list[tuple[int, int, int, int]] = []
    edge_y: list[tuple[int, int]] = []
    for e, (u, w) in enumerate(edges):
        base = 4 * V + 6 * e
        edge_x.append((base, base + 1, base + 2, base + 3))
        edge_y.append((base + 4, base + 5))
        names += [
            f"x1.e{e}.v{u}",
            f"x1.e{e}.v{w}",
            f"x2.e{e}.v{u}",
            f"x2.e{e}.v{w}",
            f"y1.e{e}",
            f"y2.e{e}",
        ]
    s, t = n - 2, n - 1
    names += ["s", "t"]
    I = 0
    for vy in vertex_y:
        I |= mask_of(vy)
    for ey in edge_y:
        I |= mask_of(ey)
    k = popcount(I)
    plain = full_mask(n) & ~I & ~bit(s) & ~bit(t)

    designated = _designated_values(k, vertex_x, vertex_y, edge_x, edge_y, edges)

    # Realized arcs: both directions on every slot outside the designated
    # pairs, nothing on the designated slots except the color and
    # orientation selections.
    states: dict[Slot, str | None] = {
        (x, y): None if (bit(x), bit(y)) in designated else "both"
        for y in iter_bits(I)
        for x in iter_bits(plain)
    }
    for v in range(V):
        states.update(_vertex_slot_arcs(g.coloring[v], vertex_x[v], vertex_y[v]))
    for e, (u, w) in enumerate(edges):
        x1u, x1w, x2u, x2w = edge_x[e]
        y1, y2 = edge_y[e]
        cu, cw = g.coloring[u], g.coloring[w]
        states.update(_edge_slot_arcs(_orientation(cu, cw, 0), x1u, x1w, y1))
        states.update(_edge_slot_arcs(_orientation(cu, cw, 1), x2u, x2w, y2))
    arcs1, arcs2 = _slot_arcs(n, states)

    # Value table = pattern ranks of the realization, which must agree with
    # the designated constants.
    values: dict[tuple[int, int], int] = {}
    for X in small_subsets(plain, 2):
        for Y in small_subsets(I, 2):
            slots = [(x, y) for x in iter_bits(X) for y in iter_bits(Y)]
            rank1 = _pattern_rank([(x, y) for x, y in slots if (arcs1[y] >> x) & 1])
            rank2 = _pattern_rank([(x, y) for x, y in slots if (arcs2[x] >> y) & 1])
            values[(X, Y)] = k - popcount(Y) + min(rank1, rank2)
    for key, v in designated.items():
        if values[key] != v:
            raise RuntimeError(
                f"realization disagrees with designation at "
                f"({format_set(key[0])},{format_set(key[1])}): "
                f"{values[key]} vs {v}"
            )

    # Matrices: identity on I; t's column ties all of I in Z1 and s's in
    # Z2; the j-th slot in (y ascending, x ascending) order takes the j-th
    # prime, consumed whether or not an arc uses it.
    rows = sorted(elements_of(I)) + [s, t]
    row_of = {e: i for i, e in enumerate(rows)}
    Z1 = [[Fraction(0)] * n for _ in rows]
    Z2 = [[Fraction(0)] * n for _ in rows]
    for y in iter_bits(I):
        Z1[row_of[y]][y] = Fraction(1)
        Z2[row_of[y]][y] = Fraction(1)
        Z1[row_of[y]][t] = Fraction(1)
        Z2[row_of[y]][s] = Fraction(1)
    Z1[row_of[s]][s] = Fraction(1)
    Z2[row_of[t]][t] = Fraction(1)
    plain_list = elements_of(plain)
    prime_iter = iter(_primes(k * len(plain_list)))
    for y in sorted(iter_bits(I)):
        for x in plain_list:
            p = Fraction(next(prime_iter))
            if (arcs1[y] >> x) & 1:
                Z1[row_of[y]][x] = p
            if (arcs2[x] >> y) & 1:
                Z2[row_of[y]][x] = p

    return GadgetInstance(
        graph=ColoredGraph(V, edges, g.coloring),
        n=n,
        names=tuple(names),
        I=I,
        s=s,
        t=t,
        values=values,
        Z1=tuple(tuple(r) for r in Z1),
        Z2=tuple(tuple(r) for r in Z2),
        arcs1=tuple(arcs1),
        arcs2=tuple(arcs2),
        vertex_x=tuple(vertex_x),
        vertex_y=tuple(vertex_y),
        edge_x=tuple(edge_x),
        edge_y=tuple(edge_y),
    )


# -- verification --------------------------------------------------------------


def verify_gadget(gi: GadgetInstance) -> list[BruteReport]:
    """Recompute every prescription from the matrices by exact rank.

    Checks the full value table and the uniform probe prescriptions through
    the min-rank oracle, and compares the true exchange graph with the one
    the gadget realizes: s the only source and t the only sink, the
    realized arcs on the plain slots, and s and t exchanging freely with
    all of I in both layers.
    """
    if gi.n > 40:
        raise ValueError("verify_gadget is capped at 40 columns")
    label = f"gadget(V={gi.graph.vertices},E={len(gi.graph.edges)})"
    make = partial(BruteReport.check, label)
    m1, m2 = gi.as_matroids()
    D = build_true_graph(m1, m2, gi.I)
    rmin = MinRankOracle(m1, m2).rmin

    reports: list[BruteReport] = []
    I, s, t, k = gi.I, gi.s, gi.t, gi.k

    bad_values = []
    for (X, Y), want in sorted(gi.values.items()):
        got = rmin((I | X) & ~Y)
        if got != want:
            bad_values.append(
                f"{format_set(X, gi.names)}-for-{format_set(Y, gi.names)}: "
                f"rank {got} vs {want}"
            )
    witnesses = tuple(bad_values[:5])
    reports.append(make("le-values", (), witnesses, witnesses))

    bad_probe = []
    if rmin(I | bit(s)) != k:
        bad_probe.append("I+s")
    if rmin(I | bit(t)) != k:
        bad_probe.append("I+t")
    if rmin(I | bit(s) | bit(t)) != k + 1:
        bad_probe.append("I+s+t")
    for y in iter_bits(I):
        for probe in (s, t):
            if rmin((I | bit(probe)) & ~bit(y)) != k:
                bad_probe.append(f"I+{gi.names[probe]}-{gi.names[y]}")
    for y in iter_bits(I):
        for x in iter_bits(gi.plain):
            for probe in (s, t):
                if rmin((I | bit(probe) | bit(x)) & ~bit(y)) != k:
                    bad_probe.append(
                        f"I+{gi.names[probe]}+{gi.names[x]}-{gi.names[y]}"
                    )
    witnesses = tuple(bad_probe[:5])
    reports.append(make("probe-prescriptions", (), witnesses, witnesses))

    sources, sinks = set(elements_of(D.S)), set(elements_of(D.T))
    reports.append(make("source-sink-sets", ({s}, {t}), (sources, sinks)))

    stars = bit(s) | bit(t)
    want = ExchangeGraph(
        gi.n,
        I,
        bit(s),
        bit(t),
        [heads | stars if (I >> y) & 1 else 0 for y, heads in enumerate(gi.arcs1)],
        [I if (stars >> x) & 1 else heads for x, heads in enumerate(gi.arcs2)],
    )
    bad_arcs = [
        f"({gi.names[u]},{gi.names[v]})"
        for u in range(gi.n)
        for v in iter_bits(D.successors(u) ^ want.successors(u))
    ]
    witnesses = tuple(bad_arcs[:5])
    reports.append(make("true-graph", (), witnesses, witnesses))
    return reports


# -- consistent-graph enumeration ----------------------------------------------


_SLOT_STATES: tuple[str | None, ...] = (None, "a", "b")


def _block_consistent(
    gi: GadgetInstance,
    states: Mapping[Slot, str | None],
    xs: Sequence[int],
    ys: Sequence[int],
) -> bool:
    """Whether slot states satisfy every observed exchange between xs and
    ys, each judged by `verify.check_consistency` on the states' arcs."""
    g = ExchangeGraph(gi.n, gi.I, 0, 0, *_slot_arcs(gi.n, states))
    return all(
        check_consistency(g, LEObservation(X, Y, gi.values[(X, Y)])) == "consistent"
        for X in small_subsets(mask_of(xs), 2)
        for Y in small_subsets(mask_of(ys), 2)
    )


def _block_situations(
    gi: GadgetInstance,
    xs: Sequence[int],
    ys: Sequence[int],
    situation: Callable[[dict[Slot, str | None]], object],
    expected: Sequence,
    label: str,
) -> dict:
    """Slot states between xs and ys that satisfy their observed values,
    keyed by `situation(states)`.

    Exhausts the 3^(|xs|·|ys|) states of the block's slots and requires
    exactly one survivor per key in `expected`.
    """
    slots = [(x, y) for x in xs for y in ys]
    survivors = []
    for combo in product(_SLOT_STATES, repeat=len(slots)):
        states = dict(zip(slots, combo))
        if _block_consistent(gi, states, xs, ys):
            survivors.append((situation(states), states))
    out = dict(survivors)
    if len(survivors) != len(expected) or set(out) != set(expected):
        keys = [key for key, _ in survivors]
        raise RuntimeError(f"{label}: consistent situations {keys}")
    return out


def _vertex_configs(
    gi: GadgetInstance, v: int
) -> dict[Color, dict[Slot, str | None]]:
    """Slot states of one vertex block: exactly the four color situations
    survive, keyed by the position of the arc into I."""
    vx, vy = gi.vertex_x[v], gi.vertex_y[v]
    colors = {(x, y): (i + 1, j + 1) for i, x in enumerate(vx) for j, y in enumerate(vy)}

    def color(states: Mapping[Slot, str | None]) -> Color | None:
        return next((colors[slot] for slot, st in states.items() if st == "a"), None)

    return _block_situations(gi, vx, vy, color, COLORS, f"vertex {v}")


def _edge_index_configs(
    gi: GadgetInstance, e: int, index: int
) -> dict[str, dict[Slot, str | None]]:
    """Slot states of one edge sub-gadget: exactly one "A" (the arc into I
    at the first endpoint's element) and one "B" survive."""
    ex = gi.edge_x[e]
    xs = (ex[0], ex[1]) if index == 0 else (ex[2], ex[3])
    ye = gi.edge_y[e][index]

    def orientation(states: Mapping[Slot, str | None]) -> str:
        return "A" if states[(xs[0], ye)] == "a" else "B"

    return _block_situations(gi, xs, (ye,), orientation, "AB", f"edge {e} index {index}")


def _endpoint_compatible(
    gi: GadgetInstance,
    e: int,
    side: int,
    color_states: Mapping[Slot, str | None],
    edge_states: Sequence[Mapping[Slot, str | None]],
) -> bool:
    """Whether a vertex situation coexists with the situations of the
    edge's two sub-gadgets.

    Checks every small-exchange value over the joint local universe of the
    vertex block and the edge's elements at this endpoint, with the forced
    double arcs filled in on unconstrained slots and the cross slots left
    empty.
    """
    v = gi.graph.edges[e][side]
    ex, ey = gi.edge_x[e], gi.edge_y[e]
    vx, vy = gi.vertex_x[v], gi.vertex_y[v]
    states: dict[Slot, str | None] = dict(color_states)
    for sub in edge_states:
        states.update(sub)
    xloc = [vx[0], vx[1], ex[side], ex[2 + side]]
    yloc = [vy[0], vy[1], ey[0], ey[1]]
    for x in xloc:
        for y in yloc:
            if (x, y) not in states and gi.values[(bit(x), bit(y))] == gi.k:
                states[(x, y)] = "both"
    return _block_consistent(gi, states, xloc, yloc)


def colorings_from_consistent_graphs(gi: GadgetInstance) -> set[tuple[Color, ...]]:
    """Colorings read off the arc assignments consistent with the table.

    Uses only the layout and the value table — never the coloring the
    instance was built from. Enumerates the slot states of each vertex
    block and edge sub-gadget separately (forced double arcs are pinned by
    their one-for-one values; cross slots between blocks may be left empty
    in a consistent assignment whenever any assignment exists, so fixing
    them empty collapses no colorings), stitches the blocks together
    through the per-endpoint compatibility check, and projects each
    surviving global assignment onto its vertex situations. Raises
    RuntimeError unless the result equals the proper 4-colorings; the
    orientation multiplicity of edge sub-gadgets collapses in the
    projection.
    """
    graph = ColoredGraph(gi.graph.vertices, gi.graph.edges)
    edges = graph.edges
    if graph.vertices > 4 or len(edges) > 4:
        raise ValueError("enumeration is capped at 4 vertices and 4 edges")

    vertex_configs = [_vertex_configs(gi, v) for v in range(graph.vertices)]
    cfg_pairs = tuple(product("AB", repeat=2))
    edge_ok: list[dict[tuple[int, Color, tuple[str, str]], bool]] = []
    for e, (u, w) in enumerate(edges):
        subs = [_edge_index_configs(gi, e, index) for index in (0, 1)]
        table: dict[tuple[int, Color, tuple[str, str]], bool] = {}
        for side, v in ((0, u), (1, w)):
            for color, cstates in vertex_configs[v].items():
                for cfgs in cfg_pairs:
                    edge_states = (subs[0][cfgs[0]], subs[1][cfgs[1]])
                    table[(side, color, cfgs)] = _endpoint_compatible(
                        gi, e, side, cstates, edge_states
                    )
        edge_ok.append(table)

    out = set()
    for combo in product(COLORS, repeat=graph.vertices):
        if all(
            any(
                edge_ok[e][(0, combo[u], cfgs)] and edge_ok[e][(1, combo[w], cfgs)]
                for cfgs in cfg_pairs
            )
            for e, (u, w) in enumerate(edges)
        ):
            out.add(combo)
    if out != proper_four_colorings(graph):
        raise RuntimeError("consistent assignments disagree with proper colorings")
    return out
