"""Exchangeability graphs over a common independent set.

Three constructions live here:

* the true graph (verification only — needs both matroids in the clear),
* the probe-pair graph built purely from min-rank queries, which contains
  the true graph and preserves its shortest source-sink paths, and
* the intersected graph: the intersection of all probe-pair graphs once the
  source/sink sets are fixed, with each arc labeled sure (certainly true)
  or suspicious (membership undetermined by the oracle).

All graphs are directed and bipartite between I and E \\ I, and an arc's
layer is named by the side of its tail: an arc (y, x) out of y ∈ I is a
layer-1 arc, an exchange in the first matroid, and an arc (x, y) out of
x ∉ I is a layer-2 arc, an exchange in the second. An augmenting path
starts at a source, alternates sides, and ends at a sink; swapping I by the
symmetric difference of such a path grows the common independent set by one.

The true graph is built by one filler (`_fill`) that asks the matroids'
arc rule one outside element at a time. The probe graphs are built from
group tests on fundamental circuits instead. A star (an element of exactly
one of S and T) x has `rmin((I ∖ Y) + x)` equal to |I| − |Y| + 1 when Y
meets x's circuit in I and |I| − |Y| otherwise; a plain element gets the
same test with a probe of the other side added, on the part of I that
misses the probe's circuit. One splitting search (`_split`) finds each
circuit from such tests, holds every answer to its two allowed values and
asks every member it reports. It serves `_probe_graph`, which both probe
builders share, and the reverse BFS (`_search`) of the cardinality solver,
which asks only about the arcs it scans. One label-correcting search over
a built graph (`shortest_cheapest_path`) finds a shortest cheapest path or
its certificate; at zero costs it answers `shortest_augmenting_path` and
`reachability_certificate`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, NamedTuple, Sequence

from .bitset import bit, elements_of, format_set, full_mask, iter_bits, mask_of, popcount
from .core import Matroid
from .errors import NegativeCycleError
from .oracle import Oracle


class StarPair(NamedTuple):
    """A probe pair (s, t): each extends I alone at flat rank, together they
    lift the min-rank by one."""

    s: int
    t: int


class ExchangeGraph:
    """Dense bipartite arc structure over (E \\ I, I) with sure/suspicious labels.

    ``succ[v]`` is the head mask of the arcs leaving v: heads outside I when
    v ∈ I (layer 1), heads in I when v ∉ I (layer 2), so arc (u, v) is bit
    v of ``succ[u]``. ``sure[v]`` marks the sure subset of ``succ[v]``; the
    rest of the arcs are suspicious, and without ``sure`` every arc is sure.
    Instances are immutable; mutation helpers return fresh graphs.
    """

    __slots__ = ("n", "I", "S", "T", "succ", "sure", "kind")

    def __init__(
        self,
        n: int,
        I: int,
        S: int,
        T: int,
        succ: list[int] | tuple[int, ...],
        *,
        sure: list[int] | tuple[int, ...] | None = None,
        kind: str = "true",
    ):
        outside = full_mask(n) & ~I
        if S & ~outside or T & ~outside:
            raise ValueError("sources/sinks must lie outside I")
        self.n = n
        self.I = I
        self.S = S
        self.T = T
        self.succ = tuple(succ)
        self.sure = self.succ if sure is None else tuple(sure)
        if len(self.succ) != n or len(self.sure) != n:
            raise ValueError(f"expected one head mask per vertex, {n} in all")
        for v, heads in enumerate(self.succ):
            if heads & ~(outside if (I >> v) & 1 else I):
                raise ValueError(f"an arc out of {v} does not cross between I and E \\ I")
            if self.sure[v] & ~heads:
                raise ValueError(f"a sure arc out of {v} is not an arc")
        self.kind = kind

    # -- structure ---------------------------------------------------------

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Every arc (u, v), ascending."""
        for u, heads in enumerate(self.succ):
            for v in iter_bits(heads):
                yield (u, v)

    def suspicious_pairs(self) -> Iterator[tuple[int, int]]:
        for u, heads in enumerate(self.succ):
            for v in iter_bits(heads & ~self.sure[u]):
                yield (u, v)

    # -- derived graphs ----------------------------------------------------

    def with_assignment(self, chosen: dict[tuple[int, int], bool]) -> "ExchangeGraph":
        """Keep sure arcs; keep a suspicious arc iff chosen[(u, v)] is True.
        Choosing a sure, absent or out-of-range arc raises ValueError."""
        succ = list(self.sure)
        for (u, v), keep in chosen.items():
            if not keep:
                continue
            loose = self.succ[u] & ~self.sure[u] if 0 <= u < self.n else 0
            if v < 0 or not (loose >> v) & 1:
                raise ValueError(f"({u},{v}) is not a suspicious arc")
            succ[u] |= bit(v)
        return ExchangeGraph(
            self.n, self.I, self.S, self.T, succ, sure=self.sure, kind="consistent"
        )

    def to_dot(self, names: tuple[str, ...] | None = None) -> str:
        """Deterministic DOT text: I-side boxed, sources/sinks highlighted,
        sure arcs solid, suspicious arcs dashed."""

        def label(v: int) -> str:
            if not names:
                return str(v)
            return names[v].replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph exchange {", "  rankdir=LR;"]
        for v in range(self.n):
            attrs = [f'label="{label(v)}"']
            attrs.append("shape=box" if (self.I >> v) & 1 else "shape=ellipse")
            roles = []
            if (self.S >> v) & 1:
                roles.append("source")
            if (self.T >> v) & 1:
                roles.append("sink")
            if roles:
                attrs.append("peripheries=2")
                attrs.append(f'xlabel="{"+".join(roles)}"')
            lines.append(f"  v{v} [{', '.join(attrs)}];")
        for u, v in self.arcs():
            style = "solid" if (self.sure[u] >> v) & 1 else "dashed"
            lines.append(f"  v{u} -> v{v} [style={style}];")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"ExchangeGraph(kind={self.kind!r}, I={format_set(self.I)}, "
            f"S={format_set(self.S)}, T={format_set(self.T)}, "
            f"arcs={sum(map(popcount, self.succ))})"
        )


# -- construction ------------------------------------------------------------


def _fill(n: int, I: int, outside: int, arc: Callable[[int, int], bool]) -> list[int]:
    """Every arc that `arc(u, v)` admits, one outside element x at a time in
    ascending order: first the arcs (y, x) into x, then the arcs (x, y) out
    of x, each with y ascending. Returns the head mask of every vertex."""
    succ = [0] * n
    inside = elements_of(I)
    for x in iter_bits(outside):
        xb = 1 << x
        for y in inside:
            if arc(y, x):
                succ[y] |= xb
        for y in inside:
            if arc(x, y):
                succ[x] |= 1 << y
    return succ


def build_true_graph(m1: Matroid, m2: Matroid, I: int) -> ExchangeGraph:
    """The exact exchangeability graph, computed from both matroids.

    Layer-1 arc (y, x) means I + x - y stays independent in the first
    matroid; layer-2 arc (x, y) says the same for the second. Sources are
    the elements addable in the first matroid, sinks in the second.
    Verification-only: solvers never see the matroids individually.
    """
    if not (m1.is_independent(I) and m2.is_independent(I)):
        raise ValueError("I is not a common independent set")
    outside = full_mask(m1.n) & ~I
    S = mask_of(x for x in iter_bits(outside) if m1.is_independent(I | bit(x)))
    T = mask_of(x for x in iter_bits(outside) if m2.is_independent(I | bit(x)))

    def arc(u: int, v: int) -> bool:
        if (I >> u) & 1:
            return m1.is_independent(I & ~bit(u) | bit(v))
        return m2.is_independent(I & ~bit(v) | bit(u))

    return ExchangeGraph(m1.n, I, S, T, _fill(m1.n, I, outside, arc), kind="true")


def find_star_pair(o: Oracle, I: int) -> ExtensionSurvey:
    """`survey_extensions(o, I, first=True)`. No solver calls it; it stays
    because `perfbench/spans.py` hooks this name, and goes with that hook."""
    return survey_extensions(o, I, first=True)


class ExtensionSurvey(NamedTuple):
    """Addability scan: the rank-lifting singletons (`direct`) and the
    probe pair: the lexicographically smallest (s, t), s < t, of flat
    elements with `rmin(I + s + t) > |I|`, found by the prefix searches of
    `survey_extensions` (None if no pair qualifies)."""

    direct: tuple[int, ...]
    pair: StarPair | None

    @property
    def all_flat(self) -> bool:
        return not self.direct and self.pair is None


def survey_extensions(
    o: Oracle, I: int, first: bool = False, known_flat: int = 0
) -> ExtensionSurvey:
    """Scan the additions to the common independent set I through the oracle.

    Collects every element whose addition lifts the min-rank, then finds
    the lexicographically smallest probe pair among the flat elements (the
    rest). The weighted solvers need the pair even when rank-lifting
    singletons exist. With `first`, the scan stops at the first rank-lifting
    element and reports it alone, with no pair.

    `known_flat` names elements outside I known to be flat, which the scan
    files as flat without asking. A flat element stays flat while I grows
    (I + y is dependent in one matroid, and so is every superset), so once
    the scan with `first` stops at its lift x, every element outside I
    below x, and every one of `known_flat`, is flat at I + x.

    The pair comes from two prefix searches, not from asking every pair. A
    flat element is addable in one matroid or in neither, never in both, so
    for P ⊆ flat, `rmin(I ∪ P) > |I|` holds iff P meets both addable
    classes; along prefixes of the flat list that predicate is monotone.
    The shortest lifting prefix ends at t; the shortest prefix of the
    elements before t that lifts with t added ends at s. Each search
    gallops (`_shortest_lift`): the first asks prefixes of length 2, 4,
    8, ... and then the whole list, the second asks lengths 1, 2, 4, ...
    below t's position; then each binary-searches the last gap. A lift is
    any value above |I|, since a longer prefix can lift by two. A singleton
    answer outside |I| .. |I| + 1, or a prefix answer outside
    |I| .. |I| + |P| // 2, breaks the premise and raises ValueError.
    """
    k = popcount(I)

    def lifts(P: int, top: int) -> bool:
        value = o.rmin(I | P)
        if not k <= value <= top:
            raise ValueError(
                f"rmin({format_set(I | P)}) = {value}, but adding "
                f"{format_set(P)} to I = {format_set(I)} must give {k} to {top}"
            )
        return value > k

    direct = []
    flat = []
    for x in iter_bits(o.ground & ~I):
        if (known_flat >> x) & 1 or not lifts(bit(x), k + 1):
            flat.append(x)
        elif first:
            return ExtensionSurvey((x,), None)
        else:
            direct.append(x)
    prefix = [0]
    for x in flat:
        prefix.append(prefix[-1] | bit(x))

    def lifts_flat(P: int) -> bool:
        # Each flat element of P is addable in at most one matroid.
        return lifts(P, k + popcount(P) // 2)

    # A one-element prefix is flat: the scan above asked it or knew it.
    j = _shortest_lift(lambda L: lifts_flat(prefix[L]), 1, len(flat), False)
    if j is None:
        return ExtensionSurvey(tuple(direct), None)
    t = flat[j - 1]
    i = _shortest_lift(lambda L: lifts_flat(prefix[L] | bit(t)), 0, j - 1, True)
    return ExtensionSurvey(tuple(direct), StarPair(flat[i - 1], t))


def _shortest_lift(
    lifts: Callable[[int], bool], lo: int, hi: int, known: bool
) -> int | None:
    """The least length L in (lo, hi] with `lifts(L)`, for a predicate
    monotone in L that fails at lo and, if `known`, holds at hi; None if it
    fails at hi (or the range is empty).

    Galloping: ask the powers of two above lo and below hi in order, then
    hi unless known, up to the first that lifts; then binary-search the
    last gap. A lift at position p costs about 2·log2(p) questions."""
    if hi <= lo:
        return None
    L = 1
    while L <= lo:
        L *= 2
    while L < hi:
        if lifts(L):
            hi = L
            break
        lo = L
        L *= 2
    else:
        if not known and not lifts(hi):
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lifts(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _star_sets(o: Oracle, I: int, sp: StarPair) -> tuple[int, int]:
    """Sources/sinks from the probe pair: s joins the source side if adding
    it alongside t* lifts the rank; sinks mirror with s*."""
    k = popcount(I)
    outside = o.ground & ~I
    if sp.s == sp.t or (I | ~o.ground) & (bit(sp.s) | bit(sp.t)):
        raise ValueError("probe pair must be two distinct elements outside I")
    sb, tb = bit(sp.s), bit(sp.t)
    S = mask_of(x for x in iter_bits(outside & ~tb) if o.rmin(I | bit(x) | tb) == k + 1)
    T = mask_of(x for x in iter_bits(outside & ~sb) if o.rmin(I | sb | bit(x)) == k + 1)
    if not (S >> sp.s) & 1 or not (T >> sp.t) & 1:
        raise ValueError(f"({sp.s}, {sp.t}) is not a valid probe pair for I")
    return S, T


def _split(o: Oracle, G: int, query: Callable[[int], tuple[int, int]]) -> int:
    """The members of G in a hidden set C, found by group tests.

    `query(Y)` names, for a nonempty Y ⊆ G, the set X whose min-rank is
    `low` when Y misses C and `low + 1` when Y meets it, as (X, low). G is
    asked whole; a group that meets C splits in two halves, the lower half
    is asked, and the upper half is asked too when the lower one meets C,
    else it is known to meet C. A group of one known to meet C without
    being asked is asked still, so every member found stands on its own
    answer. That takes about |C ∩ G|·log2|G| questions instead of |G|.

    An answer outside `low` .. `low + 1`, or a group of one that misses C
    although its sibling's answer says it meets it, breaks the premise and
    raises ValueError naming the set.
    """

    def meets(Y: int, known: bool = False) -> bool:
        X, low = query(Y)
        value = o.rmin(X)
        if not low + known <= value <= low + 1:
            allowed = f"{low + 1}" if known else f"{low} or {low + 1}"
            raise ValueError(
                f"rmin({format_set(X)}) = {value}, but the group test of "
                f"{format_set(Y)} must give {allowed}"
            )
        return value > low

    def find(Y: int, asked: bool) -> int:
        # Y meets C: its own answer says so, or its sibling's does.
        if not Y & (Y - 1):
            return Y if asked or meets(Y, True) else 0
        members = elements_of(Y)
        A = mask_of(members[: len(members) // 2])
        B = Y & ~A
        if meets(A):
            return find(A, True) | (find(B, True) if meets(B) else 0)
        return find(B, False)

    return find(G, True) if G and meets(G) else 0


def _column(o: Oracle, I: int, G: int, xb: int) -> int:
    """The members y of G ⊆ I on the fundamental circuit of an outside
    element, by group tests on `rmin((I ∖ Y) | xb)`, which is |I| − |Y| + 1
    when Y meets the circuit and |I| − |Y| otherwise. xb holds the element
    alone for a star (a source or sink of one side only), or with a probe
    of the other side whose own circuit misses G."""
    k = popcount(I)
    return _split(o, G, lambda Y: (I & ~Y | xb, k - popcount(Y)))


def _probe_graph(
    o: Oracle,
    I: int,
    S: int,
    T: int,
    t_probes: list[int],
    s_probes: list[int],
) -> tuple[list[int], list[int]]:
    """The probe graph with sources S and sinks T, whose plain arcs hold
    against every sink-side probe in `t_probes` (layer 1) and every
    source-side probe in `s_probes` (layer 2), by group tests.

    In probe orientation layer 1 reads the matroid that S extends and
    layer 2 the one that T extends. A layer-1 arc into a source and a
    layer-2 arc out of a sink are free. A star, an element of one of S and
    T only, has one circuit C(x) in I: its layer-1 column if it is a sink,
    its layer-2 row if it is a source, and the stars are asked first. A
    plain element x (in neither) has the arc (y, x) against a probe t' iff
    y lies in C(x) or in the column of t', so its layer-1 column is C(x)
    together with K1, the elements of I in every probe's column. The rest
    of I is cut into groups, each the part left over that misses the
    column of one probe, and searched with x and that probe added. Layer 2
    mirrors this with the rows of the source-side probes. Arcs incident to
    a source or sink are sure. Returns (succ, sure).
    """
    n = o.n
    outside = o.ground & ~I
    star = {x: _column(o, I, I, bit(x)) for x in iter_bits(outside & (S ^ T))}

    def groups(probes: list[int]) -> tuple[int, list[tuple[int, int]]]:
        known = I
        for p in probes:
            known &= star[p]
        cut, rest = [], I & ~known
        for p in probes:
            if rest & ~star[p]:
                cut.append((rest & ~star[p], bit(p)))
                rest &= star[p]
        return known, cut

    def plain(xb: int, layer: tuple[int, list[tuple[int, int]]]) -> int:
        known, cut = layer
        for G, pb in cut:
            known |= _column(o, I, G, xb | pb)
        return known

    layer1, layer2 = groups(t_probes), groups(s_probes)
    succ = [0] * n
    for x in iter_bits(outside):
        xb = 1 << x
        column = I if S & xb else star[x] if T & xb else plain(xb, layer1)
        succ[x] = I if T & xb else star[x] if S & xb else plain(xb, layer2)
        for y in iter_bits(column):
            succ[y] |= xb
    st = S | T
    return succ, [heads if (st >> v) & 1 else heads & st for v, heads in enumerate(succ)]


def build_modified_graph(o: Oracle, I: int, sp: StarPair) -> ExchangeGraph:
    """The probe-pair graph: the probe graph whose swap probes run against
    the opposite probe element only.

    Contains the true graph; extra arcs never touch sources or sinks and
    never shorten any source-sink path. Arcs incident to a source or sink
    are labeled sure, the rest suspicious.
    """
    S, T = _star_sets(o, I, sp)
    succ, sure = _probe_graph(o, I, S, T, [sp.t], [sp.s])
    return ExchangeGraph(o.n, I, S, T, succ, sure=sure, kind="modified")


def intersect_modified(o: Oracle, I: int, sp: StarPair) -> ExchangeGraph:
    """Intersection of the probe-pair graphs over all probe choices.

    With sources and sinks fixed, only the swap-probe arcs vary with the
    probe, so the intersection re-tests each candidate arc against every
    sink-side (layer 1) or source-side (layer 2) probe. Labels: an arc is
    sure when incident to a source/sink, or when its end in I misses an
    arc to some sink (layer 1) / from some source (layer 2) — the
    intersection then certifies it as a true arc. All else is suspicious.
    """
    S, T = _star_sets(o, I, sp)
    succ, sure = _probe_graph(o, I, S, T, elements_of(T & ~S), elements_of(S & ~T))
    # A sink missing from a tail's heads certifies every head of that tail;
    # a head in I that some source misses is certified for every tail.
    certified = 0
    for s in iter_bits(S):
        certified |= I & ~succ[s]
    sure = [
        (heads if T & ~heads else mark) if (I >> v) & 1 else mark | heads & certified
        for v, (heads, mark) in enumerate(zip(succ, sure))
    ]
    return ExchangeGraph(o.n, I, S, T, succ, sure=sure, kind="intersected")


# -- paths -------------------------------------------------------------------


def _search(
    I: int, outside: int, S: int, T: int, tails: Callable[[int, int], int]
) -> tuple[int, dict[int, int]]:
    """Reverse BFS from the sinks T over the arcs that `tails` reports.

    Each frontier is scanned in ascending order, and `tails(v, U)` returns
    the members u of U with an arc (u, v), where U is every vertex on the
    other side that no earlier scan reached, so every arc is asked at most
    once. The first v that reaches u is recorded: it is u's smallest
    successor one level down. The search stops after the first level that
    holds a source, so a sink that is also a source ends it at level 0.
    Returns (reached, nxt): the mask of reached vertices, and the recorded
    successor of each reached non-sink.
    """
    nxt: dict[int, int] = {}
    reached = frontier = T
    while frontier and not frontier & S:
        scan, frontier = frontier, 0
        for v in iter_bits(scan):
            found = tails(v, (outside if (I >> v) & 1 else I) & ~reached)
            for u in iter_bits(found):
                nxt[u] = v
            reached |= found
            frontier |= found
    return reached, nxt


def probe_pair_search(
    o: Oracle, I: int, sp: StarPair
) -> tuple[list[int] | None, int]:
    """The probe-pair graph's shortest augmenting path, or its certificate,
    with arcs found on demand by group tests.

    Same answer as `shortest_cheapest_path` at zero costs on
    `build_modified_graph(o, I, sp)`, but the reverse BFS asks only about
    the arcs it scans, and the path walks from the smallest reached source
    along the recorded successors. The arcs into an outside vertex v are
    its column: a sink's star column, or, for a plain v, the group tests
    with t* added; every element of I whose arc reaches t* was reached at
    level 1, so the rest misses t*'s column. The arcs out to an element v
    of I group by tail: for U ⊆ S ∖ T, `rmin((I − v) ∪ U)` is |I| if some
    u in U has the arc (u, v) and |I| − 1 otherwise; plain tails are
    grouped the same way with s* added when (s*, v) is no arc, and all
    have the arc when it is one. Returns (path, 0) when a path exists, else
    (None, Z) with Z the set of vertices that reach a sink.
    """
    S, T = _star_sets(o, I, sp)
    k = popcount(I)
    sb, tb = bit(sp.s), bit(sp.t)

    def tails(v: int, U: int) -> int:
        vb = 1 << v
        if not I & vb:
            return _column(o, I, U, vb if T & vb else vb | tb)
        rest = I & ~vb
        plain = U & ~S
        star = _split(o, U & S | (sb if plain else 0), lambda W: (rest | W, k - 1))
        if plain and not star & sb:
            plain = _split(o, plain, lambda W: (rest | W | sb, k - 1))
        return (star | plain) & U

    reached, nxt = _search(I, o.ground & ~I, S, T, tails)
    v = next(iter_bits(reached & S), None)
    if v is None:
        return None, reached
    path = [v]
    while v in nxt:
        v = nxt[v]
        path.append(v)
    return path, 0


def shortest_cheapest_path(
    g: ExchangeGraph, w: Sequence
) -> tuple[list[int] | None, int]:
    """Minimum (`path_cost`, length) source-to-sink path, ties broken toward
    the smallest vertex sequence. Returns (path, 0) when a source reaches a
    sink, else (None, Z) with Z the set of vertices that reach a sink.

    One label-correcting search: the sinks are seeded with (cost, length)
    labels, vertex costs include both endpoints, and a FIFO worklist
    relaxes labels backwards along predecessor masks until none improves.
    The weighted modes pass weights scaled once to exact ints, so every
    label sum is an int addition. Without a negative-cost cycle the fixed
    point is unique: each label is the minimum over simple paths. A label
    that improves to more than n vertices repeats a vertex, which only a
    negative-cost cycle reaching a sink allows; that raises
    NegativeCycleError, a contract violation, since the caller guarantees a
    weight-maximal base set.
    """
    n = g.n
    c = [w[v] if (g.I >> v) & 1 else -w[v] for v in range(n)]
    pred = [0] * n
    for u in range(n):
        for v in iter_bits(g.succ[u]):
            pred[v] |= 1 << u
    label: dict[int, tuple] = {t: (c[t], 1) for t in elements_of(g.T)}
    work = deque(label)
    waiting = g.T
    while work:
        v = work.popleft()
        waiting &= ~(1 << v)
        cost, length = label[v]
        length += 1
        for u in iter_bits(pred[v]):
            cand = (c[u] + cost, length)
            lu = label.get(u)
            if lu is None or cand < lu:
                if length > n:
                    raise NegativeCycleError(
                        "negative-cost cycle in the exchangeability graph; the "
                        "base set was not weight-maximal or the graph is "
                        "inconsistent"
                    )
                label[u] = cand
                if not (waiting >> u) & 1:
                    waiting |= 1 << u
                    work.append(u)
    start = None
    best = None
    for s in elements_of(g.S):
        ls = label.get(s)
        if ls is not None and (best is None or ls < best):
            best, start = ls, s
    if start is None:
        return None, mask_of(label)
    path = [start]
    v = start
    cost_v, len_v = label[v]
    while len_v > 1:
        v = min(
            u
            for u in iter_bits(g.succ[v])
            if u in label
            and label[u][1] == len_v - 1
            and c[v] + label[u][0] == cost_v
        )
        path.append(v)
        cost_v, len_v = label[v]
    return path, 0


def shortest_augmenting_path(g: ExchangeGraph) -> list[int] | None:
    """`shortest_cheapest_path` at zero costs: the minimum-arc source-to-sink
    path with the smallest vertex sequence, or None when no sink is
    reachable. A source that is also a sink yields a single-vertex path."""
    return shortest_cheapest_path(g, [0] * g.n)[0]


def reachability_certificate(g: ExchangeGraph) -> int:
    """The set of vertices that can reach a sink (sinks included).

    Only valid when no source reaches a sink, else ValueError; the caller
    pairs the returned set with its complement as a min-rank duality
    certificate.
    """
    path, Z = shortest_cheapest_path(g, [0] * g.n)
    if path is not None:
        raise ValueError("a source reaches a sink; an augmenting path exists")
    return Z
