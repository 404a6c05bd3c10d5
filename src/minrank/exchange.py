"""Exchangeability graphs over a common independent set.

Three constructions live here:

* the true graph (verification only — needs both matroids in the clear),
* the probe-pair graph built purely from min-rank queries, which contains
  the true graph and preserves its shortest source-sink paths, and
* the intersected graph: the intersection of all probe-pair graphs once the
  source/sink sets are fixed, with each arc labeled sure (certainly true)
  or suspicious (membership undetermined by the oracle).

All graphs are directed and bipartite between I and E \\ I: layer-1 arcs run
from I outward, layer-2 arcs run from outside into I. An augmenting path
starts at a source, alternates sides, and ends at a sink; swapping I by the
symmetric difference of such a path grows the common independent set by one.

Every graph is built by one filler (`_fill`) that asks an arc rule one
outside element at a time: the matroids' rule for the true graph, and
`_arc_rule` for the probe graphs. One reverse BFS (`_search`) finds paths
and certificates. The cardinality solver runs it over `_arc_rule` itself,
with arcs tested on demand. Over a built graph (`shortest_augmenting_path`,
`reachability_certificate`) it is the reference that on-demand search is
tested against.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .bitset import bit, elements_of, format_set, full_mask, iter_bits, mask_of, popcount
from .core import Matroid
from .oracle import Oracle


class StarPair(NamedTuple):
    """A probe pair (s, t): each extends I alone at flat rank, together they
    lift the min-rank by one."""

    s: int
    t: int


class ExchangeGraph:
    """Dense bipartite arc structure over (E \\ I, I) with sure/suspicious labels.

    ``arcs1[y]`` is the head mask of layer-1 arcs (y, x) leaving y ∈ I;
    ``arcs2[x]`` is the head mask of layer-2 arcs (x, y) leaving x ∉ I.
    ``sure1``/``sure2`` mark the sure subset of each layer; the rest of the
    arcs are suspicious. Instances are immutable; mutation helpers return
    fresh graphs.
    """

    __slots__ = ("n", "I", "S", "T", "arcs1", "arcs2", "sure1", "sure2", "kind")

    def __init__(
        self,
        n: int,
        I: int,
        S: int,
        T: int,
        arcs1: list[int] | tuple[int, ...],
        arcs2: list[int] | tuple[int, ...],
        sure1: list[int] | tuple[int, ...] | None = None,
        sure2: list[int] | tuple[int, ...] | None = None,
        kind: str = "true",
    ):
        outside = full_mask(n) & ~I
        if S & ~outside or T & ~outside:
            raise ValueError("sources/sinks must lie outside I")
        self.n = n
        self.I = I
        self.S = S
        self.T = T
        self.arcs1 = tuple(arcs1)
        self.arcs2 = tuple(arcs2)
        self.sure1 = tuple(sure1) if sure1 is not None else tuple(arcs1)
        self.sure2 = tuple(sure2) if sure2 is not None else tuple(arcs2)
        for y in range(n):
            heads = self.arcs1[y]
            if heads and not (I >> y) & 1:
                raise ValueError("layer-1 arcs must leave I")
            if heads & ~outside or self.sure1[y] & ~heads:
                raise ValueError("bad layer-1 head mask")
        for x in range(n):
            heads = self.arcs2[x]
            if heads and (I >> x) & 1:
                raise ValueError("layer-2 arcs must leave E \\ I")
            if heads & ~I or self.sure2[x] & ~heads:
                raise ValueError("bad layer-2 head mask")
        self.kind = kind

    # -- structure ---------------------------------------------------------

    def successors(self, v: int) -> int:
        return self.arcs1[v] if (self.I >> v) & 1 else self.arcs2[v]

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.successors(u) >> v) & 1)

    def is_sure(self, u: int, v: int) -> bool:
        layer = self.sure1 if (self.I >> u) & 1 else self.sure2
        return bool((layer[u] >> v) & 1)

    def arcs1_pairs(self) -> Iterator[tuple[int, int]]:
        for y in iter_bits(self.I):
            for x in iter_bits(self.arcs1[y]):
                yield (y, x)

    def arcs2_pairs(self) -> Iterator[tuple[int, int]]:
        for x in range(self.n):
            if not (self.I >> x) & 1:
                for y in iter_bits(self.arcs2[x]):
                    yield (x, y)

    def suspicious_pairs(self) -> Iterator[tuple[int, int]]:
        for y in iter_bits(self.I):
            for x in iter_bits(self.arcs1[y] & ~self.sure1[y]):
                yield (y, x)
        for x in range(self.n):
            if not (self.I >> x) & 1:
                for y in iter_bits(self.arcs2[x] & ~self.sure2[x]):
                    yield (x, y)

    def arc_count(self) -> int:
        return sum(popcount(m) for m in self.arcs1) + sum(
            popcount(m) for m in self.arcs2
        )

    # -- derived graphs ----------------------------------------------------

    def with_assignment(self, chosen: dict[tuple[int, int], bool]) -> "ExchangeGraph":
        """Keep sure arcs; keep a suspicious arc iff chosen[(u, v)] is True."""
        arcs1, arcs2 = list(self.sure1), list(self.sure2)
        sure1, sure2 = list(self.sure1), list(self.sure2)
        for (u, v), keep in chosen.items():
            if not keep:
                continue
            if not self.has_arc(u, v) or self.is_sure(u, v):
                raise ValueError(f"({u},{v}) is not a suspicious arc")
            if (self.I >> u) & 1:
                arcs1[u] |= bit(v)
            else:
                arcs2[u] |= bit(v)
        return ExchangeGraph(
            self.n, self.I, self.S, self.T, arcs1, arcs2, sure1, sure2, "consistent"
        )

    def to_dot(self, names: tuple[str, ...] | None = None) -> str:
        """Deterministic DOT text: I-side boxed, sources/sinks highlighted,
        sure arcs solid, suspicious arcs dashed."""

        def label(v: int) -> str:
            return names[v] if names else str(v)

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
        arcs = sorted(list(self.arcs1_pairs()) + list(self.arcs2_pairs()))
        for u, v in arcs:
            style = "solid" if self.is_sure(u, v) else "dashed"
            lines.append(f"  v{u} -> v{v} [style={style}];")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"ExchangeGraph(kind={self.kind!r}, I={format_set(self.I)}, "
            f"S={format_set(self.S)}, T={format_set(self.T)}, "
            f"arcs={self.arc_count()})"
        )


# -- construction ------------------------------------------------------------


def _fill(
    n: int, I: int, outside: int, arc: Callable[[int, int], bool]
) -> tuple[list[int], list[int]]:
    """Every arc that `arc(u, v)` admits, one outside element x at a time in
    ascending order: first the layer-1 arcs (y, x) into x, then the layer-2
    arcs (x, y) out of x, each with y ascending. Returns (arcs1, arcs2)."""
    arcs1 = [0] * n
    arcs2 = [0] * n
    inside = elements_of(I)
    for x in iter_bits(outside):
        xb = 1 << x
        for y in inside:
            if arc(y, x):
                arcs1[y] |= xb
        for y in inside:
            if arc(x, y):
                arcs2[x] |= 1 << y
    return arcs1, arcs2


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

    arcs1, arcs2 = _fill(m1.n, I, outside, arc)
    return ExchangeGraph(m1.n, I, S, T, arcs1, arcs2, kind="true")


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


def survey_extensions(o: Oracle, I: int, first: bool = False) -> ExtensionSurvey:
    """Scan the additions to the common independent set I through the oracle.

    Collects every element whose addition lifts the min-rank, then finds
    the lexicographically smallest probe pair among the flat elements (the
    rest). The weighted solvers need the pair even when rank-lifting
    singletons exist. With `first`, the scan stops at the first rank-lifting
    element and reports it alone, with no pair.

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
        if lifts(bit(x), k + 1):
            if first:
                return ExtensionSurvey((x,), None)
            direct.append(x)
        else:
            flat.append(x)
    prefix = [0]
    for x in flat:
        prefix.append(prefix[-1] | bit(x))

    def lifts_flat(P: int) -> bool:
        # Each flat element of P is addable in at most one matroid.
        return lifts(P, k + popcount(P) // 2)

    # A one-element prefix is flat: the scan above asked it.
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


def _arc_rule(
    o: Oracle,
    I: int,
    S: int,
    T: int,
    t_probes: list[int],
    s_probes: list[int],
) -> Callable[[int, int], bool]:
    """The arc test of a probe graph with sources S and sinks T.

    Arcs that touch a source or sink keep their full stars. A layer-1 arc
    into a source and a layer-2 arc out of a sink are admitted here without
    a query, and nowhere else; a layer-1 arc into a sink or a layer-2 arc
    out of a source costs one swap query. Every other arc is admitted when
    a three-element swap probe keeps the min-rank flat against each
    sink-side probe in `t_probes` (layer 1) or each source-side probe in
    `s_probes` (layer 2), in order, stopping at the first failure.
    """
    k = popcount(I)
    t_masks = [bit(t) for t in t_probes]
    s_masks = [bit(s) for s in s_probes]
    rmin = o.rmin

    def arc(u: int, v: int) -> bool:
        if (I >> u) & 1:
            xb = 1 << v
            if S & xb:
                return True
            base = I & ~(1 << u) | xb
            if T & xb:
                return rmin(base) == k
            probes = t_masks
        else:
            xb = 1 << u
            if T & xb:
                return True
            base = I & ~(1 << v) | xb
            if S & xb:
                return rmin(base) == k
            probes = s_masks
        for pb in probes:
            if rmin(base | pb) != k:
                return False
        return True

    return arc


def _probe_graph(
    o: Oracle,
    I: int,
    S: int,
    T: int,
    t_probes: list[int],
    s_probes: list[int],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Every arc that `_arc_rule` admits, asked by `_fill` one outside
    element at a time (the tests pin the query sequence), with base sure
    labels: arcs incident to a source or sink are sure. Returns (arcs1,
    arcs2, sure1, sure2)."""
    arc = _arc_rule(o, I, S, T, t_probes, s_probes)
    arcs1, arcs2 = _fill(o.n, I, o.ground & ~I, arc)
    st = S | T
    sure1 = [heads & st for heads in arcs1]
    sure2 = [heads if (st >> x) & 1 else 0 for x, heads in enumerate(arcs2)]
    return arcs1, arcs2, sure1, sure2


def build_modified_graph(o: Oracle, I: int, sp: StarPair) -> ExchangeGraph:
    """The probe-pair graph: the probe graph whose swap probes run against
    the opposite probe element only.

    Contains the true graph; extra arcs never touch sources or sinks and
    never shorten any source-sink path. Arcs incident to a source or sink
    are labeled sure, the rest suspicious.
    """
    S, T = _star_sets(o, I, sp)
    arcs1, arcs2, sure1, sure2 = _probe_graph(o, I, S, T, [sp.t], [sp.s])
    return ExchangeGraph(o.n, I, S, T, arcs1, arcs2, sure1, sure2, kind="modified")


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
    arcs1, arcs2, sure1, sure2 = _probe_graph(
        o, I, S, T, elements_of(T & ~S), elements_of(S & ~T)
    )
    # A sink missing from a tail's heads certifies every head of that tail;
    # a head in I that some source misses is certified for every tail.
    sure1 = [heads if T & ~heads else sure for sure, heads in zip(sure1, arcs1)]
    certified = 0
    for s in iter_bits(S):
        certified |= I & ~arcs2[s]
    sure2 = [sure | heads & certified for sure, heads in zip(sure2, arcs2)]
    return ExchangeGraph(o.n, I, S, T, arcs1, arcs2, sure1, sure2, kind="intersected")


# -- paths -------------------------------------------------------------------


def _search(
    I: int, outside: int, S: int, T: int, arc: Callable[[int, int], bool]
) -> tuple[int, dict[int, int]]:
    """Reverse BFS from the sinks T over the arcs that `arc(u, v)` admits.

    Each frontier is scanned in ascending order, and (u, v) is asked only
    for a u on the other side that no earlier test reached, so every arc is
    asked at most once. The first v that reaches u is recorded: it is u's
    smallest successor one level down. The search stops after the first
    level that holds a source, so a sink that is also a source ends it at
    level 0. Returns (reached, nxt): the mask of reached vertices, and the
    recorded successor of each reached non-sink.
    """
    nxt: dict[int, int] = {}
    reached = frontier = T
    while frontier and not frontier & S:
        scan, frontier = frontier, 0
        for v in iter_bits(scan):
            for u in iter_bits((outside if (I >> v) & 1 else I) & ~reached):
                if arc(u, v):
                    nxt[u] = v
                    reached |= bit(u)
                    frontier |= bit(u)
    return reached, nxt


def _graph_search(g: ExchangeGraph) -> tuple[int, dict[int, int]]:
    return _search(g.I, full_mask(g.n) & ~g.I, g.S, g.T, g.has_arc)


def _path(reached: int, nxt: dict[int, int], S: int) -> list[int] | None:
    """From the smallest reached source along the recorded successors to a
    sink: the minimum-arc path with the smallest vertex sequence."""
    v = next(iter_bits(reached & S), None)
    if v is None:
        return None
    path = [v]
    while v in nxt:
        v = nxt[v]
        path.append(v)
    return path


def _certificate(reached: int, S: int) -> int:
    if reached & S:
        raise ValueError("a source reaches a sink; an augmenting path exists")
    return reached


def probe_pair_search(
    o: Oracle, I: int, sp: StarPair
) -> tuple[list[int] | None, int]:
    """The probe-pair graph's shortest augmenting path, or its certificate,
    with arcs tested on demand.

    Same answer as `shortest_augmenting_path` and `reachability_certificate`
    on `build_modified_graph(o, I, sp)`, but the search asks the probe rule
    only for the arcs its reverse BFS scans. Returns (path, 0) when a path
    exists, else (None, Z) with Z the set of vertices that reach a sink.
    """
    S, T = _star_sets(o, I, sp)
    arc = _arc_rule(o, I, S, T, [sp.t], [sp.s])
    reached, nxt = _search(I, o.ground & ~I, S, T, arc)
    path = _path(reached, nxt, S)
    return (path, 0) if path is not None else (None, _certificate(reached, S))


def shortest_augmenting_path(g: ExchangeGraph) -> list[int] | None:
    """Minimum-arc source-to-sink path, ties broken toward the smallest
    vertex sequence; None when no sink is reachable. A source that is also
    a sink yields a single-vertex path."""
    reached, nxt = _graph_search(g)
    return _path(reached, nxt, g.S)


def reachability_certificate(g: ExchangeGraph) -> int:
    """The set of vertices that can reach a sink (sinks included).

    Only valid when no source reaches a sink; the caller pairs the returned
    set with its complement as a min-rank duality certificate.
    """
    reached, _ = _graph_search(g)
    return _certificate(reached, g.S)
