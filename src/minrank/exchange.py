"""Exchangeability graphs over a common independent set, from the oracle.

Two constructions live here:

* the probe-pair graph built purely from min-rank queries, which contains
  the true graph and preserves its shortest source-sink paths, and
* the intersected graph: the intersection of all probe-pair graphs once the
  source/sink sets are fixed, with each arc labeled sure (certainly true)
  or suspicious (membership undetermined by the oracle).

The true graph, which needs both matroids in the clear, is built in
`minrank.verify` and serves only to check these two.

All graphs are directed and bipartite between I and E \\ I, and an arc's
layer is named by the side of its tail: an arc (y, x) out of y ∈ I is a
layer-1 arc, an exchange in the first matroid, and an arc (x, y) out of
x ∉ I is a layer-2 arc, an exchange in the second. An augmenting path
starts at a source, alternates sides, and ends at a sink; swapping I by the
symmetric difference of such a path grows the common independent set by one.

Every answer read here goes through one checked ask, `_expect`, which
holds `rmin(X)` to its contract range or raises ValueError naming X, the
answer and the range (ContractViolationError to the solvers' callers).

The sources and sinks come from the survey (`survey_extensions`), which
holds I, the mask of direct (rank-lifting) elements and the probe pair;
every function that builds on it reads it whole. A direct element is a
source and a sink, and a flat source is no sink. `_star_sets` asks only
the tests those forced answers leave open. The searches here ask nothing
once they have searched: the solvers apply what they find and call
`check_entering`, which asks the skipped tests of the elements that enter I.

The probe graphs are built from group tests on fundamental circuits. A
star (an element of exactly one of S and T) x has `rmin((I ∖ Y) + x)`
equal to |I| − |Y| + 1 when Y meets x's circuit in I and |I| − |Y|
otherwise; a plain element gets the same test with a probe of the other
side added, on the part of I that misses the probe's circuit. One
splitting search (`_split`) finds each circuit from such tests, holds
every answer to its two allowed values and asks every member it reports.
It serves `_probe_graph`, which both probe builders share, and the reverse
BFS (`_search`) of the cardinality solver, which asks only about the arcs
it scans. A weighted run carries its stars' circuits from step to step,
since C + x stays a circuit whatever I is, and confirms each one it reuses
with a single query (`_probe_graph`); the BFS learns only parts of columns
and carries none. One label-correcting search over a built graph
(`shortest_cheapest_path`) finds a shortest cheapest path or its
certificate; at zero costs it answers `shortest_augmenting_path` and
`reachability_certificate`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, NamedTuple, Sequence

from .bitset import bit, elements_of, format_set, full_mask, iter_bits, mask_of, popcount
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
    v of ``succ[u]``, and the graph has ``n = len(succ)`` vertices.
    ``sure[v]`` marks the sure subset of ``succ[v]``; the rest of the arcs
    are suspicious, and without ``sure`` every arc is sure. Instances are
    immutable; mutation helpers return fresh graphs.
    """

    __slots__ = ("n", "I", "S", "T", "succ", "sure")

    def __init__(
        self,
        I: int,
        S: int,
        T: int,
        succ: list[int] | tuple[int, ...],
        *,
        sure: list[int] | tuple[int, ...] | None = None,
    ):
        self.n = n = len(succ)
        if I & ~full_mask(n):
            raise ValueError(f"I = {bin(I)} has elements outside [0, {n})")
        outside = full_mask(n) & ~I
        if S & ~outside or T & ~outside:
            raise ValueError("sources/sinks must lie outside I")
        self.I = I
        self.S = S
        self.T = T
        self.succ = tuple(succ)
        self.sure = self.succ if sure is None else tuple(sure)
        if len(self.sure) != n:
            raise ValueError(f"expected one sure mask per vertex, {n} in all")
        for v, heads in enumerate(self.succ):
            if heads & ~(outside if (I >> v) & 1 else I):
                raise ValueError(f"an arc out of {v} does not cross between I and E \\ I")
            if self.sure[v] & ~heads:
                raise ValueError(f"a sure arc out of {v} is not an arc")

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
        return ExchangeGraph(self.I, self.S, self.T, succ, sure=self.sure)

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
            f"ExchangeGraph(I={format_set(self.I)}, "
            f"S={format_set(self.S)}, T={format_set(self.T)}, "
            f"arcs={sum(map(popcount, self.succ))})"
        )


# -- construction ------------------------------------------------------------


def _expect(o: Oracle, X: int, lo: int, hi: int, why: Callable[[], str]) -> int:
    """`rmin(X)`, held to lo .. hi: the one checked ask of the solver side.
    Any other answer breaks the matroid contract and raises ValueError
    naming X, the answer, what `why()` says is asked and the range allowed;
    nothing is formatted unless it raises."""
    value = o.rmin(X)
    if lo <= value <= hi:
        return value
    allowed = f"{lo}" if lo == hi else f"{lo} or {hi}" if hi == lo + 1 else f"{lo} to {hi}"
    raise ValueError(f"rmin({format_set(X)}) = {value}, but {why()} must give {allowed}")


def find_star_pair(o: Oracle, I: int) -> ExtensionSurvey:
    """`survey_extensions(o, I, first=True)`. No solver calls it; it stays
    because `perfbench/spans.py` hooks this name, and goes with that hook."""
    return survey_extensions(o, I, first=True)


class ExtensionSurvey(NamedTuple):
    """Addability scan at I: the mask `direct` of rank-lifting singletons
    and the probe pair, the lexicographically smallest (s, t), s < t, of
    flat elements with `rmin(I + s + t) > |I|` (None if none qualifies).
    A survey with a pair holds the complete direct set at its own I, as
    the star sets' forced answers need; `_replace(pair=...)` keeps both."""

    I: int
    direct: int
    pair: StarPair | None


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
        value = _expect(o, I | P, k, top, lambda: f"adding {format_set(P)} to I = {format_set(I)}")
        return value > k

    direct = 0
    flat = []
    for x in iter_bits(o.ground & ~I):
        if (known_flat >> x) & 1 or not lifts(bit(x), k + 1):
            flat.append(x)
        elif first:
            return ExtensionSurvey(I, bit(x), None)
        else:
            direct |= bit(x)
    prefix = [0]
    for x in flat:
        prefix.append(prefix[-1] | bit(x))
    # A prefix of length L holds L flat elements, each addable in at most
    # one matroid. A one-element prefix is flat: the scan asked it or knew it.
    j = _shortest_lift(lambda L: lifts(prefix[L], k + L // 2), 1, len(flat), False)
    if j is None:
        return ExtensionSurvey(I, direct, None)
    t = flat[j - 1]
    i = _shortest_lift(lambda L: lifts(prefix[L] | bit(t), k + (L + 1) // 2), 0, j - 1, True)
    return ExtensionSurvey(I, direct, StarPair(flat[i - 1], t))


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


def _star_sets(o: Oracle, survey: ExtensionSurvey) -> tuple[int, int]:
    """Sources and sinks read from the survey: its direct elements are
    each a source and a sink. A flat x ≠ t* is a source iff
    `rmin(I + x + t*)` lifts, and then no sink; any other flat x ≠ s* is a
    sink iff `rmin(I + s* + x)` lifts. Since s*, t* and x are flat, each
    answer must be |I| or |I| + 1, and exactly |I| + 1 for s*'s source
    test and t*'s sink test, which ask the pair itself."""
    I, direct, sp = survey
    k = popcount(I)
    sb, tb = bit(sp.s), bit(sp.t)
    flat = o.ground & ~I & ~direct
    if sp.s == sp.t or (sb | tb) & ~flat:
        raise ValueError("probe pair must be two distinct flat elements outside I")

    def lifts(x: int, P: int, test: str, own: int) -> bool:
        lo = k + (x == own)  # s*'s source test and t*'s sink test must lift
        value = _expect(
            o, I | P, lo, k + 1, lambda: f"the {test} test of {x} at I = {format_set(I)}"
        )
        return value > k

    S = mask_of(x for x in iter_bits(flat & ~tb) if lifts(x, bit(x) | tb, "source", sp.s))
    T = mask_of(x for x in iter_bits(flat & ~S) if lifts(x, sb | bit(x), "sink", sp.t))
    return S | direct, T | direct


def check_entering(o: Oracle, survey: ExtensionSurvey, S: int, J: int) -> None:
    """Ask, through `_expect`, the tests `_star_sets` skipped on `survey`
    for each element entering its I on the way to J, given the sources S:
    a direct x must give |I| + 1 on `rmin(I + x + t*)` and
    `rmin(I + s* + x)`, a source x ≠ s* |I| on `rmin(I + s* + x)`."""
    I, direct, sp = survey
    k = popcount(I)
    sb, tb = bit(sp.s), bit(sp.t)
    for x in iter_bits(J & ~I & (direct | S & ~sb)):
        xb = 1 << x
        tests = ((xb | tb, k + 1), (sb | xb, k + 1)) if direct & xb else ((sb | xb, k),)
        for P, want in tests:
            _expect(o, I | P, want, want, lambda: f"{x} entering I = {format_set(I)}")


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
        value = _expect(o, X, low + known, low + 1, lambda: f"the group test of {format_set(Y)}")
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
    circuits: dict[int, int] | None = None,
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

    `circuits`, a run's map from stars to the columns split before, gains
    every column split here. A star x whose carried C lies in I takes C
    after one query, `rmin(C + x)` = |C| (the group test of I ∖ C, missing
    the circuit); any other answer raises ValueError naming the mask. C + x
    is a circuit of the matroid x was dependent in, whatever I is, so x is
    dependent there at every I with C ⊆ I and x ∉ I; a star is dependent in
    one matroid only, so its circuit in I + x is C + x again.
    """
    n = o.n
    outside = o.ground & ~I
    carried = {} if circuits is None else circuits

    def circuit(x: int) -> int:
        C = carried.get(x, -1)  # -1: none carried, and it meets ~I too
        if C & ~I:
            C = carried[x] = _column(o, I, I, bit(x))
        else:
            c = popcount(C)
            _expect(o, C | bit(x), c, c, lambda: f"the circuit {format_set(C)} carried for {x}")
        return C

    star = {x: circuit(x) for x in iter_bits(outside & (S ^ T))}

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


def build_modified_graph(o: Oracle, survey: ExtensionSurvey) -> ExchangeGraph:
    """The probe-pair graph of the survey's I and pair: the probe graph
    whose swap probes run against the opposite probe element only, with
    the sources and sinks `_star_sets` reads from the survey.

    Contains the true graph; extra arcs never touch sources or sinks and
    never shorten any source-sink path. Arcs incident to a source or sink
    are labeled sure, the rest suspicious.
    """
    I, _, sp = survey
    S, T = _star_sets(o, survey)
    succ, sure = _probe_graph(o, I, S, T, [sp.t], [sp.s])
    return ExchangeGraph(I, S, T, succ, sure=sure)


def intersect_modified(
    o: Oracle, survey: ExtensionSurvey, circuits: dict[int, int] | None = None
) -> ExchangeGraph:
    """Intersection of the probe-pair graphs over all probe choices.

    With sources and sinks fixed, only the swap-probe arcs vary with the
    probe, so the intersection re-tests each candidate arc against every
    sink-side (layer 1) or source-side (layer 2) probe. Labels: an arc is
    sure when incident to a source/sink, or when its end in I misses an
    arc to some sink (layer 1) / from some source (layer 2) — the
    intersection then certifies it as a true arc. All else is suspicious.
    `_star_sets` reads the sources and sinks from the survey; a run
    passes its star circuits in `circuits` (see `_probe_graph`).
    """
    I = survey.I
    S, T = _star_sets(o, survey)
    succ, sure = _probe_graph(
        o, I, S, T, elements_of(T & ~S), elements_of(S & ~T), circuits
    )
    # A sink missing from a tail's heads certifies every head of that tail;
    # a head in I that some source misses is certified for every tail.
    certified = 0
    for s in iter_bits(S):
        certified |= I & ~succ[s]
    sure = [
        (heads if T & ~heads else mark) if (I >> v) & 1 else mark | heads & certified
        for v, (heads, mark) in enumerate(zip(succ, sure))
    ]
    return ExchangeGraph(I, S, T, succ, sure=sure)


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


def probe_pair_search(o: Oracle, survey: ExtensionSurvey) -> tuple[list[list[int]], int]:
    """The shortest augmenting path of the survey's probe-pair graph, and
    the further walks of its length that share no vertex, or its
    certificate, with arcs found on demand by group tests.

    Same answer as `shortest_cheapest_path` at zero costs on
    `build_modified_graph(o, survey)`, the smallest direct element alone if
    there is one, but the reverse BFS asks only about the arcs it scans,
    and the path walks from the smallest reached source along the recorded
    successors. The arcs into an outside vertex v are its column: a sink's
    star column, or, for a plain v, the group tests with t* added; every
    element of I whose arc reaches t* was reached at level 1, so the rest
    misses t*'s column. The arcs out to an element v of I group by tail:
    for U ⊆ S ∖ T, `rmin((I − v) ∪ U)` is |I| if some u in U has the arc
    (u, v) and |I| − 1 otherwise; plain tails are grouped the same way with
    s* added when (s*, v) is no arc, and all have the arc when it is one.
    Returns (walks, 0) when a path exists, the path first, else ([], Z)
    with Z the set of vertices that reach a sink, and asks nothing after
    the BFS. All reached sources are on the last level, so the recorded
    successors lead each to a sink as far off as the path's, and each walk
    holds one source, its first vertex. After the path, `walks` keeps, by
    ascending source, each walk disjoint from the walks kept before it.
    Each is a candidate only: nothing promises it still augments once the
    path is applied.
    """
    I, _, sp = survey
    S, T = _star_sets(o, survey)
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
    walks: list[list[int]] = []
    used = 0
    for v in iter_bits(reached & S):
        walk = [v]
        while v in nxt:
            v = nxt[v]
            walk.append(v)
        if not mask_of(walk) & used:
            walks.append(walk)
            used |= mask_of(walk)
    return walks, 0 if walks else reached


def shortest_cheapest_path(g: ExchangeGraph, w: Sequence) -> tuple[list[int] | None, int]:
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
