"""Brute-force cross-checks with full access to both matroids.

Everything here may look at the hidden rank functions directly; none of it
is available to the oracle-driven solvers. The enumerations are exponential
and guarded by size caps — they exist to certify the solvers on small
instances, not to compete with them. Each check is one `BruteReport`
(instance, quantity, brute, solver), ok when the two values agree. An
observation is one entry (X, Y) -> value of the map `all_observations`
reads from an `ObservationTable`: X joins I, Y leaves it, and value is
rmin((I | X) & ~Y).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .bitset import bit, elements_of, full_mask, iter_bits, mask_of, popcount
from .consistency import ObservationTable, build_cnf, solve_2sat
from .core import Matroid
from .errors import ContractViolationError
from .exchange import (
    ExchangeGraph,
    StarPair,
    build_modified_graph,
    intersect_modified,
    survey_extensions,
)
from .oracle import MinRankOracle
from .solvers import class_vector, path_cost, total_weight, weight_classes


class BruteReport(NamedTuple):
    """One cross-check outcome: a named quantity computed two ways. A check
    that expects nothing wrong compares () with the offenders it found."""

    instance: str
    quantity: str
    brute: object
    solver: object

    @property
    def ok(self) -> bool:
        """Whether the two values agree."""
        return self.brute == self.solver

    def __str__(self) -> str:
        mark = "ok" if self.ok else "MISMATCH"
        return f"[{mark}] {self.instance}: {self.quantity} brute={self.brute} solver={self.solver}"


def _require(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ValueError(f"{what} is capped at {cap} elements, got {n}")


# -- enumeration oracles ------------------------------------------------------


def common_independent_sets(m1: Matroid, m2: Matroid) -> Iterator[int]:
    """All common independent sets, by depth-first growth (downward closure
    makes pruning on single-element extensions exact)."""
    n = m1.n

    def grow(I: int, start: int) -> Iterator[int]:
        yield I
        for e in range(start, n):
            J = I | bit(e)
            if m1.is_independent(J) and m2.is_independent(J):
                yield from grow(J, e + 1)

    yield from grow(0, 0)


class BruteTable:
    """Both hidden rank functions on every subset of E, each asked once.

    `common` lists the common independent sets (r1 = r2 = |X|) ascending,
    so the first best set of a read is its smallest witness. `circuits`
    holds each matroid's dependent sets whose one-smaller subsets all have
    rank one less. Every brute-force fact below is a read of these lists.
    """

    def __init__(self, m1: Matroid, m2: Matroid):
        self.E = full_mask(m1.n)
        subsets = range(self.E + 1)
        self.r1 = [m1.rank(X) for X in subsets]
        self.r2 = [m2.rank(X) for X in subsets]
        self.common = [X for X in subsets if self.r1[X] == self.r2[X] == popcount(X)]

    @cached_property
    def circuits(self) -> tuple[list[int], list[int]]:
        def minimal_dependent(r: list[int]) -> list[int]:
            return [
                X for X, v in enumerate(r) if v != popcount(X)
                and all(r[X & ~bit(e)] == popcount(X) - 1 for e in iter_bits(X))
            ]

        return minimal_dependent(self.r1), minimal_dependent(self.r2)

    def max_common(self) -> tuple[int, int]:
        best = max(self.common, key=popcount)
        return popcount(best), best

    def dual(self) -> tuple[int, int]:
        E, r1, r2 = self.E, self.r1, self.r2
        rmin = [min(a, b) for a, b in zip(r1, r2)]
        argmin = min(range(E + 1), key=lambda Z: rmin[Z] + rmin[E ^ Z])
        value = rmin[argmin] + rmin[E ^ argmin]
        classic = min(r1[Z] + r2[E ^ Z] for Z in range(E + 1))
        size, _ = self.max_common()
        if not value == classic == size:
            raise ContractViolationError(
                f"duality mismatch: min-rank form {value}, classical {classic}, "
                f"max common {size}"
            )
        return value, argmin

    def w_maximal(self, w: Sequence, k: int) -> tuple[Fraction | None, tuple[int, ...]]:
        weighed = [(total_weight(w, I), I) for I in self.common if popcount(I) == k]
        best = max((x for x, _ in weighed), default=None)
        return best, tuple(I for x, I in weighed if x == best)

    def lexmax(self, w: Sequence) -> tuple[tuple[int, ...], int]:
        vector = partial(class_vector, w, weight_classes(w, self.E))
        best = max(self.common, key=vector)
        return vector(best), best

    def no_circuit_inclusion(self) -> bool:
        c1, c2 = self.circuits
        return not any(a & b in (a, b) for a in c1 for b in c2)

    def largest_circuit(self) -> int:
        c1, c2 = self.circuits
        return max(map(popcount, c1 + c2), default=0)


@lru_cache(maxsize=1)
def brute_table(m1: Matroid, m2: Matroid) -> BruteTable:
    """The table of the pair asked for last: the many checks on one pair
    (each weight level, each audited set) build it once. Matroids are not
    changed after construction, and readers copy what they hand out."""
    return BruteTable(m1, m2)


def brute_max_common(m1: Matroid, m2: Matroid) -> tuple[int, int]:
    """(max size, lexicographically smallest witness)."""
    _require(m1.n, 20, "brute_max_common")
    return brute_table(m1, m2).max_common()


def brute_dual(m1: Matroid, m2: Matroid) -> tuple[int, int]:
    """Minimum of rmin(Z) + rmin(E \\ Z) over all Z, with the smallest argmin.

    Raises ContractViolationError unless this form, the classical
    r1(Z) + r2(E \\ Z) form, and the maximum common independent set size
    all agree.
    """
    _require(m1.n, 20, "brute_dual")
    return brute_table(m1, m2).dual()


def brute_w_maximal(
    m1: Matroid, m2: Matroid, w: Sequence[Fraction | int], k: int
) -> tuple[Fraction | None, tuple[int, ...]]:
    """Best weight among size-k common independent sets and every argmax.

    Returns (None, ()) when no size-k common independent set exists.
    """
    _require(m1.n, 16, "brute_w_maximal")
    return brute_table(m1, m2).w_maximal(w, k)


def brute_lexmax(
    m1: Matroid, m2: Matroid, w: Sequence[Fraction | int]
) -> tuple[tuple[int, ...], int]:
    """(best class-count vector, smallest witness) over all common
    independent sets, comparing vectors lexicographically heaviest-first."""
    _require(m1.n, 16, "brute_lexmax")
    return brute_table(m1, m2).lexmax(w)


def check_promise_no_circuit_inclusion(m1: Matroid, m2: Matroid) -> bool:
    """True when no circuit of either matroid contains a circuit of the other.

    The solvers' tractable regime only needs one containment direction to be
    empty, but the oracle hides which matroid is which, so this conservative
    symmetric check is what instance generators test against.
    """
    _require(m1.n, 14, "circuit enumeration")
    return brute_table(m1, m2).no_circuit_inclusion()


# -- the true exchange graph -------------------------------------------------


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

    return ExchangeGraph(I, S, T, _fill(m1.n, I, outside, arc))


# -- matchings ----------------------------------------------------------------


def has_perfect_matching(g: ExchangeGraph, layer: int, left: int, right: int) -> bool:
    """Whether one arc layer of g matches the I-side vertices `left` one to
    one onto the outside vertices `right`: layer 1 takes the arcs as they
    are, layer 2 reversed. The search stops at the first matching."""
    if popcount(left) != popcount(right):
        return False
    if layer == 1:
        adj = [g.succ[y] & right for y in iter_bits(left)]
    else:
        adj = [
            mask_of(x for x in iter_bits(right) if (g.succ[x] >> y) & 1)
            for y in iter_bits(left)
        ]

    def extend(i: int, free: int) -> bool:
        return i == len(adj) or any(
            extend(i + 1, free & ~bit(x)) for x in iter_bits(adj[i] & free)
        )

    return extend(0, right)


# -- path/cycle enumeration ---------------------------------------------------


def simple_cycles(g: ExchangeGraph) -> list[tuple[int, ...]]:
    """All simple directed cycles, each rotated to start at its smallest
    vertex, sorted."""
    seen: set[tuple[int, ...]] = set()

    def walk(start: int, v: int, visited: int, acc: list[int]) -> None:
        for u in iter_bits(g.succ[v]):
            if u == start:
                seen.add(tuple(acc))
            elif u > start and not (visited >> u) & 1:
                acc.append(u)
                walk(start, u, visited | bit(u), acc)
                acc.pop()

    for s in range(g.n):
        walk(s, s, bit(s), [s])
    return sorted(seen)


def simple_st_paths(g: ExchangeGraph) -> list[tuple[int, ...]]:
    """All simple source-to-sink paths (single vertices included), sorted."""
    out: list[tuple[int, ...]] = []

    def walk(v: int, visited: int, acc: list[int]) -> None:
        if (g.T >> v) & 1:
            out.append(tuple(acc))
        for u in iter_bits(g.succ[v] & ~visited):
            acc.append(u)
            walk(u, visited | bit(u), acc)
            acc.pop()

    for s in iter_bits(g.S):
        walk(s, bit(s), [s])
    return sorted(out)


def shortest_st_paths(g: ExchangeGraph) -> list[tuple[int, ...]]:
    """The simple source-to-sink paths with the fewest vertices, sorted."""
    paths = simple_st_paths(g)
    fewest = min(map(len, paths), default=0)
    return [p for p in paths if len(p) == fewest]


# -- graph audits -------------------------------------------------------------


def all_observations(table: ObservationTable) -> dict[tuple[int, int], int]:
    """Every small exchange (X, Y) of the table with its value, in pair order."""
    return {(X, Y): table.value(X, Y) for X, Y in table.pairs()}


def check_consistency(g: ExchangeGraph, X: int, Y: int, value: int) -> str:
    """Classify one observation, X for Y at value, against the graph's arcs.

    A high observation (value > |I| - |Y|) wants both directions populated
    between Y and X; a low one forbids having both. Verdicts:
    ``consistent``, ``underestimated-only`` (arcs must be added), or
    ``overestimated-only`` (arcs must be removed). ``neither`` never occurs
    for a single observation; it is reserved for graph-wide summaries.
    """
    k = popcount(g.I)
    high = value >= k - popcount(Y) + 1
    dir1 = any(g.succ[y] & X for y in iter_bits(Y))
    dir2 = any(g.succ[x] & Y for x in iter_bits(X))
    if high:
        return "consistent" if (dir1 and dir2) else "underestimated-only"
    return "overestimated-only" if (dir1 and dir2) else "consistent"


def consistency_summary(g: ExchangeGraph, observations: Mapping[tuple[int, int], int]) -> str:
    """Roll-up over all observations: ``consistent`` when every one is,
    ``overestimated-only``/``underestimated-only`` when all violations lean
    one way, ``neither`` when both kinds appear."""
    verdicts = {check_consistency(g, *XY, v) for XY, v in observations.items()} - {"consistent"}
    if len(verdicts) > 1:
        return "neither"
    return verdicts.pop() if verdicts else "consistent"


def audit_graphs(
    m1: Matroid,
    m2: Matroid,
    I: int,
    w: Sequence[Fraction | int] | None = None,
    mutate: Callable[[ExchangeGraph], ExchangeGraph] | None = None,
    instance: str = "instance",
) -> list[BruteReport]:
    """Cross-check every graph construction against the true graph.

    Covers: containment of the true graph in each probe graph and in the
    intersected graph, the no-new-arcs-at-sources/sinks property, the fake
    arc shortcut properties, preservation of shortest path sets, sureness of
    sure arcs, consistency of the true graph with all observations, solvability
    of the clause system by the true arc assignment, the bounds of the
    resolved graph, its cycle/path matching-partition properties against the
    true graph, and (when I is w-maximal at its size) absence of negative
    cycles plus coincidence of shortest cheapest path vertex sets.

    `mutate` lets tests corrupt the resolved graph before the downstream
    checks; a lying graph must trip at least one report.
    """
    _require(m1.n, 10, "audit_graphs")
    if w is None:
        w = [1] * m1.n
    make = partial(BruteReport, instance)
    reports: list[BruteReport] = []
    D = build_true_graph(m1, m2, I)
    true_arcs = set(D.arcs())
    o = MinRankOracle(m1, m2)
    survey = survey_extensions(o, I)
    if survey.pair is None:
        reports.append(make("no-probe-pair", True, True))
        return reports

    valid_pairs = [
        StarPair(s, t)
        for s in elements_of(D.S & ~D.T)
        for t in elements_of(D.T & ~D.S)
    ]
    st_mask = D.S | D.T
    true_paths = shortest_st_paths(D)

    def audit_probe_graph(tag: str, G: ExchangeGraph, t_probes: int, s_probes: int) -> None:
        """A probe graph holds every true arc, adds none at a source or
        sink, and adds a fake (y, x) only where (y, t) is true for every
        sink-side probe t, a fake (x, y) only where (s, y) is true for every
        source-side probe s."""
        g_arcs = set(G.arcs())
        missing = tuple(sorted(true_arcs - g_arcs))
        reports.append(make(f"{tag}-contains-true", (), missing))
        extras = sorted(g_arcs - true_arcs)
        touching = tuple(
            (u, v) for u, v in extras if (st_mask >> u) & 1 or (st_mask >> v) & 1
        )
        reports.append(make(f"{tag}-extras-avoid-st", (), touching))
        bad_shortcut = tuple(
            (u, v)
            for u, v in extras
            if not (
                D.succ[u] & t_probes == t_probes
                if (I >> u) & 1
                else all((D.succ[s] >> v) & 1 for s in iter_bits(s_probes))
            )
        )
        reports.append(make(f"{tag}-fake-shortcut", (), bad_shortcut))

    first_intersected: ExchangeGraph | None = None
    for sp in valid_pairs:
        tag = f"pair({sp.s},{sp.t})"
        M = build_modified_graph(o, survey._replace(pair=sp))
        reports.append(make(f"{tag}-st-sets", (D.S, D.T), (M.S, M.T)))
        audit_probe_graph(tag, M, bit(sp.t), bit(sp.s))
        reports.append(make(f"{tag}-shortest-paths", true_paths, shortest_st_paths(M)))
        N = intersect_modified(o, survey._replace(pair=sp))
        if first_intersected is None:
            first_intersected = N
        else:
            reports.append(
                make(f"{tag}-intersected-invariant", first_intersected.succ, N.succ)
            )

    assert first_intersected is not None
    N = first_intersected
    n_arcs = set(N.arcs())
    n_sure = n_arcs - set(N.suspicious_pairs())
    audit_probe_graph("intersected", N, D.T, D.S)
    lying_sure = tuple(sorted(n_sure - true_arcs))
    reports.append(make("sure-arcs-true", (), lying_sure))
    reports.append(make("intersected-shortest-paths", true_paths, shortest_st_paths(N)))

    table = ObservationTable(o, N)
    observations = all_observations(table)
    reports.append(
        make("true-graph-consistent", "consistent", consistency_summary(D, observations))
    )

    f = build_cnf(table)
    truth = {arc: arc in true_arcs for arc in f.variables}
    violated: list[object] = ["folded-contradiction"] if f.contradiction else []
    violated.extend(f.unsatisfied(truth))
    reports.append(make("cnf-true-assignment", (), tuple(violated)))

    assignment = solve_2sat(f)
    reports.append(make("cnf-satisfiable", True, assignment is not None))
    if assignment is None:
        return reports
    C = N.with_assignment(assignment)
    if mutate is not None:
        C = mutate(C)
    c_arcs = set(C.arcs())

    sure_ok = n_sure <= c_arcs <= n_arcs
    reports.append(make("resolved-within-bounds", True, sure_ok))
    bad_pairs = []
    for (X, Y), value in observations.items():
        verdict = check_consistency(C, X, Y, value)
        if verdict == "consistent":
            continue
        if table.is_evil(X, Y):
            # Evil observations may go unresolved, but only by dropping
            # every arc between X and Y.
            arcs_between = any(C.succ[y] & X for y in iter_bits(Y)) or any(
                C.succ[x] & Y for x in iter_bits(X)
            )
            if verdict != "underestimated-only" or arcs_between:
                bad_pairs.append(((X, Y, value), verdict))
        else:
            bad_pairs.append(((X, Y, value), verdict))
    reports.append(make("resolved-almost-consistent", (), tuple(bad_pairs)))

    # Matching partitions: cycles of the resolved graph, and source-sink
    # paths, must decompose over the true graph's layers. A path's source
    # has no layer-1 partner and its sink no layer-2 partner.
    def splits(walk: tuple[int, ...], source: int, sink: int) -> bool:
        inside, outside = mask_of(walk) & I, mask_of(walk) & ~I
        return has_perfect_matching(D, 1, inside, outside & ~source) and (
            has_perfect_matching(D, 2, inside, outside & ~sink)
        )

    bad_cycles = tuple(c for c in simple_cycles(C) if not splits(c, 0, 0))
    reports.append(make("cycle-partition", (), bad_cycles))
    bad_paths = tuple(
        p for p in simple_st_paths(C) if not splits(p, bit(p[0]), bit(p[-1]))
    )
    reports.append(make("path-cycle-partition", (), bad_paths))

    # Weighted checks only make sense at a w-maximal set of its cardinality.
    w_maximal = brute_w_maximal(m1, m2, w, popcount(I))[0] == total_weight(w, I)
    has_neg_cycle_true = any(path_cost(cyc, I, w) < 0 for cyc in simple_cycles(D))
    reports.append(make("neg-cycle-iff-not-maximal", not w_maximal, has_neg_cycle_true))
    if w_maximal:
        neg = tuple(cyc for cyc in simple_cycles(C) if path_cost(cyc, I, w) < 0)
        reports.append(make("resolved-no-negative-cycle", (), neg))

        def optimal_paths(g: ExchangeGraph) -> tuple[object, set[frozenset[int]]]:
            paths = simple_st_paths(g)
            if not paths:
                return None, set()
            best = min((path_cost(p, I, w), len(p)) for p in paths)
            return best, {
                frozenset(p)
                for p in paths
                if (path_cost(p, I, w), len(p)) == best
            }

        best_d, sets_d = optimal_paths(D)
        best_c, sets_c = optimal_paths(C)
        reports.append(make("cheapest-path-value", best_d, best_c))
        reports.append(
            make(
                "cheapest-path-vertex-sets",
                tuple(sorted(map(sorted, sets_d))),
                tuple(sorted(map(sorted, sets_c))),
            )
        )
    return reports
