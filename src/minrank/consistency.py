"""Rank observations on small exchanges and suspicious-arc resolution.

The intersected exchange graph leaves some arcs suspicious. Observing the
min-rank of a small exchange — remove one or two elements of I, add one or
two plain outside elements — constrains which suspicious arcs can be real.
Each observation touches at most two arcs per direction, so the constraints
compile into two-literal clauses over one Boolean per suspicious arc; only
exchanges that touch one are observed, as the rest fold to constants. A
deterministic strongly-connected-component pass solves the system, and the
chosen arcs together with the sure ones form a graph that is consistent
with every observation except possibly the pathological two-by-two
exchanges, where it errs on the side of omitting arcs.

`ObservationTable` asks and caches the observations and holds the one evil
test; `TwoSat.unsatisfied` is the one check of clauses against arcs.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .bitset import bit, elements_of, popcount, small_subsets
from .errors import ContractViolationError
from .exchange import ExchangeGraph, StarPair, intersect_modified
from .oracle import Oracle

Arc = tuple[int, int]
# A literal spec for clause assembly: an arc plus a negation flag.
ArcLiteral = tuple[Arc, bool]


class ObservationTable:
    """Lazily queried, cached rank observations of small exchanges.

    X ranges over nonempty subsets of at most two plain outside elements
    (sources and sinks excluded), Y over nonempty subsets of at most two
    elements of I. Each distinct exchanged set is queried at most once.
    """

    def __init__(self, o: Oracle, I: int, S: int, T: int):
        self.o = o
        self.I = I
        self.k = popcount(I)
        self.x_sets = small_subsets(o.ground & ~(I | S | T), 2)
        self.y_sets = small_subsets(I, 2)
        self._cache: dict[int, int] = {}

    def value(self, X: int, Y: int) -> int:
        key = (self.I | X) & ~Y
        got = self._cache.get(key)
        if got is None:
            got = self.o.rmin(key)
            self._cache[key] = got
        return got

    def pairs(self) -> Iterator[tuple[int, int]]:
        for X in self.x_sets:
            for Y in self.y_sets:
                yield X, Y

    def is_evil(self, X: int, Y: int) -> bool:
        """A two-by-two exchange is evil when its value sits one below the
        size of I and every proper subpair shows no rank slack at all, i.e.
        each subpair (X', Y') observes exactly |I| - |Y'|.

        All eight subpair values are fetched before any is compared, so the
        table asks the same queries whichever subpair shows slack.
        """
        if popcount(X) != 2 or popcount(Y) != 2 or self.value(X, Y) != self.k - 1:
            return False
        subpairs = [
            (Yp, self.value(Xp, Yp))
            for Xp in small_subsets(X, 2)
            for Yp in small_subsets(Y, 2)
            if (Xp, Yp) != (X, Y)
        ]
        return all(v == self.k - popcount(Yp) for Yp, v in subpairs)

    def evil_pairs(self, J: int) -> list[tuple[int, int]]:
        """The evil pairs whose Y meets J; no other pair is tested."""
        return [(X, Y) for X, Y in self.pairs() if Y & J and self.is_evil(X, Y)]


# -- clause compilation -------------------------------------------------------


class TwoSat:
    """A two-literal clause system over suspicious arcs.

    Variables are the suspicious arcs in sorted order. Clause literals are
    ±(index + 1); unit clauses double their literal. `contradiction` is set
    when constant folding produced an always-false clause, making the whole
    system unsatisfiable regardless of the variables.
    """

    def __init__(self, variables: Sequence[Arc]):
        self.variables: tuple[Arc, ...] = tuple(variables)
        self.index: dict[Arc, int] = {a: i for i, a in enumerate(self.variables)}
        self.clauses: list[tuple[int, int]] = []
        self.contradiction = False

    def add(self, l1: int | bool, l2: int | bool) -> None:
        """Add a disjunction of two folded literals (True/False/signed int)."""
        if l1 is True or l2 is True:
            return
        lits = [lit for lit in (l1, l2) if lit is not False]
        if lits:
            self.clauses.append((lits[0], lits[-1]))
        else:
            self.contradiction = True

    def unsatisfied(self, assignment: Mapping[Arc, bool]) -> list[tuple[int, int]]:
        """The clauses that `assignment` falsifies, in clause order."""

        def holds(lit: int) -> bool:
            return assignment[self.variables[abs(lit) - 1]] == (lit > 0)

        return [(l1, l2) for l1, l2 in self.clauses if not (holds(l1) or holds(l2))]


def build_cnf(
    table: ObservationTable,
    g: ExchangeGraph,
    extra: Sequence[tuple[ArcLiteral, ArcLiteral]] = (),
) -> TwoSat:
    """Compile small-exchange observations into two-literal clauses.

    Clause tables, with a = arcs into I and b = arcs out of I:

    * one-for-one, value |I|:     (a | b), (~a | b), (a | ~b)
    * one-for-one, value |I|-1:   (~a | ~b)
    * one-for-two, value |I|-1:   (a1 | a2), (b1 | b2)
    * one-for-two, value |I|-2:   (~a1 | ~b2), (~a2 | ~b1)
    * two-for-one, value |I|:     (a1 | a2), (b1 | b2)
    * two-for-one, value |I|-1:   (~a1 | ~b2), (~a2 | ~b1)
    * two-for-two, value |I|-2:   (~a11 | ~b22), (~a12 | ~b21),
                                  (~a21 | ~b12), (~a22 | ~b11)
    * two-for-two, value |I|-1, evil: eight clauses equating each a_{i,j}
      with its partner b_{3-i,3-j}
    * anything else: no clauses (subpair clauses already cover it)

    The rows are compiled by slack, value - (|I| - |Y|): slack 0 (and any
    one-for-one value but |I|) pairs each a with its mirror b as (~a | ~b).
    The diagonal clauses (~a1 | ~b1), (~a2 | ~b2) of the one-for-two and
    two-for-one low cases are omitted: the one-for-one subpair clauses
    imply them. `extra` appends pre-folded arc-literal clauses (used by the
    bounded-circuit solver).

    Only pairs with a suspicious slot arc are observed, in pair order; the
    others would fold to constants, which a genuine oracle makes true.
    """
    variables = sorted(g.suspicious_pairs())
    f = TwoSat(variables)
    k = table.k

    # Absent arcs fold to False, sure arcs to True, suspicious ones to ±(index+1).
    def lit(arc: Arc, neg: bool = False) -> int | bool:
        u, v = arc
        if not g.has_arc(u, v):
            return neg
        if g.is_sure(u, v):
            return not neg
        i = f.index[arc] + 1
        return -i if neg else i

    # touch[x]: the elements y of I with (x, y) or (y, x) suspicious.
    touch = [0] * g.n
    for u, v in variables:
        x, y = (v, u) if (table.I >> u) & 1 else (u, v)
        touch[x] |= bit(y)
    for X in table.x_sets:
        xs = elements_of(X)
        reach = touch[xs[0]] | touch[xs[-1]]
        for Y in table.y_sets if reach else ():
            if not Y & reach:
                continue
            ys = elements_of(Y)
            slack = table.value(X, Y) - (k - len(ys))
            one_for_one = len(xs) == len(ys) == 1
            if slack != 0 and slack != 1 and not one_for_one:
                continue
            # Slot pairs in (i, j) order: a = (x_i, y_j) into I, b out of I
            # at the mirror slot, every index with two choices flipped.
            pairs = [
                ((x, y), (ys[-1 - j], xs[-1 - i]))
                for i, x in enumerate(xs)
                for j, y in enumerate(ys)
            ]
            if slack == 1 and one_for_one:
                ((a, b),) = pairs
                f.add(lit(a), lit(b))
                f.add(lit(a, True), lit(b))
                f.add(lit(a), lit(b, True))
            elif slack == 0 or one_for_one:
                for a, b in pairs:
                    f.add(lit(a, True), lit(b, True))
            elif len(pairs) == 2:
                (a1, b2), (a2, b1) = pairs
                f.add(lit(a1), lit(a2))
                f.add(lit(b1), lit(b2))
            elif table.is_evil(X, Y):
                for a, b in pairs:
                    f.add(lit(a, True), lit(b))
                    f.add(lit(a), lit(b, True))
    for (arc1, neg1), (arc2, neg2) in extra:
        f.add(lit(arc1, neg1), lit(arc2, neg2))
    return f


def solve_2sat(f: TwoSat) -> dict[Arc, bool] | None:
    """Deterministic satisfiability: implication graph, Tarjan components
    visited in fixed node order (negative literal before positive, variables
    ascending), variable true iff its positive literal's component comes
    first. Returns None when unsatisfiable. An assignment that falsifies a
    clause would be a solver fault; it raises ContractViolationError.
    """
    if f.contradiction:
        return None
    m = len(f.variables)
    nn = 2 * m
    adj: list[list[int]] = [[] for _ in range(nn)]

    def node(lit: int) -> int:
        v = abs(lit) - 1
        return 2 * v + (1 if lit > 0 else 0)

    for l1, l2 in f.clauses:
        adj[node(-l1)].append(node(l2))
        adj[node(-l2)].append(node(l1))
    index = [-1] * nn
    low = [0] * nn
    comp = [-1] * nn
    on_stack = [False] * nn
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(nn):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descend = False
            while pi < len(adj[v]):
                u = adj[v][pi]
                pi += 1
                if index[u] == -1:
                    work.append((v, pi))
                    work.append((u, 0))
                    descend = True
                    break
                if on_stack[u] and index[u] < low[v]:
                    low[v] = index[u]
            if descend:
                continue
            if low[v] == index[v]:
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp[u] = comp_count
                    if u == v:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
        # next root
    result: dict[Arc, bool] = {}
    for i, arc in enumerate(f.variables):
        if comp[2 * i] == comp[2 * i + 1]:
            return None
        result[arc] = comp[2 * i + 1] < comp[2 * i]
    if f.unsatisfied(result):
        raise ContractViolationError("component assignment violated a clause")
    return result


# -- assembled graphs ---------------------------------------------------------


def almost_consistent_graph(o: Oracle, I: int, sp: StarPair) -> ExchangeGraph:
    """Resolve every suspicious arc of the intersected graph.

    Builds the intersected graph for the probe pair `sp`, observes the small
    exchanges that touch a suspicious arc, compiles and solves the clause
    system, and keeps exactly the sure arcs plus the suspicious arcs
    assigned true. Genuine oracles always admit a solution;
    unsatisfiability is a contract violation.
    """
    g = intersect_modified(o, I, sp)
    table = ObservationTable(o, I, g.S, g.T)
    f = build_cnf(table, g)
    assignment = solve_2sat(f)
    if assignment is None:
        raise ContractViolationError(
            "arc-constraint system unsatisfiable; oracle is not a matroid pair"
        )
    return g.with_assignment(assignment)
