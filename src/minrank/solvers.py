"""Solvers that see a matroid pair only through its minimum-rank oracle.

Cardinality augmentation, weighted augmentation over resolved
exchangeability graphs, and the three tractable weighted regimes
(no-circuit-inclusion promise, bounded circuit size, lexicographic
maximality), plus the approximation wrapper for positive weights.

Every mode runs one loop, `_run`: from the empty set, each augmentation
step grows I along shortest paths, one trace line per set it reaches, or
stops with a set Z where rmin(Z) + rmin(E \\ Z) = |I|, which it checks
(`_check_certificate`). The searches in `exchange` only search; the
steps here apply and check what they find. A cardinality step applies its
search's shortest path, then each further walk of that length the oracle
confirms, checks each with `check_entering`, and resumes after a direct
add, read from the run's sets (`_augment`).
The weighted modes share one driver, `_weighted_run`, whose step hands
the mode's `resolve` the intersected graph N of the survey's probe pair
and direct set. N holds the true graph and its sure arcs are true, so
`_decide` decides a step on N exactly when no source reaches a sink or a
shortest cheapest path is all sure. Else promise and lexmax resolve N by
2-SAT (`cheapest_path_augment`), bounded-circuit by guessing
(`_fpt_augment`), and the trace marks the step `resolved`: a run with no
such step is exact without the promise. Paths are priced by `path_cost`,
on exact int weights; the shortest cheapest path search is in `exchange`.

Everything here must work through `rmin` alone; the visibility audit in the
test suite holds this module to that. Each answer is asked through the one
checked ask, `exchange._expect`, except in `_check_certificate`, which
names every answer it asked, and in `_validate_candidate` and
`_fpt_augment`, where an answer only rejects a guess; a static audit in
the test suite holds this module to that too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .bitset import bit, elements_of, format_set, iter_bits, mask_of, popcount, subsets_of
from .consistency import ObservationTable, almost_consistent_graph, build_cnf, solve_2sat
from .errors import ContractViolationError, NegativeCycleError
from .exchange import (
    ExchangeGraph,
    _expect,
    check_entering,
    intersect_modified,
    probe_pair_search,
    shortest_cheapest_path,
    survey_extensions,
)
from .oracle import Oracle, RestrictedOracle


class Augmented(NamedTuple):
    """A common independent set one element larger."""

    J: int


class Certificate(NamedTuple):
    """A set Z with rmin(Z) + rmin(E \\ Z) = |I|, proving maximality."""

    Z: int


class AugmentStep(NamedTuple):
    """One trace line of a solver run."""

    k: int
    action: str
    detail: str
    queries: int

    def __str__(self) -> str:
        return f"k={self.k} {self.action} {self.detail} queries={self.queries}"


def total_weight(w: Sequence, I: int) -> Fraction:
    return sum((Fraction(w[e]) for e in iter_bits(I)), Fraction(0))


def path_cost(path: Sequence[int], I: int, w: Sequence) -> Fraction | int:
    """Signed cost of a path: w(e) for e in I, -w(e) outside, so that
    swapping I along it changes the weight by exactly minus the cost. Exact
    for int and Fraction weights."""
    return sum(w[v] if (I >> v) & 1 else -w[v] for v in path)


# -- cardinality --------------------------------------------------------------


# One augmentation step's result, then its trace line's action and detail.
_Outcome = tuple[Augmented | Certificate, str, str]


def _certify(Z: int, mark: str = "") -> _Outcome:
    return Certificate(Z), "certificate", f"Z={format_set(Z)}{mark}"


def _grown(J: int, action: str = "augment") -> _Outcome:
    return Augmented(J), action, f"J={format_set(J)}"


def augment_min_rank(o: Oracle, I: int) -> _Outcome:
    """One cardinality augmentation step, up to its first new set.

    In order: if every pairwise extension stays flat, the whole ground set
    is a duality certificate; if some single element lifts the min-rank,
    add the smallest such; otherwise search the graph of the survey's probe
    pair from its sinks, testing arcs on demand, and either swap along a
    shortest source-sink path or certify with the set of vertices that
    reach a sink. A certificate is checked before it is returned:
    `rmin(Z) + rmin(E \\ Z) = |I|`, or ContractViolationError.

    The size of the result does not depend on the probe pair, but J and Z
    can: the survey's lexicographically smallest pair may have a true sink
    as `s`, and then the graph is the one of the swapped matroid pair (e.g.
    `random_instance(111, 7)` at I={1,3,4})."""
    return next(_augment(o, [I]))


def _augment(o: Oracle, sets: Sequence[int]) -> Iterator[_Outcome]:
    """The step at I = `sets[-1]`: `augment_min_rank`'s outcome, then a
    `walk` for each further walk P of its search that the oracle confirms,
    `rmin(J Δ P)` = |J| + 1 at the set J reached so far (held to
    |J| − |P| // 2 .. |J| + 1). Each walk applied, the path first and
    unasked, is checked by `check_entering` at its one source, its first
    vertex: the BFS stops at the first level that holds a source.

    It resumes when the set before I is I minus one element x, which only
    a direct add gives: a path holds an element of I, since without a
    lift no flat element is both a source and a sink. A resumed step skips
    the entry check, the survey files every element outside I below x as
    flat unasked (see `survey_extensions`), and the certificate check asks
    `rmin(I)`."""
    I = sets[-1]
    k = popcount(I)
    x = I & ~sets[-2] if len(sets) > 1 and not sets[-2] & ~I else 0
    if not x:
        _expect(o, I, k, k, lambda: f"the common independent set I = {format_set(I)}")
    survey = survey_extensions(o, I, first=True, known_flat=o.ground & ~I & (x - 1) if x else 0)
    if survey.direct:
        yield _grown(I | survey.direct)
        return
    walks, Z = ([], o.ground) if survey.pair is None else probe_pair_search(o, survey)
    if not walks:
        _check_certificate(o, [I] if x else [], Z, k)
        yield _certify(Z)
    J = I
    for P in walks:
        j, Pm = popcount(J), mask_of(P)
        if j == k or _expect(
            o, J ^ Pm, j - len(P) // 2, j + 1, lambda: f"the walk {tuple(P)} at J = {format_set(J)}"
        ) > j:
            check_entering(o, survey, bit(P[0]), Pm)
            J ^= Pm
            yield _grown(J, "walk" if j > k else "augment")


def _check_certificate(o: Oracle, sets: Sequence[int], Z: int, k: int) -> None:
    """Ask `rmin(I) = |I|` for each I of `sets`, then `rmin(Z) +
    rmin(E \\ Z) = k`, or raise ContractViolationError naming every answer."""
    asked = [(X, o.rmin(X)) for X in (*sets, Z, o.ground & ~Z)]
    if asked[-2][1] + asked[-1][1] != k or any(v != popcount(X) for X, v in asked[:-2]):
        told = ", ".join(f"rmin({format_set(X)}) = {v}" for X, v in asked)
        raise ContractViolationError(f"certificate fails at |I| = {k}: {told}")


class CardinalityRun(NamedTuple):
    """The common independent sets a run passed through, from the empty set
    to the last, and the certificate that stopped it."""

    sets: tuple[int, ...]
    Z: int
    queries: int
    trace: tuple[AugmentStep, ...]

    @property
    def I(self) -> int:
        """The last set the run reached."""
        return self.sets[-1]


def _run(o: Oracle, step: Callable[[list[int]], Iterable[_Outcome]]) -> CardinalityRun:
    """Step from the empty set until a step certifies maximality. A step
    reads the run's sets so far, the empty set first and its own I last,
    and yields an outcome per set it reaches, appended before the next is
    asked for, or last a certificate it has checked (`_check_certificate`).
    A trace line is charged the queries since the line before, and a
    step's asks after its last line (walks the oracle declined) go to it.

    A step that rejects its own input (ValueError) was given a set and a
    probe pair built from the oracle's earlier answers, so the oracle broke
    the matroid contract."""
    base = o.query_count
    sets = [0]
    trace: list[AugmentStep] = []
    while True:
        before = o.query_count
        try:
            for res, action, detail in step(sets):
                line = AugmentStep(popcount(sets[-1]), action, detail, o.query_count - before)
                trace.append(line)
                before = o.query_count
                if isinstance(res, Certificate):
                    return CardinalityRun(tuple(sets), res.Z, o.query_count - base, tuple(trace))
                sets.append(res.J)
        except ValueError as exc:
            raise ContractViolationError(f"oracle answers contradict each other: {exc}") from exc
        trace[-1] = trace[-1]._replace(queries=trace[-1].queries + o.query_count - before)


def max_cardinality(o: Oracle) -> CardinalityRun:
    """Grow from the empty set until a duality certificate proves
    maximality, keeping every set passed through, one per size. One search
    can grow the set several times, and a step after a direct add resumes
    the one before (`_augment`)."""
    return _run(o, lambda sets: _augment(o, sets))


# -- weighted augmentation ----------------------------------------------------


def _swept(I: int, path: list[int] | None, Z: int, price: Callable, mark: str = "") -> _Outcome:
    """A path search's answer as a step: the swap along `path`, its cost
    stated as `price(path, I)`, or the certificate Z; `mark` ends the detail."""
    if path is None:
        return _certify(Z, mark)
    return Augmented(I ^ mask_of(path)), "path", f"P={tuple(path)} cost={price(path, I)}{mark}"


def _decide(N: ExchangeGraph, w: Sequence, price: Callable) -> _Outcome | None:
    """The step decided on the intersected graph N, which holds the true
    graph, whose arcs include N's sure ones: with N's reach set if no source
    reaches a sink, along N's shortest cheapest path if all its arcs are
    sure; else None, also when fake arcs close a negative cycle."""
    try:
        path, Z = shortest_cheapest_path(N, w)
    except NegativeCycleError:
        return None
    sure = path is None or all((N.sure[u] >> v) & 1 for u, v in zip(path, path[1:]))
    return _swept(N.I, path, Z, price) if sure else None


def cheapest_path_augment(
    o: Oracle, w: Sequence, N: ExchangeGraph, price: Callable
) -> _Outcome:
    """The step at a weight-maximal N.I: decided on the intersected graph N
    when N decides it (`_decide`), else resolved (observations, clauses,
    2-SAT) and searched, exact under any of the three tractable regimes,
    with its trace detail marked `resolved`. A path's cost reads
    `price(path, I)`, which each mode sets to speak in its own units."""
    decided = _decide(N, w, price)
    if decided is not None:
        return decided
    R = almost_consistent_graph(o, N)
    return _swept(N.I, *shortest_cheapest_path(R, w), price, " resolved")


class Level(NamedTuple):
    """Weight-maximal common independent set at one cardinality."""

    k: int
    I: int
    weight: Fraction


class WeightedRun(NamedTuple):
    """Per-cardinality maxima plus the terminating certificate."""

    levels: tuple[Level, ...]
    certificate: int
    queries: int
    trace: tuple[AugmentStep, ...]

    @property
    def best(self) -> Level:
        """The user-facing optimum: heaviest level, smallest k on ties."""
        return max(self.levels, key=lambda lv: (lv.weight, -lv.k))


def _check_length(o: Oracle, w: Sequence) -> None:
    if len(w) != o.n:
        raise ValueError(f"{len(w)} weights for a ground set of {o.n} elements")


def _weighted_run(
    o: Oracle, w: Sequence, resolve: Callable[[ExchangeGraph], _Outcome]
) -> WeightedRun:
    """The one weighted driver. Each step surveys I, filing as flat unasked
    every element x ∉ I whose carried circuit lies in I (it is dependent
    at I); every pairwise extension flat -> ground-set certificate; no
    valid probe pair -> the heaviest rank-lifting element (smallest id on
    ties); otherwise `resolve` decides on the intersected graph of the
    survey's probe pair and direct set, and `check_entering` re-asks what
    that graph took from the survey. A flat element stays flat while I
    grows, so a survey after a direct add must lift none of the elements
    the one before filed flat. A certificate is checked over every
    nonempty set of the run. The run keeps one map of star
    circuits for `intersect_modified` and prices every level from `w`."""
    _check_length(o, w)
    circuits: dict[int, int] = {}
    flat = 0  # after a direct add, the elements flat at the set before it

    def step(sets: list[int]) -> Iterator[_Outcome]:
        nonlocal flat
        I = sets[-1]
        carried = mask_of(
            x for x, C in circuits.items() if not (I >> x) & 1 and not C & ~I
        )
        survey = survey_extensions(o, I, known_flat=carried)
        direct = survey.direct
        if direct & flat:
            lifted, before = format_set(direct & flat), format_set(sets[-2])
            raise ValueError(f"{lifted} flat at {before} lifts at {format_set(I)}")
        if not direct and survey.pair is None:
            outcome = _certify(o.ground)
        elif survey.pair is None:
            x = max(iter_bits(direct), key=lambda e: Fraction(w[e]))
            flat = o.ground & ~I & ~direct
            outcome = Augmented(I | bit(x)), "direct", f"x={x}"
        else:
            flat = 0
            N = intersect_modified(o, survey, circuits)
            outcome = resolve(N)
            if isinstance(outcome[0], Augmented):
                check_entering(o, survey, N.S, outcome[0].J)
        if isinstance(outcome[0], Certificate):
            _check_certificate(o, sets[1:], outcome[0].Z, popcount(I))
        yield outcome

    run = _run(o, step)
    levels = tuple(Level(popcount(I), I, total_weight(w, I)) for I in run.sets)
    return WeightedRun(levels, run.Z, run.queries, run.trace)


def _exact(w: Sequence) -> tuple[list[int], Callable]:
    """The weights scaled to exact ints by the lcm of their denominators,
    so path costs add as ints and every comparison is kept, and the
    `price(path, I)` that states a path's cost in the caller's units."""
    fw = [Fraction(v) for v in w]
    scale = lcm(*(f.denominator for f in fw))
    iw = [f.numerator * (scale // f.denominator) for f in fw]
    return iw, lambda path, I: Fraction(path_cost(path, I, iw), scale)


def weighted_no_circuit_inclusion(o: Oracle, w: Sequence) -> WeightedRun:
    """Weight-maximal common independent sets of every cardinality, valid
    when no circuit of either matroid contains a circuit of the other (the
    promise makes every resolved graph fully consistent)."""
    iw, price = _exact(w)
    return _weighted_run(o, w, lambda N: cheapest_path_augment(o, iw, N, price))


# -- bounded circuit size -----------------------------------------------------


def _validate_candidate(o: Oracle, I: int, path: Sequence[int]) -> bool:
    """Constructive acceptance test for a guessed augmentation: the swap
    must lift the min-rank, and every even prefix ending inside I and even
    suffix starting inside I must stay a common independent set of size |I|
    (the property a genuine shortest cheapest path always has)."""
    k = popcount(I)
    J = I ^ mask_of(path)
    swaps = [path[:m] for m in range(2, len(path), 2)]
    swaps += [path[j:] for j in range(1, len(path), 2)]
    return (
        popcount(J) == k + 1
        and o.rmin(J) == k + 1
        and all(o.rmin(I ^ mask_of(P)) == k for P in swaps)
    )


def _fpt_augment(
    o: Oracle, w: Sequence, N: ExchangeGraph, gamma: int, price: Callable
) -> _Outcome:
    I = N.I
    k = popcount(I)
    # The ends in I of the suspicious arcs: tails on layer 1, heads on layer 2.
    J1 = J2 = 0
    for v, heads in enumerate(N.succ):
        loose = heads & ~N.sure[v]
        if not (I >> v) & 1:
            J2 |= loose
        elif loose:
            J1 |= bit(v)
    side = 2 if popcount(J2) <= popcount(J1) else 1
    J = J2 if side == 2 else J1
    if popcount(J) > gamma:
        raise ContractViolationError(
            f"suspicious-arc heads exceed the circuit-size bound {gamma} "
            "on both layers; the bound does not hold for this oracle"
        )
    decided = _decide(N, w, price)
    if decided is not None:
        return decided
    table = ObservationTable(o, N)

    # J lives on layer `side`: 2 constrains arcs into I, 1 arcs out of I.
    def arc(x: int, y: int) -> tuple[int, int]:
        return (x, y) if side == 2 else (y, x)

    def joined(X: int, Y: int) -> bool:
        """Whether layer `side` has an arc between X and Y."""
        tails, heads = (X, Y) if side == 2 else (Y, X)
        return any(N.succ[u] & heads for u in iter_bits(tails))

    def clause(X: int, Y1: int) -> tuple:
        """(arc(x0, y) | arc(x1, y)) for X = {x0, x1} and Y1 = {y}."""
        (y,) = elements_of(Y1)
        return tuple((arc(x, y), False) for x in elements_of(X))

    # Each evil pair is read once. Its Y meets J; an arc from X at an
    # element of Y outside J is sure (no suspicious head), so the base
    # clauses already rule out underestimation and the pair is dropped.
    kept = [(X, Y) for X, Y in table.evil_pairs(J) if not joined(X, Y & ~J)]
    candidates: list[int] = []
    certificates: list[int] = []
    guesses = 0
    for Jp in subsets_of(J):
        # Jp guesses the heads in J that truly have no arc. A kept Y that
        # leaves J needs the clause at its element in J under every guess.
        extra = []
        for X, Y in kept:
            if Y & ~J:
                extra.append(clause(X, Y & J))
            elif Y & Jp == Y:
                break  # the guess contradicts itself
            elif Y & Jp:
                extra.append(clause(X, Y & ~Jp))
        else:
            guesses += 1
            assignment = solve_2sat(build_cnf(table, extra))
            if assignment is None:
                continue
            try:
                path, Z = shortest_cheapest_path(N.with_assignment(assignment), w)
            except NegativeCycleError:
                continue  # only a wrong guess can fabricate one
            if path is None:
                certificates.append(Z)
            elif _validate_candidate(o, I, path):
                candidates.append(I ^ mask_of(path))
    detail = f"J={format_set(J)} tried={guesses} candidates={len(candidates)} resolved"
    if candidates:
        # The first heaviest candidate in ascending mask order.
        best = max(sorted(candidates), key=lambda c: total_weight(w, c))
        return Augmented(best), "guesses", detail
    # The first that verifies, in the guess order of `subsets_of`.
    for Z in certificates:
        if o.rmin(Z) + o.rmin(o.ground & ~Z) == k:
            return Certificate(Z), "guesses", detail
    raise ContractViolationError(
        "no guess yielded a valid augmentation or a verifying certificate; "
        "the circuit-size bound does not hold for this oracle"
    )


def weighted_fpt_circuit(o: Oracle, w: Sequence, gamma: int) -> WeightedRun:
    """Weight-maximal common independent sets of every cardinality when one
    matroid has no circuit larger than `gamma`.

    A step `_decide` leaves open, after the bound check, reads the evil
    two-for-two observations once, then guesses, among the at most `gamma`
    suspicious heads J on the small-circuit layer, which ones truly have
    no arc (at most 2^gamma guesses, in `subsets_of` order). A guess
    holding all of an evil pair's Y contradicts itself and is not tried;
    otherwise the pair adds its clause at the element of Y outside the
    guess. The step accepts the heaviest candidate that passes the swap
    checks, else the first certificate that verifies.
    """
    if gamma < 2:
        raise ValueError("circuit-size bound must be at least 2")
    iw, price = _exact(w)
    return _weighted_run(o, w, lambda N: _fpt_augment(o, iw, N, gamma, price))


# -- lexicographic maximality and approximation -------------------------------


def weight_classes(w: Sequence, ground: int) -> list[Fraction]:
    """Distinct weights on the ground set, heaviest first."""
    return sorted({Fraction(w[e]) for e in iter_bits(ground)}, reverse=True)


def class_vector(w: Sequence, classes: Sequence[Fraction], I: int) -> tuple[int, ...]:
    """Element counts of I per weight class, in the order of `classes`
    (from `weight_classes`, so heaviest first)."""
    counts = dict.fromkeys(classes, 0)
    for e in iter_bits(I):
        counts[Fraction(w[e])] += 1
    return tuple(counts.values())


class LexmaxRun(NamedTuple):
    """Result of a lexicographic-maximum solve."""

    I: int
    vector: tuple[int, ...]
    levels: tuple[Level, ...]
    certificate: int
    queries: int
    trace: tuple[AugmentStep, ...]


def lexicographic_max(o: Oracle, w: Sequence) -> LexmaxRun:
    """The common independent set taking as many heaviest elements as
    possible, then second-heaviest, and so on.

    Runs the weighted augmentation with the proof's huge weights, exact as
    Python ints: an element of the j-th lightest class, counting from 0,
    weighs B^j. Every cost compared is a signed class-count vector of a
    simple path or set, with L1 norm at most n, so two of them differ by at
    most 2n < B = 2n+1 in L1 and integer order equals lexicographic order,
    ties included. The per-level results are class-vector-maximal at each
    cardinality, the heaviest level is the lexicographic maximum, and the
    levels report the caller's weights. A `path` trace line states the cost
    of a path P as the class vector of P ∩ I minus that of P \\ I, the
    signs of `path_cost`."""
    _check_length(o, w)
    classes = weight_classes(w, o.ground)
    B = 2 * o.n + 1
    weight = {c: B**i for i, c in enumerate(reversed(classes))}
    huge = [weight[Fraction(w[e])] if (o.ground >> e) & 1 else 0 for e in range(o.n)]

    def price(path: Sequence[int], I: int) -> tuple[int, ...]:
        P = mask_of(path)
        inside = class_vector(w, classes, P & I)
        outside = class_vector(w, classes, P & ~I)
        return tuple(a - b for a, b in zip(inside, outside))

    run = _weighted_run(o, w, lambda N: cheapest_path_augment(o, huge, N, price))
    best = max(run.levels, key=lambda lv: (total_weight(huge, lv.I), -lv.k)).I
    vector = class_vector(w, classes, best)
    return LexmaxRun(best, vector, run.levels, run.certificate, run.queries, run.trace)


class ApproxResult(NamedTuple):
    """Output of the positive-weight approximation."""

    I: int
    weight: Fraction
    guarantee: Fraction
    alpha: Fraction | None
    queries: int


def approx_max_weight(o: Oracle, w: Sequence) -> ApproxResult:
    """Drop non-positive elements, take the lexicographic maximum, and
    report the worst-case ratio min{1, alpha/2}, where alpha is the
    smallest ratio between consecutive distinct positive weights (a single
    positive weight class is solved exactly, guarantee 1)."""
    _check_length(o, w)
    pos = mask_of(e for e in iter_bits(o.ground) if Fraction(w[e]) > 0)
    if pos == 0:
        return ApproxResult(0, Fraction(0), Fraction(1), None, 0)
    run = lexicographic_max(RestrictedOracle(o, pos), w)
    distinct = weight_classes(w, pos)
    alpha = min((a / b for a, b in zip(distinct, distinct[1:])), default=None)
    guarantee = Fraction(1) if alpha is None else min(Fraction(1), alpha / 2)
    return ApproxResult(run.I, total_weight(w, run.I), guarantee, alpha, run.queries)
