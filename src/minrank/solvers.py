"""Solvers that see a matroid pair only through its minimum-rank oracle.

Cardinality augmentation, weighted augmentation over resolved
exchangeability graphs, and the three tractable weighted regimes
(no-circuit-inclusion promise, bounded circuit size, lexicographic
maximality), plus the approximation wrapper for positive weights.

Every mode runs one loop, `_run`: from the empty set, each augmentation
step either swaps I along a shortest path or stops with a set Z where
rmin(Z) + rmin(E \\ Z) = |I|. A step is a function `I -> (result, action,
detail)`; the loop counts each step's queries and writes its trace line.
The weighted modes scale the caller's weights once per run to exact ints,
so path costs add as ints, and price the sets the loop passed through from
the caller's weights once it has stopped. Paths are priced by `path_cost`;
the search for a shortest cheapest path, which answers with a path or its
certificate, lives in `exchange` beside the graphs it reads.

Everything here must work through `rmin` alone; the visibility audit in the
test suite holds this module to that.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .bitset import bit, elements_of, format_set, iter_bits, mask_of, popcount, subsets_of
from .consistency import ObservationTable, almost_consistent_graph, build_cnf, solve_2sat
from .errors import ContractViolationError, NegativeCycleError
from .exchange import (
    StarPair,
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


SolveResult = Augmented | Certificate


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
_Outcome = tuple[SolveResult, str, str]


def _certify(Z: int) -> _Outcome:
    return Certificate(Z), "certificate", f"Z={format_set(Z)}"


def _grown(J: int) -> _Outcome:
    return Augmented(J), "augment", f"J={format_set(J)}"


def augment_min_rank(o: Oracle, I: int) -> _Outcome:
    """One cardinality augmentation step.

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
    return _augment(o, I, None)[0]


def _augment(o: Oracle, I: int, known_flat: int | None) -> tuple[_Outcome, int | None]:
    """`augment_min_rank`, resumed after a direct add when `known_flat` is
    not None: then I needs no entry check, the survey does not ask the
    elements of `known_flat`, and the certificate check asks `rmin(I)`.
    Returns the outcome and, after a direct add of x, the elements known
    flat at I + x (see `survey_extensions`); None otherwise."""
    if known_flat is None and not o.is_common_independent(I):
        raise ValueError("I is not a common independent set")
    survey = survey_extensions(o, I, first=True, known_flat=known_flat or 0)
    if survey.direct:
        x = survey.direct[0]
        after = (known_flat or 0) | o.ground & ~I & (bit(x) - 1)
        return _grown(I | bit(x)), after
    path, Z = None, o.ground
    if survey.pair is not None:
        path, Z = probe_pair_search(o, I, survey.pair)
    if path is not None:
        return _grown(I ^ mask_of(path)), None
    k, rest = popcount(I), o.ground & ~Z
    rI = k if known_flat is None else o.rmin(I)
    rZ, rR = o.rmin(Z), o.rmin(rest)
    if rI != k or rZ + rR != k:
        raise ContractViolationError(
            f"certificate fails at |I| = {k}: rmin({format_set(I)}) = {rI}, "
            f"rmin({format_set(Z)}) = {rZ}, rmin({format_set(rest)}) = {rR}"
        )
    return _certify(Z), None


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


def _run(o: Oracle, step: Callable[[int], _Outcome]) -> CardinalityRun:
    """Step from the empty set until a step certifies maximality, charging
    each trace line with every query its step asked.

    A step that rejects its own input (ValueError) was handed a set and a
    probe pair built from the oracle's earlier answers, so the oracle broke
    the matroid contract."""
    base = o.query_count
    sets = [0]
    trace: list[AugmentStep] = []
    while True:
        I = sets[-1]
        before = o.query_count
        try:
            res, action, detail = step(I)
        except ValueError as exc:
            raise ContractViolationError(
                f"oracle answers contradict each other: {exc}"
            ) from exc
        trace.append(AugmentStep(popcount(I), action, detail, o.query_count - before))
        if isinstance(res, Certificate):
            return CardinalityRun(tuple(sets), res.Z, o.query_count - base, tuple(trace))
        sets.append(res.J)


def max_cardinality(o: Oracle) -> CardinalityRun:
    """Grow from the empty set one augmentation at a time until a duality
    certificate proves maximality, keeping every set passed through.

    A step after a direct add resumes the one before: it skips the entry
    check and the singletons known to be flat (`_augment`)."""
    known_flat = None

    def step(I: int) -> _Outcome:
        nonlocal known_flat
        outcome, known_flat = _augment(o, I, known_flat)
        return outcome

    return _run(o, step)


# -- weighted augmentation ----------------------------------------------------


def _augment_prelude(o: Oracle, w: Sequence, I: int) -> _Outcome | StarPair:
    """Steps shared by the weighted augmentations: every pairwise extension
    flat -> ground-set certificate; no valid probe pair -> the heaviest
    rank-lifting element (smallest id on ties); otherwise the survey's
    probe pair to build from."""
    survey = survey_extensions(o, I)
    if survey.all_flat:
        return _certify(o.ground)
    if survey.pair is None:
        x = max(survey.direct, key=w.__getitem__)
        return Augmented(I | bit(x)), "direct", f"x={x}"
    return survey.pair


def cheapest_path_augment(
    o: Oracle, w: Sequence, I: int, _price: Callable = path_cost
) -> _Outcome:
    """One weighted augmentation step at a weight-maximal I.

    Steps: `_augment_prelude`; the intersected graph from its probe pair;
    observations -> clause system -> resolved graph; a swap along a
    shortest cheapest source-sink path, or the certificate of the vertices
    that reach a sink. The trace line states the path's cost as
    `_price(path, I, w)`, which each mode sets to speak in its own units.

    The result is weight-maximal at |I|+1 under any of the three tractable
    regimes; on arbitrary instances it still runs and the verification
    module audits the output.
    """
    pair = _augment_prelude(o, w, I)
    if not isinstance(pair, StarPair):
        return pair
    path, Z = shortest_cheapest_path(almost_consistent_graph(o, I, pair), w)
    if path is None:
        return _certify(Z)
    detail = f"P={tuple(path)} cost={_price(path, I, w)}"
    return Augmented(I ^ mask_of(path)), "path", detail


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


def _levels(run: CardinalityRun, w: Sequence) -> tuple[Level, ...]:
    return tuple(Level(popcount(I), I, total_weight(w, I)) for I in run.sets)


def _weighted_run(o: Oracle, w: Sequence, augment) -> WeightedRun:
    """Run `augment(o, iw, I, price) -> _Outcome` on the weights scaled once
    to exact ints `iw` by the lcm of their denominators, and price every
    level from `w`. Scaling keeps every comparison; `price(path, I, iw)`
    states a path's cost in the caller's units again for the trace."""
    fw = [Fraction(v) for v in w]
    scale = lcm(*(f.denominator for f in fw))
    iw = [f.numerator * (scale // f.denominator) for f in fw]

    def price(path: Sequence[int], I: int, _: Sequence) -> Fraction:
        return Fraction(path_cost(path, I, iw), scale)

    run = _run(o, lambda I: augment(o, iw, I, price))
    return WeightedRun(_levels(run, w), run.Z, run.queries, run.trace)


def weighted_no_circuit_inclusion(o: Oracle, w: Sequence) -> WeightedRun:
    """Weight-maximal common independent sets of every cardinality, valid
    when no circuit of either matroid contains a circuit of the other (the
    promise makes every resolved graph fully consistent)."""
    return _weighted_run(o, w, cheapest_path_augment)


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


def _fpt_augment(o: Oracle, w: Sequence, I: int, gamma: int) -> _Outcome:
    pair = _augment_prelude(o, w, I)
    if not isinstance(pair, StarPair):
        return pair
    k = popcount(I)
    N = intersect_modified(o, I, pair)
    table = ObservationTable(o, I, N.S, N.T)
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
            assignment = solve_2sat(build_cnf(table, N, extra=extra))
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
    detail = f"J={format_set(J)} tried={guesses} candidates={len(candidates)}"
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

    Each augmentation reads the evil two-for-two observations once, then
    guesses, among the at most `gamma` suspicious heads J on the
    small-circuit layer, which ones truly have no arc (at most 2^gamma
    guesses, in `subsets_of` order). A guess holding all of an evil pair's
    Y contradicts itself and is not tried; otherwise the pair adds its
    clause at the element of Y outside the guess. The step accepts the
    heaviest candidate that passes the swap checks, else the first
    certificate that verifies.
    """
    if gamma < 2:
        raise ValueError("circuit-size bound must be at least 2")
    return _weighted_run(o, w, lambda oo, ww, I, _: _fpt_augment(oo, ww, I, gamma))


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
    classes = weight_classes(w, o.ground)
    B = 2 * o.n + 1
    weight = {c: B**i for i, c in enumerate(reversed(classes))}
    huge = [weight[Fraction(w[e])] if (o.ground >> e) & 1 else 0 for e in range(o.n)]

    def price(path: Sequence[int], I: int, _: Sequence) -> tuple[int, ...]:
        P = mask_of(path)
        inside = class_vector(w, classes, P & I)
        outside = class_vector(w, classes, P & ~I)
        return tuple(a - b for a, b in zip(inside, outside))

    run = _run(o, lambda I: cheapest_path_augment(o, huge, I, price))
    best = max(run.sets, key=lambda I: (total_weight(huge, I), -popcount(I)))
    return LexmaxRun(
        best,
        class_vector(w, classes, best),
        _levels(run, w),
        run.Z,
        run.queries,
        run.trace,
    )


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
    pos = mask_of(e for e in iter_bits(o.ground) if Fraction(w[e]) > 0)
    if pos == 0:
        return ApproxResult(0, Fraction(0), Fraction(1), None, 0)
    run = lexicographic_max(RestrictedOracle(o, pos), w)
    distinct = weight_classes(w, pos)
    alpha = min((a / b for a, b in zip(distinct, distinct[1:])), default=None)
    guarantee = Fraction(1) if alpha is None else min(Fraction(1), alpha / 2)
    return ApproxResult(run.I, total_weight(w, run.I), guarantee, alpha, run.queries)
