"""Matroid representations reduced to exact rank oracles.

Five kinds are supported: uniform, partition, graphic, linear-rational
(exact integer elimination on one stack per matroid), and explicit (an
arbitrary small independence family given extensionally). Every kind exposes
the same interface: ``rank(mask)`` and ``is_independent(mask)``. A
matroid here only ranks: `kind` names its file form, whose fields
`minrank.instances` both reads and writes.

All matroids here are expected to be loopless; `validate` reports the first
violated axiom (with witness sets) instead of silently repairing anything.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .bitset import MAX_GROUND, bit, format_set, full_mask, iter_bits, popcount


class ValidationReport(NamedTuple):
    """Outcome of `validate`: the first violated axiom with witnesses, if any."""

    axiom: str | None = None
    witnesses: tuple[int, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether no axiom is violated."""
        return self.axiom is None

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        sets = ", ".join(format_set(w) for w in self.witnesses)
        return f"violation: {self.axiom} ({self.detail}; witnesses {sets})"


class Matroid:
    """Base class: subclasses implement `_rank`; everything else is shared."""

    kind = "abstract"

    def __init__(self, n: int):
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size {n} outside [0, {MAX_GROUND}]")
        self.n = n
        self._ground = full_mask(n)

    def _rank(self, mask: int) -> int:
        raise NotImplementedError

    def rank(self, mask: int) -> int:
        if mask & ~self._ground:
            raise ValueError(f"mask {bin(mask)} has elements outside [0, {self.n})")
        return self._rank(mask)

    def is_independent(self, mask: int) -> bool:
        return self.rank(mask) == popcount(mask)


class UniformMatroid(Matroid):
    """U(k, n): rank(X) = min(k, |X|)."""

    kind = "uniform"

    def __init__(self, k: int, n: int):
        super().__init__(n)
        if k < 0:
            raise ValueError("uniform rank bound must be nonnegative")
        self.k = k

    def _rank(self, mask: int) -> int:
        return min(self.k, popcount(mask))


class PartitionMatroid(Matroid):
    """Blocks B_1..B_m partitioning E with capacities c_i:
    rank(X) = sum_i min(|X ∩ B_i|, c_i)."""

    kind = "partition"

    def __init__(self, n: int, blocks: Sequence[int], capacities: Sequence[int]):
        super().__init__(n)
        if len(blocks) != len(capacities):
            raise ValueError("one capacity per block required")
        seen = 0
        for b in blocks:
            if b & seen:
                raise ValueError("blocks overlap")
            seen |= b
        if seen != full_mask(n):
            raise ValueError("blocks must cover every element exactly once")
        if any(c < 0 for c in capacities):
            raise ValueError("capacities must be nonnegative")
        self.blocks = tuple(blocks)
        self.capacities = tuple(capacities)
        # Blocks that can never fill up count every element; they are
        # merged into one mask so a rank query pays one bit count for them.
        free = 0
        capped = []
        for b, c in zip(self.blocks, self.capacities):
            if c >= popcount(b):
                free |= b
            else:
                capped.append((b, c))
        self._free = free
        self._capped = tuple(capped)

    def _rank(self, mask: int) -> int:
        r = (mask & self._free).bit_count()
        for b, c in self._capped:
            k = (mask & b).bit_count()
            r += k if k < c else c
        return r


class GraphicMatroid(Matroid):
    """Elements are edges of an undirected graph; rank(X) = size of a spanning
    forest of the subgraph with edge set X (union-find count of merges).

    `num_vertices` and `edges` stay as given. The union-find runs over the
    endpoints only, renumbered once in first-seen order, so a rank query
    costs nothing per isolated vertex."""

    kind = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        ids: dict[int, int] = {}
        ends = []
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            ends.append((ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids))))
        self.num_vertices = num_vertices
        self.edges = tuple((u, v) for u, v in edges)
        self._ends = tuple(ends)
        self._points = len(ids)

    def _rank(self, mask: int) -> int:
        parent = list(range(self._points))
        edges = self._ends
        merges = 0
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = edges[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[u] = v
                merges += 1
        return merges


class LinearMatroid(Matroid):
    """Columns of a matrix over Q; exact rank from one elimination stack.

    Each row is scaled by the lcm of its denominators once, at
    construction; scaling a row by a nonzero integer keeps the column
    matroid. `matrix` keeps the rational entries as given.

    The stack holds the last independent query's columns in the order added,
    each reduced against those below it: O(r^2) integers for rank r and
    independent rows. A query keeps the longest prefix of the stack inside
    its mask and reduces only the rest of the mask on top; an independent
    query leaves its result as the stack.
    """

    kind = "linear-rational"

    def __init__(self, matrix: Sequence[Sequence[Fraction | int | str]]):
        rows = [[_entry(v) for v in row] for row in matrix]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        n = widths.pop() if widths else 0
        super().__init__(n)
        self.matrix = tuple(tuple(r) for r in rows)
        # Column tuples, so a query reads only the columns it reduces.
        self._columns = tuple(zip(*map(_integer_row, rows)))
        self._rank_cache: dict[int, int] = {}
        # (element, reduced column, pivot index), in the order added.
        self._stack: list[tuple[int, list[int], int]] = []

    def _rank(self, mask: int) -> int:
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        rest = mask
        stack = []
        for entry in self._stack:
            if not rest >> entry[0] & 1:
                break
            rest ^= 1 << entry[0]
            stack.append(entry)
        for e in iter_bits(rest):
            reduced = _reduce(self._columns[e], stack)
            if reduced is not None:
                stack.append((e, *reduced))
        r = len(stack)
        if r == popcount(mask):
            self._stack = stack
        self._rank_cache[mask] = r
        return r


# The refusal of a float or bool where an exact rational is due.
_INEXACT = '{} is not an exact rational; write an integer or a string such as "0.1" or "1/3"'


def _entry(v: Fraction | int | str) -> Fraction | int:
    """A matrix entry as an exact rational. Integer strings skip the
    `Fraction` parser: every string `int` accepts, `Fraction` accepts with
    the same value. A float or bool is refused, as for weights; others fall
    back to `Fraction`, errors included."""
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    elif isinstance(v, (bool, float)):
        raise ValueError(_INEXACT.format(json.dumps(v)))
    return Fraction(v)


def _integer_row(row: Sequence[Fraction | int]) -> list[int]:
    """`row` times the lcm of its denominators."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _reduce(column: Sequence[int], stack: list) -> tuple[list[int], int] | None:
    """`column` with every stacked pivot cancelled, divided by the gcd of its
    entries (an exact division), and its pivot; None if it lies in the
    stack's span. Each stacked column is zero at the pivots below it, so
    cancelling them in stack order leaves the result zero at all of them."""
    v = column
    for _, below, p in stack:
        a = v[p]
        if a:
            b = below[p]
            v = [x * b - y * a for x, y in zip(v, below)]
    g = gcd(*v)
    if not g:
        return None
    if g != 1:
        v = [x // g for x in v]
    # The first nonzero value sits first at its own index.
    return v, v.index(next(filter(None, v)))


class ExplicitMatroid(Matroid):
    """An independence family given extensionally (any small matroid).

    Accepts the full family or just its maximal members; stores the bases and
    answers rank queries as max_B |B ∩ X| with memoization, stopping at a
    base that meets min(|X|, |B|), a bound no base exceeds. The constructor
    refuses a member outside [0, n); whether the input actually is a matroid
    is checked by `validate`.
    """

    kind = "explicit"

    def __init__(self, n: int, family: Sequence[int]):
        super().__init__(n)
        for f in family:
            if f & ~self._ground:
                raise ValueError(f"family member {bin(f)} has elements outside [0, {n})")
        fam = set(family)
        fam.add(0)
        self.family = frozenset(fam)
        top = max(map(popcount, fam))
        self.bases = tuple(sorted(f for f in fam if popcount(f) == top))
        self._rank_cache: dict[int, int] = {}

    def _rank(self, mask: int) -> int:
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        bound = min(popcount(mask), popcount(self.bases[0]))
        r = 0
        for b in self.bases:
            r = max(r, popcount(mask & b))
            if r == bound:
                break
        self._rank_cache[mask] = r
        return r


def validate(m: Matroid) -> ValidationReport:
    """Check rank axioms and looplessness; report the first violation.

    Order of checks: explicit-family structure (downward closure, exchange,
    family/rank agreement), r(emptyset) = 0, unit monotonicity
    (exhaustive for n <= 12, sampled otherwise), submodularity on sampled
    triples, looplessness. Samples come from a fixed seed.
    """
    n = m.n
    rng = random.Random(0)

    if isinstance(m, ExplicitMatroid) and n <= 16:
        fam = m.family
        for f in sorted(fam):
            for e in iter_bits(f):
                if f ^ bit(e) not in fam:
                    return ValidationReport(
                        "downward-closure", (f, f ^ bit(e)),
                        "family member has a missing subset",
                    )
        for a in sorted(fam):
            for b in sorted(fam):
                if popcount(a) < popcount(b):
                    if not any(a | bit(e) in fam for e in iter_bits(b & ~a)):
                        return ValidationReport(
                            "exchange", (a, b),
                            "no element of the larger set extends the smaller",
                        )
        # With closure+exchange verified, basis-derived rank must match the
        # family: every family member is independent.
        for f in sorted(fam):
            if m.rank(f) != popcount(f):
                return ValidationReport(
                    "family-rank", (f,),
                    "family member not independent under basis-derived rank",
                )

    if m.rank(0) != 0:
        return ValidationReport("empty-rank", (0,), f"r(empty) = {m.rank(0)}")

    def unit_monotone_at(x: int, e: int) -> ValidationReport | None:
        r0, r1 = m.rank(x), m.rank(x | bit(e))
        if not r0 <= r1 <= r0 + 1:
            return ValidationReport(
                "unit-monotone", (x, x | bit(e)),
                f"r={r0} then r={r1}",
            )
        return None

    if n <= 12:
        for x in range(1 << n):
            for e in range(n):
                if not (x >> e) & 1:
                    bad = unit_monotone_at(x, e)
                    if bad:
                        return bad
    else:
        for _ in range(2000):
            x = rng.getrandbits(n)
            e = rng.randrange(n)
            if not (x >> e) & 1:
                bad = unit_monotone_at(x, e)
                if bad:
                    return bad

    samples = 400 if n <= 12 else 2000
    fm = full_mask(n)
    for _ in range(samples):
        x = rng.getrandbits(n) & fm
        y = rng.getrandbits(n) & fm
        if m.rank(x) + m.rank(y) < m.rank(x | y) + m.rank(x & y):
            return ValidationReport(
                "submodular", (x, y),
                "r(X)+r(Y) < r(X|Y)+r(X&Y)",
            )

    for e in range(n):
        if m.rank(bit(e)) != 1:
            return ValidationReport(
                "loopless", (bit(e),), f"element {e} is a loop"
            )

    return ValidationReport()

