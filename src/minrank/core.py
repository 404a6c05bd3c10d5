"""Matroid representations reduced to exact rank oracles.

Five kinds are supported: uniform, partition, graphic, linear-rational
(exact integer fraction-free elimination), and explicit (an arbitrary
small independence family given extensionally). Every kind exposes the same
interface: ``rank(mask)`` and ``is_independent(mask)``.

All matroids here are expected to be loopless; `validate` reports the first
violated axiom (with witness sets) instead of silently repairing anything.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .bitset import (
    MAX_GROUND,
    bit,
    elements_of,
    format_set,
    full_mask,
    iter_bits,
    popcount,
)


class ValidationReport(NamedTuple):
    """Outcome of `validate`: ok, or the first violated axiom with witnesses."""

    ok: bool
    axiom: str | None = None
    witnesses: tuple[int, ...] = ()
    detail: str = ""

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

    def params(self) -> dict:
        """Kind-specific parameters, for serialization."""
        raise NotImplementedError


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

    def params(self) -> dict:
        return {"k": self.k, "n": self.n}


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

    def params(self) -> dict:
        return {
            "n": self.n,
            "blocks": [elements_of(b) for b in self.blocks],
            "capacities": list(self.capacities),
        }


class GraphicMatroid(Matroid):
    """Elements are edges of an undirected graph; rank(X) = size of a spanning
    forest of the subgraph with edge set X (union-find count of merges)."""

    kind = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
        self.num_vertices = num_vertices
        self.edges = tuple((u, v) for u, v in edges)

    def _rank(self, mask: int) -> int:
        parent = list(range(self.num_vertices))
        edges = self.edges
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

    def params(self) -> dict:
        return {"num_vertices": self.num_vertices, "edges": [list(e) for e in self.edges]}


class LinearMatroid(Matroid):
    """Columns of a matrix over Q; rank by exact integer fraction-free
    elimination.

    Each row is scaled by the lcm of its denominators once, at
    construction; scaling a row by a nonzero integer keeps the column
    matroid. `matrix` keeps the rational entries as given.
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
        # Column tuples, so a query gathers only the columns it selects.
        self._columns = tuple(zip(*map(_integer_row, rows)))
        self._rank_cache: dict[int, int] = {}

    def _rank(self, mask: int) -> int:
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        # The selected columns become the rows of the work matrix: the
        # transpose has the same rank.
        columns = self._columns
        work = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            work.append(columns[low.bit_length() - 1])
        r = integer_rank(work)
        self._rank_cache[mask] = r
        return r

    def params(self) -> dict:
        return {
            "rows": [[str(v) for v in row] for row in self.matrix],
        }


def _entry(v: Fraction | int | str) -> Fraction | int:
    """A matrix entry as an exact rational. Integer strings skip the
    `Fraction` parser: every string `int` accepts, `Fraction` accepts with
    the same value. Others fall back to `Fraction`, errors included."""
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    return Fraction(v)


def _integer_row(row: Sequence[Fraction | int]) -> list[int]:
    """`row` times the lcm of its denominators."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def integer_rank(rows: list[Sequence[int]]) -> int:
    """Rank of an integer matrix given as a list of equal-length rows.

    The list is consumed; the rows themselves are only read. Bareiss's
    fraction-free elimination (1968): after a pivot step every entry left
    below it is a minor of the input, so dividing by the previous pivot is
    exact. A remainder would mean a wrong rank, so it raises
    ArithmeticError instead.
    """
    rank = 0
    prev = 1
    # `rows` holds the rows not yet used as pivots, each cut down to the
    # columns not yet eliminated.
    while rows and rows[0]:
        for i, row in enumerate(rows):
            if row[0]:
                break
        else:
            rows = [row[1:] for row in rows]
            continue
        pivot = rows.pop(i)
        rank += 1
        p = pivot[0]
        tail = pivot[1:]
        tail_sum = sum(tail)
        reduced = []
        for row in rows:
            a = row[0]
            rest = row[1:]
            new = [(x * p - y * a) // prev for x, y in zip(rest, tail)]
            # Floor remainders all have the sign of `prev`, so every entry
            # divided exactly iff the row sum did.
            if sum(new) * prev != p * sum(rest) - a * tail_sum:
                raise ArithmeticError("inexact fraction-free elimination step")
            reduced.append(new)
        rows = reduced
        prev = p
    return rank


class ExplicitMatroid(Matroid):
    """An independence family given extensionally (any small matroid).

    Accepts the full family or just its maximal members; stores the bases and
    answers rank queries as max_B |B ∩ X| with memoization. Whether the input
    actually is a matroid is checked by `validate`, not the constructor.
    """

    kind = "explicit"

    def __init__(self, n: int, family: Sequence[int]):
        super().__init__(n)
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
        r = max((popcount(mask & b) for b in self.bases), default=0)
        self._rank_cache[mask] = r
        return r

    def params(self) -> dict:
        return {"n": self.n, "family": [elements_of(f) for f in sorted(self.family)]}


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
                        False, "downward-closure", (f, f ^ bit(e)),
                        "family member has a missing subset",
                    )
        for a in sorted(fam):
            for b in sorted(fam):
                if popcount(a) < popcount(b):
                    if not any(a | bit(e) in fam for e in iter_bits(b & ~a)):
                        return ValidationReport(
                            False, "exchange", (a, b),
                            "no element of the larger set extends the smaller",
                        )
        # With closure+exchange verified, basis-derived rank must match the
        # family: every family member is independent.
        for f in sorted(fam):
            if m.rank(f) != popcount(f):
                return ValidationReport(
                    False, "family-rank", (f,),
                    "family member not independent under basis-derived rank",
                )

    if m.rank(0) != 0:
        return ValidationReport(False, "empty-rank", (0,), f"r(empty) = {m.rank(0)}")

    def unit_monotone_at(x: int, e: int) -> ValidationReport | None:
        r0, r1 = m.rank(x), m.rank(x | bit(e))
        if not r0 <= r1 <= r0 + 1:
            return ValidationReport(
                False, "unit-monotone", (x, x | bit(e)),
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
                False, "submodular", (x, y),
                "r(X)+r(Y) < r(X|Y)+r(X&Y)",
            )

    for e in range(n):
        if m.rank(bit(e)) != 1:
            return ValidationReport(
                False, "loopless", (bit(e),), f"element {e} is a loop"
            )

    return ValidationReport(True)

