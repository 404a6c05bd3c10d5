"""The minimum-rank oracle: the only window the solvers get onto a pair of
matroids.

``rmin(X) = min(r1(X), r2(X))`` is all a caller learns; which of the two
matroids attains the minimum is deliberately hidden. A built-in counter
records how many `rmin` queries have been issued, so tests and benchmarks
can hold solvers to their query budgets.
"""

from __future__ import annotations

from .bitset import full_mask
from .core import Matroid


class MinRankOracle:
    """min(r1, r2) with a query ledger.

    Solver code must treat instances as opaque: the underlying matroids are
    reachable only through `rmin`. (Verification code may construct its own
    oracle from known matroids, but never peeks through one handed to it.)
    """

    def __init__(self, m1: Matroid, m2: Matroid):
        if m1.n != m2.n:
            raise ValueError("matroids disagree on ground set size")
        self._m1 = m1
        self._m2 = m2
        self.n = m1.n
        self.ground = full_mask(m1.n)
        self._queries = 0

    def rmin(self, mask: int) -> int:
        """min(r1(X), r2(X)); every call increments the query counter."""
        if mask & ~self.ground:
            raise ValueError("mask outside ground set")
        self._queries += 1
        return min(self._m1.rank(mask), self._m2.rank(mask))

    @property
    def query_count(self) -> int:
        return self._queries


class RestrictedOracle:
    """View of an oracle on a subset of the ground set.

    Element ids are unchanged; queries touching elements outside `ground`
    are rejected. Restricting both matroids to a subset commutes with taking
    the minimum rank, so this wrapper needs no access to the matroids.
    Queries are counted by the wrapped oracle.
    """

    def __init__(self, inner: Oracle, ground: int):
        if ground & ~inner.ground:
            raise ValueError("restriction exceeds the inner oracle's ground set")
        self._inner = inner
        self.n = inner.n
        self.ground = ground

    def rmin(self, mask: int) -> int:
        if mask & ~self.ground:
            raise ValueError("mask outside the restricted ground set")
        return self._inner.rmin(mask)

    @property
    def query_count(self) -> int:
        return self._inner.query_count


# What the solvers accept: either oracle; both carry `n` and `ground`.
Oracle = MinRankOracle | RestrictedOracle
