"""Shared builders for the test suite."""

from __future__ import annotations

from fractions import Fraction

from minrank import (
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    mask_of,
)


def crossed_pair() -> tuple[PartitionMatroid, PartitionMatroid]:
    """Rows {0,1},{2,3} crossed with columns {0,2},{1,3}, every capacity 1."""
    m1 = PartitionMatroid(4, (mask_of((0, 1)), mask_of((2, 3))), (1, 1))
    m2 = PartitionMatroid(4, (mask_of((0, 2)), mask_of((1, 3))), (1, 1))
    return m1, m2


def lift_by_two_pair() -> tuple[PartitionMatroid, PartitionMatroid]:
    """At the empty set every element is flat: 0 and 1 are loops of the
    second matroid, 2 and 3 of the first, so {0,1,2,3} has min-rank 2."""
    m1 = PartitionMatroid(4, (mask_of((0,)), mask_of((1,)), mask_of((2, 3))), (1, 1, 0))
    m2 = PartitionMatroid(4, (mask_of((0, 1)), mask_of((2,)), mask_of((3,))), (0, 1, 1))
    return m1, m2


def triangle() -> GraphicMatroid:
    """Graphic matroid of the triangle; edges 0=(0,1), 1=(1,2), 2=(0,2)."""
    return GraphicMatroid(3, ((0, 1), (1, 2), (0, 2)))


def small_zoo() -> list:
    """A spread of tiny matroids across every kind, all loopless."""
    from minrank import ExplicitMatroid, LinearMatroid

    u13 = UniformMatroid(1, 3)
    family = [m for m in range(8) if u13.is_independent(m)]
    return [
        UniformMatroid(2, 4),
        UniformMatroid(1, 3),
        PartitionMatroid(4, (mask_of((0, 1)), mask_of((2, 3))), (1, 1)),
        PartitionMatroid(3, (mask_of((0, 1, 2)),), (2,)),
        triangle(),
        LinearMatroid([[1, 0, 1, 1], [0, 1, 1, 2]]),
        ExplicitMatroid(3, family),
    ]


def fixture_weights() -> tuple[Fraction, ...]:
    """Weights pairing with crossed_pair: one heavy, two middling, one light."""
    return tuple(Fraction(x) for x in (5, 4, 4, 1))


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Reference rank by Gaussian elimination over Fractions (destructive)."""
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / inv
                ri, rp = rows[i], rows[rank]
                for j in range(col, ncols):
                    ri[j] -= factor * rp[j]
        rank += 1
        if rank == len(rows):
            break
    return rank
