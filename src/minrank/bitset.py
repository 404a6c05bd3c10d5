"""Subset-of-[0,n) bitmask helpers.

Ground sets are capped at 64 elements, so plain Python ints serve as exact
bitsets: union/intersection/difference are ``|``, ``&``, ``& ~``; symmetric
difference is ``^``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

MAX_GROUND = 64


def bit(i: int) -> int:
    return 1 << i


def full_mask(n: int) -> int:
    return (1 << n) - 1


def popcount(mask: int) -> int:
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set element ids of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> list[int]:
    return list(iter_bits(mask))


def subsets_of(mask: int) -> Iterator[int]:
    """All submasks of `mask`, including 0 and `mask` itself, in decreasing
    order as integers.

    The order is part of the contract: the bounded-circuit solver tries its
    guesses in it and keeps the first certificate that verifies.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def small_subsets(mask: int, k: int) -> list[int]:
    """Nonempty submasks of at most k elements, by size and then by
    ascending element tuples."""
    elems = elements_of(mask)
    return [mask_of(c) for r in range(1, k + 1) for c in combinations(elems, r)]


def format_set(mask: int) -> str:
    """Render a mask as '{0,3,5}' with ascending ids (deterministic)."""
    return "{" + ",".join(str(e) for e in iter_bits(mask)) + "}"


def parse_set(text: str) -> int:
    """Inverse of format_set; also accepts bare comma lists like '0,3,5'."""
    body = text.strip().strip("{}").strip()
    if not body:
        return 0
    return mask_of(int(tok) for tok in body.split(","))
