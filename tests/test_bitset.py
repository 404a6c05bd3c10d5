"""Bitmask helpers."""

from __future__ import annotations

from minrank import (
    bit,
    elements_of,
    format_set,
    full_mask,
    iter_bits,
    mask_of,
    parse_set,
    popcount,
)
from minrank.bitset import small_subsets, subsets_of


def test_bit_and_mask_roundtrip():
    assert bit(0) == 1
    assert bit(5) == 32
    assert mask_of([0, 3, 5]) == 0b101001
    assert elements_of(0b101001) == [0, 3, 5]
    assert list(iter_bits(0b101001)) == [0, 3, 5]


def test_popcount_and_full_mask():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert full_mask(0) == 0
    assert full_mask(4) == 0b1111
    assert popcount(full_mask(64)) == 64


def test_subsets_enumeration():
    assert list(subsets_of(0b101)) == [0b101, 0b100, 0b001, 0]
    mask = 0b1101_0110
    assert list(subsets_of(mask)) == [
        m for m in range(mask, -1, -1) if m & ~mask == 0
    ]
    assert small_subsets(0b111, 2) == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    assert small_subsets(0b1011, 3)[-1] == 0b1011
    assert small_subsets(0b111, 0) == []


def test_format_and_parse_set():
    assert format_set(0) == "{}"
    assert format_set(0b1001) == "{0,3}"
    assert parse_set("{0,3}") == 0b1001
    assert parse_set("0,3") == 0b1001
    assert parse_set("{}") == 0
    assert parse_set(format_set(0b10110)) == 0b10110
