"""Bitset helpers on arbitrary-precision ints.

Bit i of a mask stands for element index i; all kernels in this package
reduce to AND/ANDNOT/popcount on these masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


def permute_bits(mask: int, perm) -> int:
    """Image of a bitset under an index permutation (perm as a sequence)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _digit_shift(size: int, weight: int, length: int, step: int) -> tuple[int, int, int, int]:
    """(left, high, right, low) such that ((m << left) & high) | ((m >> right) & low)
    adds step mod length to the digit p // weight % length of every bit p of a mask
    m on 0..size-1, leaving the other digits; weight·length must divide size."""
    span = weight * length
    repeat = full_mask(size) // full_mask(span)  # bit 0 of every digit block
    high = (full_mask((length - step) * weight) << step * weight) * repeat
    low = full_mask(step * weight) * repeat
    return step * weight, high, (length - step) * weight, low
