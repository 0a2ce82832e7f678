"""Bitset helpers on arbitrary-precision ints.

Bit i of a mask stands for element index i; all kernels in this package
reduce to AND/ANDNOT/popcount on these masks.

iter_bits peels the lowest set bit off masks narrower than _SCAN_WIDTH, a
pass over the whole int per bit, and writes wider masks out once in binary
to find each 1 with str.rfind, linear in the width. Timed at densities 0.02
to 1, peeling is faster up to a few words (twice as fast at 8-16 bits) and
the two are within 20% from 512 bits; the cut is at 1 024 bits, where the
scan draws level, and at 10 000 bits the scan is 4 times faster.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator

from .errors import _check_index, _check_mask


_SCAN_WIDTH = 1024


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order: peeled off one at a time
    below _SCAN_WIDTH bits, where that is quicker, and scanned from there on."""
    if mask.bit_length() < _SCAN_WIDTH:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    text = format(mask, "b")
    top = len(text) - 1
    i = text.rfind("1")
    while i >= 0:
        yield top - i
        i = text.rfind("1", 0, i)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _checked_mask(members: Iterable[int] | int, name: str, side: str, universe: int) -> int:
    """A member set, given as a mask or as indices, as a mask: a bad mask or
    index, a bool included, is a ValueError that names it and the universe
    of the side."""
    if isinstance(members, int):
        _check_mask(members, name, side, universe)
        return members
    members = list(members)
    for index in members:
        _check_index(index, f"{name} entry", side, universe)
    return mask_of(members)


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


def _digit_shift(starts: int, weight: int, length: int, step: int) -> tuple[int, int, int, int]:
    """(left, high, right, low) such that ((m << left) & high) | ((m >> right) & low)
    adds step mod length to the digit p // weight % length of every bit p of a mask
    m on 0..size-1, leaving the other digits, for starts the mask of the
    multiples of weight·length below size (weight·length must divide size).
    Every period holds low = its first step·weight bits and high = the rest,
    so each is a difference of two shifted copies of starts."""
    left = step * weight
    moved = starts << left
    return left, (starts << weight * length) - moved, (length - step) * weight, moved - starts


def _negate_digit(mask: int, size: int, weight: int, length: int) -> int:
    """The mask with the digit p // weight % length of every bit p of it sent to
    minus itself mod length, the other digits kept; weight·length must divide
    size. Written out in binary, digit d of a block of length·weight characters
    is chunk length-1-d, so the block's chunks 0..length-2 are reversed in
    order and its last chunk stays: for weight 1, one reversed slice."""
    if length <= 2:
        return mask
    text = format(mask, f"0{size}b")
    block = length * weight
    last = block - weight
    if weight == 1:
        parts = (text[s:s + last][::-1] + text[s + last] for s in range(0, size, block))
    else:
        order = [*range(last - weight, -1, -weight), last]
        parts = (text[s + c:s + c + weight] for s in range(0, size, block) for c in order)
    return int("".join(parts), 2)


def _column_permuter(rows, size: int):
    """(stride, permute): permute(source) is the row matrix with column source[y]
    moved to column y, for a permutation source of 0..size-1; the rows lie in
    0..size-1. The matrix comes as row-major little-endian bytes, row i in
    bytes i·stride..i·stride+stride-1 and read back by int.from_bytes it is
    permute_bits(rows[i], perm) for perm the inverse of source. stride is the
    padded tile width in bytes; the columns from size on are 0.

    The row matrix is cut into t×t tiles, t the least power of two >= 8 and >=
    the smaller of the row count and size: bands of t rows, blocks of t
    columns. A tile is packed into one int, its row i in bits i·t..i·t+t-1,
    and transposed here, once, so that every column of a band is a
    byte-aligned t-bit chunk. Each call lists a band's chunks in the order
    source gives, transposes the tiles back and interleaves their rows.
    """
    t = _tile_width(len(rows), size)
    width = t // 8  # bytes per tile row
    blocks = -(-size // t)
    cuts = [slice(i * width, (i + 1) * width) for i in range(t)]
    padding = bytes((blocks * t - size) * width)
    swaps = _transpose_swaps(t)
    bands = []
    for start in range(0, len(rows), t):
        band = [row.to_bytes(blocks * width, "little") for row in rows[start:start + t]]
        chunks: list[bytes] = []
        for k in range(blocks):
            tile = b"".join(map(bytes.__getitem__, band, repeat(slice(k * width, (k + 1) * width))))
            columns = _transpose(int.from_bytes(tile, "little"), swaps).to_bytes(t * width, "little")
            chunks += map(columns.__getitem__, cuts)
        bands.append((len(band), chunks))

    def permute(source) -> bytes:
        out: list[bytes] = []
        for count, chunks in bands:
            moved = b"".join(map(chunks.__getitem__, source)) + padding
            tiles = [
                _transpose(int.from_bytes(moved[k * t * width:(k + 1) * t * width], "little"), swaps)
                .to_bytes(t * width, "little")
                for k in range(blocks)
            ]
            if blocks == 1:
                out.append(tiles[0][:count * width])
            else:
                out += chain.from_iterable(zip(*(map(tile.__getitem__, cuts[:count]) for tile in tiles)))
        return b"".join(out)

    return blocks * width, permute


def _tile_width(count: int, size: int) -> int:
    """The tile width t of _column_permuter for count rows of size columns:
    its stride is ceil(size / t)·t / 8 bytes."""
    return max(8, 1 << (min(count, size) - 1).bit_length())


def _transpose_swaps(w: int) -> list[tuple[int, int]]:
    """(delta, mask) of the log2(w) masked delta swaps that transpose a w×w bit
    matrix, bit i·w + j holding entry (i, j), w a power of two (Hacker's
    Delight, §7-3): the swap for bit s exchanges entries (i, j) and
    (i + s, j - s) where i lacks s and j has it."""
    swaps = []
    s = w >> 1
    while s:
        columns = _tile(full_mask(s) << s, 2 * s, w)  # the j that have s
        rows = _tile(columns, w, s * w)  # in the first s of every 2s rows
        swaps.append((s * (w - 1), _tile(rows, 2 * s * w, w * w)))
        s >>= 1
    return swaps


def _transpose(matrix: int, swaps: list[tuple[int, int]]) -> int:
    """The transpose of a bit matrix, by its _transpose_swaps."""
    for delta, mask in swaps:
        t = (matrix ^ matrix >> delta) & mask
        matrix ^= t | t << delta
    return matrix


def _tile(pattern: int, period: int, size: int) -> int:
    """The period-bit pattern repeated over at least size bits: over exactly size
    bits when size / period is a power of two."""
    while period < size:
        pattern |= pattern << period
        period *= 2
    return pattern
