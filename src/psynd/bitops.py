"""Bit-parallel kernels on Python big integers.

A mask of width ``w`` models membership on ``w`` consecutive integers,
bit ``i`` being the ``i``-th position counted from the low end.  All
kernels here are pure functions of plain ints so they stay trivially
thread-safe and easy to oracle against naive set code.

A bit matrix is a list of masks of one width.  ``transpose`` turns it into
the masks of its other axis.  A ``GridSet`` keeps its columns, the axis
its kernels work along, so the transpose serves only where rows come in
or go out (``GridSet(box, rows)`` and its ``rows`` view).  Rows of at most
8 bits are read as bytes, one column per byte table.  A wider matrix is
cut into square tiles, each tile is packed into one int, and its
off-diagonal blocks are swapped in log2 rounds (the recursive block swap
of Warren, *Hacker's Delight*, section 7-3).  No Python step runs per
cell.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterator, List, Optional, Sequence, Tuple


def mask_of(width: int) -> int:
    return (1 << width) - 1


def _swap_mask(side: int, j: int) -> int:
    """Bits (r, c) of a side x side tile with bit j clear in r and set in c."""
    if j >= 8:
        row = (bytes(j // 8) + b"\xff" * (j // 8)) * (side // (2 * j))
    else:
        row = bytes([{1: 0xAA, 2: 0xCC, 4: 0xF0}[j]]) * (side // 8)
    return int.from_bytes((row * j + bytes(side // 8 * j)) * (side // (2 * j)), "little")


def transpose(rows: Sequence[int], width: int) -> List[int]:
    """Column masks of a bit matrix: bit i of ``cols[j]`` is bit j of ``rows[i]``.

    ``rows`` are masks below ``2**width``.  Rows of at most 8 bits are one
    byte each, and column j is read off all of them at once, in C: the bytes
    translated by ``_BIT_TABLES[j]`` to their bit j are its selectors.  A
    1 x 100001 box took 1.9 ms so, against 96 ms by tiles, on a 2-vCPU VM.
    Wider rows go to ``_transpose_tiles``.
    """
    if width <= 8:
        raw = bytes(rows)
        return [from_selectors(raw.translate(table)) for table in _BIT_TABLES[:width]]
    return _transpose_tiles(rows, width)


def _transpose_tiles(rows: Sequence[int], width: int) -> List[int]:
    """``transpose`` of any width, by tiles.  The matrix is cut into S x S
    tiles, S the power of two (at least 8) at or above its shorter side, so
    one side is a single tile.  Tile row r holds bits r*S .. r*S+S-1 of
    one int; round j swaps the elements (r, c) with bit j clear in r and
    set in c with (r+j, c-j), which lie j*(S-1) bits above them.  After
    the rounds j = S/2, ..., 1 every bit of r has traded places with the
    same bit of c.
    """
    nrows = len(rows)
    if not nrows or not width:
        return [0] * width
    side = max(8, 1 << (min(nrows, width) - 1).bit_length())
    step = side // 8  # bytes per tile row
    row_tiles, col_tiles = -(-nrows // side), -(-width // side)
    stride = col_tiles * step
    raw = b"".join(r.to_bytes(stride, "little") for r in rows)
    raw += bytes(stride * (row_tiles * side - nrows))
    swaps = []
    j = side // 2
    while j:
        swaps.append((j * (side - 1), _swap_mask(side, j)))
        j //= 2
    parts: List[List[bytes]] = [[] for _ in range(width)]
    for a in range(row_tiles):
        for b in range(col_tiles):
            first = a * side * stride + b * step
            x = int.from_bytes(
                b"".join(raw[first + r * stride : first + r * stride + step] for r in range(side)),
                "little",
            )
            for d, m in swaps:
                t = (x ^ (x >> d)) & m
                x ^= t ^ (t << d)
            tile = x.to_bytes(side * step, "little")
            for c in range(min(side, width - b * side)):
                parts[b * side + c].append(tile[c * step : (c + 1) * step])
    return [int.from_bytes(b"".join(p), "little") for p in parts]


def reverse_bits(x: int, width: int) -> int:
    """Bit i of ``x < 2**width`` moved to bit ``width - 1 - i``, in C: the bytes of ``x``
    in the other order, each through ``_REVERSED``, less the padding above ``width``."""
    raw = x.to_bytes(-(-width // 8), "little").translate(_REVERSED)
    return int.from_bytes(raw, "big") >> -width % 8


def tile_mask(x: int, period: int, width: int) -> int:
    """The ``width``-bit mask whose bit i is bit ``i % period`` of x.  Its width is
    reserved first, so a mask no memory holds fails at once, not after doubling."""
    full = mask_of(width)
    x &= mask_of(min(period, width))
    while period < width:
        x |= x << period
        period *= 2
    return x & full


def smear_down(x: int, b: int) -> int:
    """Union of right-shifts of ``x`` by 0..b (dilation by the shift set [0,b]).

    Doubling ladder: if ``y`` covers shifts 0..c then ``y | (y >> s)``
    covers 0..c+s for any s <= c+1.
    """
    if b < 0:
        raise ValueError("negative shift bound")
    y = x
    covered = 0
    while covered < b:
        step = min(covered + 1, b - covered)
        y |= y >> step
        covered += step
    return y


def and_reduce(x: int, k: int) -> int:
    """AND of right-shifts of ``x`` by 0..k-1.

    Bit ``i`` of the result is set iff bits i..i+k-1 of ``x`` are all set,
    i.e. a run of length ``k`` starts at ``i``.
    """
    if k < 1:
        raise ValueError("run length must be >= 1")
    y = x
    covered = 1
    while 2 * covered <= k:
        y &= y >> covered
        covered *= 2
    if covered < k:
        # the runs of ``covered`` at i and at i + k - covered overlap
        y &= y >> (k - covered)
    return y


def lowest_set_bit(x: int) -> Optional[int]:
    if x == 0:
        return None
    return (x & -x).bit_length() - 1


def longest_run(x: int, width: int) -> Tuple[int, Optional[int]]:
    """Length and lowest start of the longest run of set bits in ``x``.

    ``width`` bounds the run length from above.  Binary search on the
    length, each probe reducing the starts of the last run found, so
    the probes shorten as the search narrows.  Returns (0, None) when
    ``x`` is zero.
    """
    if x == 0:
        return 0, None
    lo, hi, starts = 1, width, x  # starts: and_reduce(x, lo)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        longer = and_reduce(starts, mid - lo + 1)
        if longer:
            lo, starts = mid, longer
        else:
            hi = mid - 1
    return lo, lowest_set_bit(starts)


def has_run(x: int, k: int) -> Optional[int]:
    """Lowest start of a run of ``k`` set bits, or None."""
    return lowest_set_bit(and_reduce(x, k))


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_TABLES = [bytes((b >> j) & 1 for b in range(256)) for j in range(8)]  # byte -> its bit j
_SELECTOR_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # byte -> its bits reversed


def bit_selectors(x: int) -> bytes:
    """One byte per bit of ``x >= 0`` from the low end: 1 if set, else 0.

    The bytes end at the top set bit (one zero byte for ``x == 0``).
    ``itertools.compress`` over them picks the members of a mask from any
    sequence indexed by bit position.
    """
    return bin(x)[:1:-1].encode().translate(_BIT_BYTES)


def from_selectors(sel: bytes) -> int:
    """Inverse of :func:`bit_selectors`: bit i is byte i of ``sel`` (0 or 1),
    as binary digits read backwards by ``int``, in C (base 2 is exempt from
    ``int_max_str_digits``).  Empty ``sel`` gives 0."""
    return int(sel.translate(_SELECTOR_DIGITS)[::-1] or b"0", 2)


def iter_bits(x: int, start: int = 0) -> Iterator[int]:
    """Set-bit positions of ``x >= 0`` in increasing order, bit 0 at ``start``.

    ``compress`` over :func:`bit_selectors`: the mask becomes one byte per
    bit in C (``bin``, a reversing slice, ``translate``), and no
    interpreted step runs per bit.
    """
    return compress(count(start), bit_selectors(x))


def popcount(x: int) -> int:
    return x.bit_count()
