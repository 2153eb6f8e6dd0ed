"""Finite-window set structure: syndetic, thick, and piecewise-syndetic certificates.

A :class:`WindowSet` models an integer set restricted to an interval
``[lo, hi]``; a :class:`GridSet` models a planar set restricted to a box.
Detection ops return the certificates of :mod:`psynd.check`, whose
covering scans, independent of the detection kernels, re-verify them
against the raw set; all piecewise-syndetic claims are made only on the
shift-shrunk interior of the window so that a finite truncation never
manufactures a witness the underlying unbounded set would not have.

Shift sets are restricted to intervals ``[0, b]`` (boxes in 2D).  This
loses no witnesses: a union of shifts over any finite set F is contained
in the union over the interval ``[0, max F]``, so interval search
dominates.  It also turns detection into dilation + longest-run
(largest-rectangle) kernels on bitmasks.

All objects are immutable after construction and every operation is a
pure function, safe to call concurrently.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import reduce
from itertools import compress, product, repeat, starmap
from operator import or_
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import bitops
from .check import PwsCert, PwsCert2D, Syndetic2DCert, Syndetic2DRefutation, SyndeticCert
from .check import SyndeticRefutation, ThickCert
from .errors import BadBoundError, ConfigError, EmptySetError, NoRowError, take

_BITMAP_MAGIC = b"PSYN"
_VERSION_1D = 1
_VERSION_2D = 2


def _read_bitmap(raw: bytes, fmt: str, version: int) -> Tuple[list, bytes]:
    """Header fields after the version, and the body, of a ``PSYN`` bitmap;
    ValueError on a bad magic, a short header or another version."""
    if raw[:4] != _BITMAP_MAGIC:
        raise ValueError("bad magic")
    size = 4 + struct.calcsize(fmt)
    if len(raw) < size:
        raise ValueError(f"bitmap header needs {size} bytes, got {len(raw)}")
    got, *header = struct.unpack_from(fmt, raw, 4)
    if got != version:
        raise ValueError(f"unsupported bitmap version {got}")
    return header, raw[size:]


class WindowSet:
    """Immutable subset of the integer interval ``[lo, hi]``.

    Membership is bit-indexed: bit ``i`` of ``mask`` corresponds to the
    integer ``lo + i``.  Queries are total on the window and False
    outside it.
    """

    __slots__ = ("lo", "hi", "mask")

    def __init__(self, lo: int, hi: int, mask: int = 0):
        if lo > hi:
            raise ValueError(f"empty window: lo={lo} > hi={hi}")
        width = hi - lo + 1
        if mask < 0 or mask >> width:
            raise ValueError("mask has bits outside the window")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("WindowSet is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_members(cls, lo: int, hi: int, members: Iterable[int]) -> "WindowSet":
        sel = bytearray(max(0, hi - lo + 1))
        for m in members:
            if not lo <= m <= hi:
                raise ValueError(f"member {m} outside window [{lo},{hi}]")
            sel[m - lo] = 1
        return cls(lo, hi, bitops.from_selectors(sel))

    @classmethod
    def from_predicate(cls, lo: int, hi: int, pred: Callable[[int], bool]) -> "WindowSet":
        return cls(lo, hi, bitops.from_selectors(bytes(map(bool, map(pred, range(lo, hi + 1))))))

    @classmethod
    def full(cls, lo: int, hi: int) -> "WindowSet":
        return cls(lo, hi, bitops.mask_of(hi - lo + 1))

    @classmethod
    def empty(cls, lo: int, hi: int) -> "WindowSet":
        return cls(lo, hi, 0)

    # -- basic queries -----------------------------------------------

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, n: int) -> bool:
        if not self.lo <= n <= self.hi:
            return False
        return bool(self.mask >> (n - self.lo) & 1)

    def members(self) -> Iterator[int]:
        return bitops.iter_bits(self.mask, self.lo)

    def count(self) -> int:
        return bitops.popcount(self.mask)

    def is_empty(self) -> bool:
        return self.mask == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WindowSet)
            and self.lo == other.lo
            and self.hi == other.hi
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.mask))

    def __repr__(self) -> str:
        return f"WindowSet([{self.lo},{self.hi}], {self.count()} members)"

    # -- translation and restriction ---------------------------------

    def shift(self, t: int) -> "WindowSet":
        """Translate the set and its window by ``t``."""
        return WindowSet(self.lo + t, self.hi + t, self.mask)

    def restrict(self, lo: int, hi: int) -> "WindowSet":
        """Restriction to a subwindow of the current window."""
        if lo < self.lo or hi > self.hi:
            raise ValueError("restriction exceeds window")
        sub = (self.mask >> (lo - self.lo)) & bitops.mask_of(hi - lo + 1)
        return WindowSet(lo, hi, sub)

    # -- serialization -----------------------------------------------

    def to_json_obj(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "members": list(self.members())}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WindowSet":
        lo, hi = take(obj, "lo", int), take(obj, "hi", int)
        return cls.from_members(lo, hi, take(obj, "members", [int]))

    def to_json(self) -> str:
        """Compact JSON of :meth:`to_json_obj`, keys sorted, written from the mask."""
        members = ",".join(map(str, self.members()))
        return f'{{"hi":{self.hi},"lo":{self.lo},"members":[{members}]}}'

    def to_csv(self) -> str:
        """One member per line, in increasing order."""
        return "".join(map("{}\n".format, self.members()))

    def to_bitmap_bytes(self) -> bytes:
        """Raw bitmap: magic, version u16, lo/hi i64, 64-bit LE words."""
        words = (self.width + 63) // 64
        head = _BITMAP_MAGIC + struct.pack("<Hqq", _VERSION_1D, self.lo, self.hi)
        return head + self.mask.to_bytes(words * 8, "little")

    @classmethod
    def from_bitmap_bytes(cls, raw: bytes) -> "WindowSet":
        """Inverse of :meth:`to_bitmap_bytes`; ValueError on a malformed header
        or a body of the wrong length, raised before any mask is built."""
        (lo, hi), body = _read_bitmap(raw, "<Hqq", _VERSION_1D)
        width = hi - lo + 1
        if width < 1 or len(body) != (width + 63) // 64 * 8:
            raise ValueError(f"bitmap body of {len(body)} bytes for the window [{lo}, {hi}]")
        return cls(lo, hi, int.from_bytes(body, "little") & bitops.mask_of(width))


class GridSet:
    """Immutable subset of the integer box ``[mlo,mhi] x [nlo,nhi]``.

    Stored by columns: ``cols[n - nlo]`` is the bitmask over the m-range of
    column ``n``.  That is how the planar sets are built (for a fixed n,
    the m with every m + p_i(n) in S) and searched.  ``GridSet(box, rows)``
    takes row masks over the n-range, and :attr:`rows` gives them back:
    these are the only transposes, and only row-major output reads rows.
    """

    __slots__ = ("mlo", "mhi", "nlo", "nhi", "cols")

    def __init__(self, box: Tuple[int, int, int, int], rows: Sequence[int]):
        self._fill(box, rows, "row")

    @classmethod
    def _from_cols(cls, box: Tuple[int, int, int, int], cols: Sequence[int]) -> "GridSet":
        """The set whose column n is ``cols[n - nlo]``, a mask over the m-range."""
        e = object.__new__(cls)
        e._fill(box, cols, "column")
        return e

    def _fill(self, box: Tuple[int, int, int, int], masks: Sequence[int], kind: str) -> None:
        """Store the box and its columns, given one mask per row (over the
        n-range, then transposed) or per column; ValueError on a bad shape."""
        mlo, mhi, nlo, nhi = box
        if mlo > mhi or nlo > nhi:
            raise ValueError("empty box")
        count, width = mhi - mlo + 1, nhi - nlo + 1
        if kind == "column":
            count, width = width, count
        if len(masks) != count:
            raise ValueError(f"{kind} count does not match box")
        if any(x < 0 or x >> width for x in masks):
            raise ValueError(f"{kind} mask outside box")
        cols = bitops.transpose(masks, width) if kind == "row" else masks
        for name, value in zip(self.__slots__, (*box, tuple(cols))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GridSet is immutable")

    @classmethod
    def from_members(
        cls, box: Tuple[int, int, int, int], members: Iterable[Tuple[int, int]]
    ) -> "GridSet":
        """The set of ``members``, set one selector byte per cell, column by column."""
        mlo, mhi, nlo, nhi = box
        h = mhi - mlo + 1
        sel = bytearray(max(0, h * (nhi - nlo + 1)))
        for m, n in members:
            if not (mlo <= m <= mhi and nlo <= n <= nhi):
                raise ValueError(f"member {(m, n)} outside box")
            sel[(n - nlo) * h + m - mlo] = 1
        return cls._from_cols(box, [bitops.from_selectors(sel[j * h : j * h + h])
                                    for j in range(nhi - nlo + 1)])

    @classmethod
    def from_predicate(
        cls, box: Tuple[int, int, int, int], pred: Callable[[int, int], bool]
    ) -> "GridSet":
        """The set of cells where ``pred`` is true, called in row-major order."""
        mlo, mhi, nlo, nhi = box
        sel = bytes(map(bool, starmap(pred, product(range(mlo, mhi + 1), range(nlo, nhi + 1)))))
        w = nhi - nlo + 1
        return cls(box, [bitops.from_selectors(sel[i * w : i * w + w]) for i in range(mhi - mlo + 1)])

    @classmethod
    def full(cls, box: Tuple[int, int, int, int]) -> "GridSet":
        mlo, mhi, nlo, nhi = box
        return cls._from_cols(box, [bitops.mask_of(mhi - mlo + 1)] * (nhi - nlo + 1))

    @classmethod
    def empty(cls, box: Tuple[int, int, int, int]) -> "GridSet":
        return cls._from_cols(box, [0] * (box[3] - box[2] + 1))

    @property
    def box(self) -> Tuple[int, int, int, int]:
        return (self.mlo, self.mhi, self.nlo, self.nhi)

    @property
    def n_width(self) -> int:
        return self.nhi - self.nlo + 1

    @property
    def m_width(self) -> int:
        return self.mhi - self.mlo + 1

    @property
    def rows(self) -> Tuple[int, ...]:
        """``rows[m - mlo]``, the mask over the n-range of row m: one transpose
        of the whole grid per read, so read it once."""
        return tuple(bitops.transpose(self.cols, self.m_width))

    def __contains__(self, point: Tuple[int, int]) -> bool:
        m, n = point
        if not (self.mlo <= m <= self.mhi and self.nlo <= n <= self.nhi):
            return False
        return bool(self.cols[n - self.nlo] >> (m - self.mlo) & 1)

    def members(self) -> Iterator[Tuple[int, int]]:
        for m, r in zip(range(self.mlo, self.mhi + 1), self.rows):
            if r:
                yield from zip(repeat(m), bitops.iter_bits(r, self.nlo))

    def count(self) -> int:
        return sum(map(bitops.popcount, self.cols))

    def is_empty(self) -> bool:
        return not any(self.cols)

    def intersect(self, other: "GridSet") -> "GridSet":
        if self.box != other.box:
            raise ValueError("box mismatch")
        return GridSet._from_cols(self.box, [a & b for a, b in zip(self.cols, other.cols)])

    def restrict(self, box: Tuple[int, int, int, int]) -> "GridSet":
        """Restriction to a sub-box of the current box."""
        mlo, mhi, nlo, nhi = box
        if mlo < self.mlo or mhi > self.mhi or nlo < self.nlo or nhi > self.nhi:
            raise ValueError("restriction exceeds box")
        keep = bitops.mask_of(mhi - mlo + 1)
        shift = mlo - self.mlo
        cols = self.cols[nlo - self.nlo : nhi - self.nlo + 1]
        return GridSet._from_cols(box, [(c >> shift) & keep for c in cols])

    def n_projection(self) -> WindowSet:
        """{ n : some (m, n) is a member }, as a WindowSet over the n-range."""
        return WindowSet(self.nlo, self.nhi, bitops.from_selectors(bytes(map(bool, self.cols))))

    def __eq__(self, other) -> bool:
        return isinstance(other, GridSet) and (self.box, self.cols) == (other.box, other.cols)

    def __hash__(self) -> int:
        return hash((self.box, self.cols))

    def __repr__(self) -> str:
        return f"GridSet({self.box}, {self.count()} members)"

    def to_json_obj(self) -> dict:
        return {"box": list(self.box), "members": [list(p) for p in self.members()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GridSet":
        box, members = tuple(take(obj, "box", [int], size=4)), take(obj, "members", list)
        try:
            return cls.from_members(box, members)
        except TypeError as exc:  # a member that is not a pair of integers
            raise ConfigError(f"bad members: {exc}") from exc

    def to_json(self) -> str:
        """Compact JSON of :meth:`to_json_obj`, keys sorted, written from the masks.

        Each ``n]`` is formatted once for the box; a row is the ``n]`` of
        its members, picked by its bit selectors and joined by ``,[m,``.
        """
        ends = [f"{n}]" for n in range(self.nlo, self.nhi + 1)]
        rows = ",".join(
            f"[{m}," + f",[{m},".join(compress(ends, bitops.bit_selectors(r)))
            for m, r in zip(range(self.mlo, self.mhi + 1), self.rows)
            if r
        )
        box = ",".join(map(str, self.box))
        return f'{{"box":[{box}],"members":[{rows}]}}'

    def to_csv(self) -> str:
        """One ``m,n`` line per member, in :meth:`members` order, written
        from the masks as :meth:`to_json` is: each ``n`` is formatted once
        for the box, and a row joins its members' ``n`` by ``\\nm,``."""
        ns = list(map(str, range(self.nlo, self.nhi + 1)))
        return "".join(
            f"{m}," + f"\n{m},".join(compress(ns, bitops.bit_selectors(r))) + "\n"
            for m, r in zip(range(self.mlo, self.mhi + 1), self.rows)
            if r
        )

    def to_bitmap_bytes(self) -> bytes:
        words = (self.n_width + 63) // 64
        head = _BITMAP_MAGIC + struct.pack(
            "<Hqqqq", _VERSION_2D, self.mlo, self.mhi, self.nlo, self.nhi
        )
        body = b"".join(r.to_bytes(words * 8, "little") for r in self.rows)
        return head + body

    @classmethod
    def from_bitmap_bytes(cls, raw: bytes) -> "GridSet":
        """Inverse of :meth:`to_bitmap_bytes`; ValueError on a malformed header
        or a body of the wrong length, raised before any row is built."""
        (mlo, mhi, nlo, nhi), body = _read_bitmap(raw, "<Hqqqq", _VERSION_2D)
        stride = (nhi - nlo + 64) // 64 * 8  # bytes per row
        if mlo > mhi or nlo > nhi or len(body) != (mhi - mlo + 1) * stride:
            raise ValueError(f"bitmap body of {len(body)} bytes for the box {(mlo, mhi, nlo, nhi)}")
        w_mask = bitops.mask_of(nhi - nlo + 1)
        rows = [int.from_bytes(body[i : i + stride], "little") & w_mask
                for i in range(0, len(body), stride)]
        return cls((mlo, mhi, nlo, nhi), rows)


@dataclass(frozen=True)
class GapSummary:
    """Interior max gap plus boundary lead-in/tail-out gap lower bounds.

    The boundary distances are only lower bounds on gaps of any
    unbounded extension of the windowed set, so they are reported
    separately rather than folded into ``max_gap``.
    """

    max_gap: int
    lead_in: int
    tail_out: int


# ---------------------------------------------------------------------------
# 1D operations
# ---------------------------------------------------------------------------


def gap_summary(s: WindowSet) -> GapSummary:
    if s.is_empty():
        raise EmptySetError("gap of empty set")
    first = bitops.lowest_set_bit(s.mask)
    last = s.mask.bit_length() - 1
    inner = s.mask >> first
    # longest run of zeros strictly between members = longest run of ones
    # in the complement of the span
    span_width = last - first + 1
    holes = (inner ^ bitops.mask_of(span_width)) & bitops.mask_of(span_width)
    zrun, _ = bitops.longest_run(holes, span_width)
    return GapSummary(max_gap=zrun + 1 if zrun else 1 if s.count() > 1 else 0,
                      lead_in=first, tail_out=s.width - 1 - last)


def max_gap(s: WindowSet) -> int:
    """Maximum difference between consecutive members (0 for a singleton)."""
    g = gap_summary(s)
    return g.max_gap


def syndetic_certificate(
    s: WindowSet, n: int
) -> Union[SyndeticCert, SyndeticRefutation]:
    """Certify that every length-``n`` subinterval of the N-shrunk interior meets ``s``.

    The checked interval is ``[lo+n, hi-n]``; windows touching the
    boundary are excluded because the underlying unbounded set is
    unknown there.
    """
    if n < 1:
        raise BadBoundError(f"N must be >= 1, got {n}")
    lo, hi = s.lo + n, s.hi - n
    if lo > hi or hi - lo + 1 < n:
        # interior too small to contain any length-n window: vacuous cert
        return SyndeticCert(gap_bound=n, checked_interval=(lo, hi))
    start = bitops.has_run(~s.mask >> n & bitops.mask_of(hi - lo + 1), n)
    if start is None:
        return SyndeticCert(gap_bound=n, checked_interval=(lo, hi))
    loc = lo + start
    # the gap around the failing interval: the highest member below it and
    # the lowest above it, two bit scans, the window edges +-1 standing in
    left = s.lo - 1 + (s.mask & bitops.mask_of(loc - s.lo)).bit_length()
    above = s.mask >> (loc - s.lo)
    right = loc + bitops.lowest_set_bit(above) if above else s.hi + 1
    return SyndeticRefutation(gap=right - left, location=loc, length=n)


def longest_run(s: WindowSet) -> ThickCert:
    length, start = bitops.longest_run(s.mask, s.width)
    if start is None:
        return ThickCert(run_start=None, run_length=0)
    return ThickCert(run_start=s.lo + start, run_length=length)


def dilate(s: WindowSet, b: int) -> WindowSet:
    """Union of translates ``s - i`` for i in [0, b], on the b-shrunk window.

    Positions above ``hi - b`` are dropped: there the dilation of an
    unbounded extension would depend on members beyond the window.
    """
    if b < 0:
        raise BadBoundError("shift bound must be >= 0")
    if b >= s.width:
        raise BadBoundError("shift bound exceeds window")
    new_width = s.width - b
    mask = bitops.smear_down(s.mask, b) & bitops.mask_of(new_width)
    return WindowSet(s.lo, s.hi - b, mask)


def pws_witness(s: WindowSet, b_max: int, l_run: int) -> Optional[PwsCert]:
    """Smallest b <= b_max whose dilation contains a run of length >= l_run.

    The reported interval is the full maximal run achieved at that b,
    inside the b-shrunk window.  Returns None when no b works.
    """
    if b_max < 0:
        raise BadBoundError("b_max must be >= 0")
    if l_run < 1:
        raise BadBoundError("L must be >= 1")
    for b in range(0, min(b_max, s.width - 1) + 1):
        d = dilate(s, b)
        length, start = bitops.longest_run(d.mask, d.width)
        if length >= l_run:
            return PwsCert(shift_bound=b, interval=(d.lo + start, length))
    return None


def find_ap(s: WindowSet, k: int) -> Optional[Tuple[int, int]]:
    """First (a, d) with a, a+d, ..., a+(k-1)d all members; d >= 1.

    Search order: increasing d, then increasing a, so the result is
    deterministic.
    """
    if k < 3:
        raise BadBoundError(f"progression length must be >= 3, got {k}")
    width = s.width
    max_d = (width - 1) // (k - 1)
    for d in range(1, max_d + 1):
        hits = s.mask
        for step in range(1, k):
            hits &= s.mask >> (step * d)
            if not hits:
                break
        if hits:
            a = bitops.lowest_set_bit(hits)
            return (s.lo + a, d)
    return None


# ---------------------------------------------------------------------------
# 2D operations
# ---------------------------------------------------------------------------


def column_dilations(
    cols: Sequence[int],
    height: int,
    b1: int,
    b2_top: int,
    valid: Optional[Sequence[int]] = None,
) -> Iterator[List[int]]:
    """Columns of the box dilations of a bit matrix, for b2 = 0, 1, ..., b2_top.

    ``cols[j]`` is column j as a mask over ``height`` rows.  The dilation by
    [0,b1]x[0,b2] is the union of translates ``e - (i, j)``, (i, j) in the
    shift box, on the box shrunk by b1 rows and b2 columns: bit i of its
    column j is set when a member lies in [i, i+b1] x [j, j+b2].  Every
    column is smeared over the rows once; each step b2 -> b2+1 then ORs one
    smeared column into each column.  When ``valid`` columns are given, each
    yielded dilation is ANDed with them.
    """
    if b1 < 0 or b2_top < 0:
        raise BadBoundError("shift bounds must be >= 0")
    if b1 >= height or b2_top >= len(cols):
        raise BadBoundError("shift bounds exceed box")
    keep = bitops.mask_of(height - b1)
    smeared = [bitops.smear_down(c, b1) & keep for c in cols]
    acc = smeared
    for b2 in range(b2_top + 1):
        if b2:
            acc = [a | s for a, s in zip(acc, smeared[b2:])]
        yield acc if valid is None else [a & v for a, v in zip(acc, valid)]


def _first_rect(cols: Sequence[int], w: int, h: int) -> Optional[Tuple[int, int]]:
    """Lowest (row, column) index where a w-row x h-col all-ones rect starts,
    rows first.  After the doubling ANDs, bit i of ``starts[j]`` is set when
    the rect fits at (i, j)."""
    starts = [bitops.and_reduce(c, w) for c in cols]
    covered = 1
    while covered < h:
        step = min(covered, h - covered)
        starts = [a & b for a, b in zip(starts, starts[step:])]
        covered += step
    anywhere = 0
    for s in starts:
        anywhere |= s
    if not anywhere:
        return None
    i = bitops.lowest_set_bit(anywhere)
    return i, next(j for j, s in enumerate(starts) if s >> i & 1)


def pws_witness_2d(
    e: GridSet, b1_max: int, b2_max: int, w: int, h: int
) -> Optional[PwsCert2D]:
    """Lexicographically minimal (b1, b2) whose box dilation contains a w x h rect.

    w counts rows (m direction), h counts columns (n direction); the rect is
    the lowest in m, then in n.  Capped at b1 <= m_width - w and
    b2 <= n_width - h, where the rect still fits, the test is monotone in b2
    (a rect covered at b2 is covered one column to its left at b2 + 1), so a
    b1 whose widest dilation holds no rect is skipped after one test.
    Otherwise b2 rises one ``column_dilations`` step at a time.
    """
    if b1_max < 0 or b2_max < 0:
        raise BadBoundError("shift bounds must be >= 0")
    if w < 1 or h < 1:
        raise BadBoundError("rectangle sides must be >= 1")
    b1_cap = min(b1_max, e.m_width - w)
    b2_cap = min(b2_max, e.n_width - h)
    if b2_cap < 0:
        return None
    for b1 in range(0, b1_cap + 1):
        for widest in column_dilations(e.cols, e.m_width, b1, b2_cap):
            pass
        if _first_rect(widest, w, h) is None:
            continue
        for b2, dilated in enumerate(column_dilations(e.cols, e.m_width, b1, b2_cap)):
            pos = _first_rect(dilated, w, h)
            if pos is not None:
                return PwsCert2D(shift_box=(b1, b2), rect=(e.mlo + pos[0], e.nlo + pos[1], w, h))
    return None


def max_rectangle(e: GridSet) -> Tuple[int, Optional[Tuple[int, int, int, int]]]:
    """Largest all-ones rectangle of ``e``: ``max_rectangle_cols`` on its columns."""
    return max_rectangle_cols(e.cols, e.box)


def max_rectangle_cols(
    cols: Sequence[int], box: Tuple[int, int, int, int], threshold: int = 0
) -> Tuple[int, Optional[Tuple[int, int, int, int]]]:
    """Largest all-ones rectangle of area above ``threshold`` as
    (area, (m0, n0, w, h)), or (0, None) when there is none.

    ``cols[j]`` is column nlo + j of the box (mlo, mhi, nlo, nhi), a mask
    over m.  The rectangle covers rows m0..m0+w-1 and columns n0..n0+h-1.
    Ties between rectangles of the largest area go to the lowest bottom row
    m0+w-1, then to the lowest right end n0+h-1, then to the most rows.
    Whenever the largest area exceeds ``threshold``, the result is the one
    found with no threshold, tie included.

    For each left column c, the AND of columns c..c+k-1 marks the rows that
    hold all k of them, and its longest run is the tallest rectangle of
    width k.  The threshold seeds the best area, and a width whose AND has
    no run of ceil(best/k) rows is skipped.  A left column stops when the
    AND is empty or when no wider rectangle could reach the best area, and
    the scan stops at the first left column whose whole remaining box is
    smaller than the best area.
    """
    mlo, mhi, nlo, _ = box
    height, ncols = mhi - mlo + 1, len(cols)
    # beaten exactly by the rectangles of greater area: a key's second entry is <= 0
    best_key: Tuple[int, int, int, int] = (threshold, 1, 0, 0)
    best = None
    for c in range(ncols):
        if height * (ncols - c) < best_key[0]:
            break
        acc, run = bitops.mask_of(height), height  # run bounds acc's longest run
        for k in range(1, ncols - c + 1):
            acc &= cols[c + k - 1]
            area = best_key[0]
            reach = max(1, -(-area // (ncols - c)))  # rows any width from c needs
            need = max(1, -(-area // k))  # rows this width needs
            starts = bitops.and_reduce(acc, reach)
            if not starts:
                break
            if need > reach:
                starts = bitops.and_reduce(starts, need - reach + 1)
                if not starts:
                    continue
            # runs of acc at least ``need`` long are runs of ``starts`` need-1 shorter
            extra, start = bitops.longest_run(starts, run - need + 1)
            run = extra + need - 1
            key = (run * k, -(start + run - 1), -(c + k - 1), run)
            if key > best_key:
                best_key = key
                best = (mlo + start, nlo + c, run, k)
    return (best_key[0], best) if best else (0, None)


def syndetic_2d_certificate(
    e: GridSet, l_bound: int
) -> Union[Syndetic2DCert, Syndetic2DRefutation]:
    """Certify that every point of the L-shrunk box lies in ``e + [-L, L]^2``,
    or refute it at the first uncovered (m, n), lowest m, then lowest n."""
    if l_bound < 0:
        raise BadBoundError("L must be >= 0")
    mlo, mhi = e.mlo + l_bound, e.mhi - l_bound
    nlo, nhi = e.nlo + l_bound, e.nhi - l_bound
    if mlo > mhi or nlo > nhi:
        return Syndetic2DCert(l_bound=l_bound, checked_box=(mlo, mhi, nlo, nhi))
    # (m,n) in E + [-L,L]^2  iff  some member in [m-L,m+L] x [n-L,n+L]:
    # smearing the left-shifted column by 2L realizes the two-sided dilation
    keep = bitops.mask_of(e.m_width)
    two_sided = [bitops.smear_down(c << l_bound, 2 * l_bound) & keep for c in e.cols]
    want = bitops.mask_of(mhi - mlo + 1) << l_bound
    firsts = [  # (m, n) offsets of the lowest uncovered point of each column
        (bitops.lowest_set_bit(missing), j)
        for j in range(l_bound, nhi - e.nlo + 1)
        if (missing := want & ~reduce(or_, two_sided[j - l_bound : j + l_bound + 1]))
    ]
    if firsts:
        i, j = min(firsts)
        return Syndetic2DRefutation(l_bound=l_bound, point=(e.mlo + i, e.nlo + j))
    return Syndetic2DCert(l_bound=l_bound, checked_box=(mlo, mhi, nlo, nhi))


def grid_slice(e: GridSet, m: int) -> WindowSet:
    """Row ``m`` of the grid as a WindowSet over the n-range: bit m of each column."""
    if not e.mlo <= m <= e.mhi:
        raise ValueError(f"row {m} outside box rows [{e.mlo},{e.mhi}]")
    i = m - e.mlo
    return WindowSet(e.nlo, e.nhi, bitops.from_selectors(bytes(c >> i & 1 for c in e.cols)))


def best_slice(
    e: GridSet, b_max: int, l_run: int
) -> Tuple[int, PwsCert]:
    """Row whose slice admits the strongest piecewise-syndetic witness.

    Strength order: larger achieved run length, then smaller shift
    bound, then smaller row index.  Raises NoRowError when no row
    admits any witness at (b_max, L).
    """
    found = [
        (m, cert)
        for m, row in zip(range(e.mlo, e.mhi + 1), e.rows)  # one transpose
        if (cert := pws_witness(WindowSet(e.nlo, e.nhi, row), b_max, l_run))
    ]
    if not found:
        raise NoRowError(f"no row admits a witness at b_max={b_max}, L={l_run}")
    return min(found, key=lambda mc: (-mc[1].interval[1], mc[1].shift_bound, mc[0]))
