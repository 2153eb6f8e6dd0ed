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
from collections import deque
from dataclasses import dataclass
from itertools import compress, product, repeat, starmap
from operator import getitem
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import bitops
from .check import PwsCert, PwsCert2D, Syndetic2DCert, Syndetic2DRefutation, SyndeticCert
from .check import SyndeticRefutation, ThickCert
from .errors import BadBoundError, ConfigError, EmptySetError, NoRowError, take

_BITMAP_MAGIC = b"PSYN"
_VERSION_1D = 1
TABLE_ROWS = 384  # see GridSet._member_rows


@dataclass(frozen=True, slots=True)
class WindowSet:
    """Immutable subset of the integer interval ``[lo, hi]``.

    Membership is bit-indexed: bit ``i`` of ``mask`` corresponds to the
    integer ``lo + i``.  Queries are total on the window and False
    outside it.
    """

    lo: int
    hi: int
    mask: int = 0

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")
        if self.mask < 0 or self.mask >> (self.hi - self.lo + 1):
            raise ValueError("mask has bits outside the window")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_members(cls, lo: int, hi: int, members: Iterable[int]) -> "WindowSet":
        return cls(lo, hi, _window_mask(lo, hi, [members]))

    @classmethod
    def from_predicate(cls, lo: int, hi: int, pred: Callable[[int], bool]) -> "WindowSet":
        return cls(lo, hi, bitops.from_selectors(bytes(map(bool, map(pred, range(lo, hi + 1))))))

    @classmethod
    def full(cls, lo: int, hi: int) -> "WindowSet":
        return cls(lo, hi, bitops.mask_of(cls(lo, hi).width))

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
    def from_json_obj(cls, obj: dict, split: Optional[Callable] = None) -> "WindowSet":
        """The set of a report's ``{lo, hi, members}``.  ``fill`` is the one reader of
        member lists: it takes objects that hold one each, ``obj`` or the parts of its
        list, checks each list as ``take`` does, and gives the mask of their members.
        ``split``, when given, decodes ``obj``'s list in parts instead: called with
        ``fill``, it gives the OR of its masks over the parts (``cli._decode_parts``)."""
        lo, hi = take(obj, "lo", int), take(obj, "hi", int)

        def fill(objs: Iterable[dict]) -> int:
            return _window_mask(lo, hi, (take(o, "members", [int]) for o in objs))

        return cls(lo, hi, fill([obj]) if split is None else split(fill))

    def to_json(self) -> str:
        """Compact JSON of :meth:`to_json_obj`, keys sorted, written from the mask."""
        members = ",".join(_member_blocks(self, ","))
        return f'{{"hi":{self.hi},"lo":{self.lo},"members":[{members}]}}'

    def to_csv(self) -> str:
        """One member per line, in increasing order."""
        return "".join(block + "\n" for block in _member_blocks(self, "\n"))

    def to_bitmap_bytes(self) -> bytes:
        """Raw bitmap: magic, version u16, lo/hi i64, 64-bit LE words."""
        words = (self.width + 63) // 64
        head = _BITMAP_MAGIC + struct.pack("<Hqq", _VERSION_1D, self.lo, self.hi)
        return head + self.mask.to_bytes(words * 8, "little")

    @classmethod
    def from_bitmap_bytes(cls, raw: bytes) -> "WindowSet":
        """Inverse of :meth:`to_bitmap_bytes`; ValueError on a bad magic, a short
        header, another version or a body of the wrong length, raised before
        any mask is built."""
        if raw[:4] != _BITMAP_MAGIC:
            raise ValueError("bad magic")
        size = 4 + struct.calcsize("<Hqq")
        if len(raw) < size:
            raise ValueError(f"bitmap header needs {size} bytes, got {len(raw)}")
        version, lo, hi = struct.unpack_from("<Hqq", raw, 4)
        if version != _VERSION_1D:
            raise ValueError(f"unsupported bitmap version {version}")
        body, width = raw[size:], hi - lo + 1
        if width < 1 or len(body) != (width + 63) // 64 * 8:
            raise ValueError(f"bitmap body of {len(body)} bytes for the window [{lo}, {hi}]")
        return cls(lo, hi, int.from_bytes(body, "little") & bitops.mask_of(width))


def _window_mask(lo: int, hi: int, lists: Iterable[Iterable[int]]) -> int:
    """The mask over [lo, hi] of the members of every list, one selector byte each;
    ValueError names the first member outside the window."""
    sel = bytearray(max(0, hi - lo + 1))
    for members in lists:
        for m in members:
            if not lo <= m <= hi:
                raise ValueError(f"member {m} outside window [{lo},{hi}]")
            sel[m - lo] = 1
    return bitops.from_selectors(sel)


_UP = ([str(d) for d in range(1000)], [f"{d:03}" for d in range(1000)])
_DOWN = tuple(table[::-1] for table in _UP)


def _member_blocks(s: WindowSet, sep: str) -> Iterator[str]:
    """The members of ``s`` as text joined by ``sep``, in increasing order, one
    string per block of 1000 integers that has a member.

    The n with |n| in [1000 k, 1000 k + 999] share their leading digits
    ``pre`` (``k`` or ``-k``, none for k = 0), and their last three are
    picked from a table of ``str(d)`` (k = 0) or ``f"{d:03}"`` by the
    block's bit selectors, the table read backwards below 0.  A block is
    ``pre + (sep + pre).join(picked)``, as :meth:`GridSet.to_json` joins its
    rows, so no interpreted step runs per member.
    """
    lo, hi = s.lo, s.hi
    sel = bitops.bit_selectors(s.mask)
    blocks = [(-1000 * k - 999, min(-1000 * k, -1), f"-{k}" if k else "-", _DOWN[k > 0])
              for k in range(-lo // 1000, max(-hi, 1) // 1000 - 1, -1)]
    blocks += [(1000 * k, 1000 * k + 999, str(k) if k else "", _UP[k > 0])
               for k in range(max(lo, 0) // 1000, hi // 1000 + 1)]
    for base, top, pre, table in blocks:
        start, end = max(lo, base), min(hi, top)
        picks = bytes(start - base) + sel[start - lo : end - lo + 1]  # aligned with table, 0 below lo
        if 1 in picks:
            yield pre + (sep + pre).join(compress(table, picks))


@dataclass(frozen=True, slots=True, init=False)
class GridSet:
    """Immutable subset of the integer box ``[mlo,mhi] x [nlo,nhi]``.

    Stored by columns: ``cols[n - nlo]`` is the bitmask over the m-range of
    column ``n``.  That is how the planar sets are built (for a fixed n,
    the m with every m + p_i(n) in S) and searched.  ``GridSet(box, rows)``
    takes row masks over the n-range, and :attr:`rows` gives them back:
    these are the only transposes, and only row-major output reads rows.
    """

    mlo: int
    mhi: int
    nlo: int
    nhi: int
    cols: Tuple[int, ...]

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
        for name, a, b in (("m", mlo, mhi), ("n", nlo, nhi)):
            if a > b:
                raise ValueError(f"empty box: {name}lo={a} > {name}hi={b}")
        count, width = mhi - mlo + 1, nhi - nlo + 1
        if kind == "column":
            count, width = width, count
        if len(masks) != count:
            raise ValueError(f"{kind} count does not match box")
        if any(x < 0 or x >> width for x in masks):
            raise ValueError(f"{kind} mask outside box")
        cols = bitops.transpose(masks, width) if kind == "row" else masks
        for name, value in zip(("mlo", "mhi", "nlo", "nhi", "cols"), (*box, tuple(cols))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_members(
        cls, box: Tuple[int, int, int, int], members: Iterable[Tuple[int, int]]
    ) -> "GridSet":
        """The set of ``members``, pairs of integers (``_box_mask``)."""
        return cls._from_cols(box, _box_columns(box, _box_mask(box, [members])))

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

    def __repr__(self) -> str:
        return f"GridSet({self.box}, {self.count()} members)"

    def to_json_obj(self) -> dict:
        return {"box": list(self.box), "members": [list(p) for p in self.members()]}

    @classmethod
    def from_json_obj(cls, obj: dict, split: Optional[Callable] = None) -> "GridSet":
        """The set of a report's ``{box, members}``, its member lists read by ``fill``
        and ``split`` as :meth:`WindowSet.from_json_obj` says."""
        box = tuple(take(obj, "box", [int], size=4))

        def fill(objs: Iterable[dict]) -> int:
            try:
                return _box_mask(box, (take(o, "members", list) for o in objs))
            except TypeError as exc:  # a member that is not a pair of integers
                raise ConfigError(f"bad members: {exc}") from exc

        return cls._from_cols(box, _box_columns(box, fill([obj]) if split is None else split(fill)))

    def _member_rows(self, items: List[str], lead: Callable[[int], str]) -> List[str]:
        """Per row m with a member, ``s + s.join(picked)``, s = ``lead(m)`` and picked the
        ``items[n - nlo]`` of its members, by the rule :meth:`to_json` states; the first
        row's text starts one later.  In a table, each item is behind a "\\0" for s."""
        rows = zip(map(lead, range(self.mlo, self.mhi + 1)), self.rows)
        nbytes = -(-len(items) // 8)
        if self.m_width < TABLE_ROWS * (128 + nbytes) // 128:
            texts = [s + s.join(compress(items, bitops.bit_selectors(r))) for s, r in rows if r]
        else:
            tables = [[""] for _ in range(nbytes)]  # entry j joins the items at the bits of j
            for i, item in enumerate(map("\0".__add__, items)):
                tables[i >> 3] += [t + item for t in tables[i >> 3]]
            texts = ["".join(map(getitem, tables, r.to_bytes(nbytes, "little"))).replace("\0", s)
                     for s, r in rows if r]
        if texts:
            texts[0] = texts[0][1:]
        return texts

    def to_json(self) -> str:
        """Compact JSON of :meth:`to_json_obj`, keys sorted, written from the masks.

        Each ``n]`` is formatted once for the box; a row is the ``n]`` of its members,
        each behind ``,[m,``.  From TABLE_ROWS * (1 + nbytes / 128) rows up, nbytes the
        bytes of a row, each byte picks its text from its 8 columns' table of 256 joins,
        else the bits pick one by one.  On a 2-vCPU VM a table costs about 17 us and saves
        about 60 ns a row, so about 300 rows pay for it; 384 spares sparse rows, which
        save less, and past about 128 tables the lookups miss the cache.  The rule
        changes the cost, never the text, and the rows are copied once, into it."""
        rows = self._member_rows([f"{n}]" for n in range(self.nlo, self.nhi + 1)], ",[{},".format)
        box = ",".join(map(str, self.box))
        return "".join([f'{{"box":[{box}],"members":[', *rows, "]}"])

    def to_csv(self) -> str:
        """One ``m,n`` line per member, in :meth:`members` order, written from the
        masks as :meth:`to_json` is (by the same rule), each ``n`` behind ``\\nm,``."""
        rows = self._member_rows(list(map(str, range(self.nlo, self.nhi + 1))), "\n{},".format)
        return "".join([*rows, "\n"]) if rows else ""


def _box_mask(box: Tuple[int, int, int, int], lists: Iterable[Iterable[Tuple[int, int]]]) -> int:
    """The members of every list as one mask, one selector byte per cell: column n
    from bit 8 k (n - nlo) on, k the bytes of a column, ``start[n - nlo] + m`` the
    byte of cell (m, n).  ValueError names the first member outside the box, and
    TypeError the first that is not a pair of integers (the bool True passes every
    other test as 1)."""
    mlo, mhi, nlo, nhi = box
    stride = 8 * _column_bytes(box)
    sel = bytearray(max(0, stride * (nhi - nlo + 1)))
    start = [j * stride - mlo for j in range(nhi - nlo + 1)]
    for members in lists:
        for m, n in members:
            if not (mlo <= m <= mhi and nlo <= n <= nhi):
                raise ValueError(f"member {(m, n)} outside box")
            if type(m) is bool or type(n) is bool:
                raise TypeError(f"member {[m, n]} is not a pair of integers")
            sel[start[n - nlo] + m] = 1
    return bitops.from_selectors(sel)


def _column_bytes(box: Tuple[int, int, int, int]) -> int:
    """The bytes of one column of ``_box_mask``'s layout: one bit per m, whole bytes."""
    return max(0, -(-(box[1] - box[0] + 1) // 8))


def _box_columns(box: Tuple[int, int, int, int], mask: int) -> List[int]:
    """The columns of a mask laid out by ``_box_mask``, cut apart as bytes."""
    k, w = _column_bytes(box), max(0, box[3] - box[2] + 1)
    raw = mask.to_bytes(k * w, "little")
    return [int.from_bytes(raw[j * k : j * k + k], "little") for j in range(w)]


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
        # one and_reduce probe per bound; longest_run's binary search (about log2(width)
        # probes) runs only at the bound returned
        if bitops.has_run(d.mask, l_run) is not None:
            length, start = bitops.longest_run(d.mask, d.width)
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
    yielded dilation is ANDed with them.  The last one yielded is the
    dilation by [0,b1]x[0,b2_top], read alone by ``deque(..., maxlen=1)``.
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
        (widest,) = deque(column_dilations(e.cols, e.m_width, b1, b2_cap), maxlen=1)
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
    or refute it at the first uncovered (m, n), lowest m, then lowest n.

    (m, n) is covered when a member lies in [m-L, m+L] x [n-L, n+L], that is,
    when the dilation by [0,2L]^2 holds (m-L, n-L): that dilation, read at
    offset (L, L), is the cover of the shrunk box, bit for bit.
    """
    if l_bound < 0:
        raise BadBoundError("L must be >= 0")
    mlo, mhi = e.mlo + l_bound, e.mhi - l_bound
    nlo, nhi = e.nlo + l_bound, e.nhi - l_bound
    if mlo > mhi or nlo > nhi:
        return Syndetic2DCert(l_bound=l_bound, checked_box=(mlo, mhi, nlo, nhi))
    (cover,) = deque(column_dilations(e.cols, e.m_width, 2 * l_bound, 2 * l_bound), maxlen=1)
    full = bitops.mask_of(mhi - mlo + 1)
    firsts = [  # (m, n) offsets of the lowest uncovered point of each column
        (bitops.lowest_set_bit(missing), j) for j, c in enumerate(cover) if (missing := c ^ full)
    ]
    if firsts:
        i, j = min(firsts)
        return Syndetic2DRefutation(l_bound=l_bound, point=(mlo + i, nlo + j))
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
