"""Certificates, and the checks that ``psynd verify`` trusts.

Each certificate class names its JSON ``type`` tag and its dimension once,
in its header; ``CERT_TYPES`` is the table of them.  Detection builds these
classes, and this module imports no detection code.  A verifier reads a 1D
set only through ``lo``, ``hi`` and ``mask`` (bit i is the integer lo + i),
and a planar set only through ``box`` and ``cols`` (``cols[n - nlo]``, a
mask over the m-range).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from itertools import islice
from operator import or_, sub
from typing import ClassVar, Dict, Optional, Tuple, get_args, get_origin, get_type_hints

from .bitops import iter_bits, lowest_set_bit, mask_of
from .errors import take

CERT_TYPES: Dict[str, type] = {}  # type tag -> certificate class


class _Cert:
    """A certificate's JSON form: its ``type`` tag, then its fields, tuples as lists.

    A subclass names its tag and, when it is about a planar set, its
    dimension: ``class C(_Cert, tag=..., planar=True)``, entering it in
    ``CERT_TYPES``.
    """

    type: ClassVar[str]
    planar: ClassVar[bool]

    def __init_subclass__(cls, tag: str, planar: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.type, cls.planar = tag, planar
        CERT_TYPES[tag] = cls

    def to_json_obj(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {"type": self.type, **{k: list(v) if isinstance(v, tuple) else v for k, v in values}}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "_Cert":
        """Inverse of ``to_json_obj``; ConfigError names a missing or ill-typed field."""
        values = {}
        for f in fields(cls):
            hint = get_type_hints(cls)[f.name]
            if get_origin(hint) is tuple:
                values[f.name] = tuple(take(obj, f.name, [int], size=len(get_args(hint))))
            elif f.name in obj and obj[f.name] is None and type(None) in get_args(hint):
                values[f.name] = None
            else:
                values[f.name] = take(obj, f.name, int)
        return cls(**values)


@dataclass(frozen=True)
class SyndeticCert(_Cert, tag="syndetic"):
    """Every length-``gap_bound`` subinterval of ``checked_interval`` meets the set."""

    gap_bound: int
    checked_interval: Tuple[int, int]


@dataclass(frozen=True)
class SyndeticRefutation(_Cert, tag="syndetic_refutation"):
    """First length-N subinterval missing the set, with the containing gap size."""

    gap: int
    location: int
    length: int


@dataclass(frozen=True)
class ThickCert(_Cert, tag="thick"):
    """``[run_start, run_start+run_length-1]`` is contained in the set."""

    run_start: Optional[int]
    run_length: int


@dataclass(frozen=True)
class PwsCert(_Cert, tag="pws"):
    """Dilating the set by the shift interval [0, shift_bound] covers ``interval``.

    ``interval`` is (start, length); it always lies inside the
    shift_bound-shrunk window, so re-dilation of the raw window set
    reproduces it.  Its JSON form is the object ``{"start", "length"}``.
    """

    shift_bound: int
    interval: Tuple[int, int]

    def to_json_obj(self) -> dict:
        start, length = self.interval
        return {**super().to_json_obj(), "interval": {"start": start, "length": length}}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PwsCert":
        interval = obj.get("interval")
        if isinstance(interval, dict):
            obj = {**obj, "interval": [interval.get("start"), interval.get("length")]}
        return super().from_json_obj(obj)


@dataclass(frozen=True)
class PwsCert2D(_Cert, tag="pws2d", planar=True):
    """Dilating by the shift box [0,b1]x[0,b2] covers the rectangle.

    ``rect`` is (m0, n0, w, h): rows m0..m0+w-1, columns n0..n0+h-1.
    """

    shift_box: Tuple[int, int]
    rect: Tuple[int, int, int, int]


@dataclass(frozen=True)
class Syndetic2DCert(_Cert, tag="syndetic2d", planar=True):
    """Every point of ``checked_box`` has a member within ``l_bound`` in each coordinate."""

    l_bound: int
    checked_box: Tuple[int, int, int, int]


@dataclass(frozen=True)
class Syndetic2DRefutation(_Cert, tag="syndetic2d_refutation", planar=True):
    """A point of the L-shrunk box with no member within ``l_bound`` in each coordinate."""

    l_bound: int
    point: Tuple[int, int]


def cert_from_json_obj(obj: dict) -> _Cert:
    """Decode a certificate by its ``type`` tag; ConfigError on an unknown tag or a bad field."""
    return CERT_TYPES[take(obj, "type", tuple(CERT_TYPES))].from_json_obj(obj)


def _covered(mask: int, base: int, lo: int, hi: int, w0: int, w1: int) -> bool:
    """True when every x in [lo, hi] has a member in [x+w0, x+w1], bit k of
    ``mask`` being the member ``base + k``.

    Every positive certificate is such a claim.  Member p serves [p-w1, p-w0],
    so only the members p_1 < ... < p_k in [lo+w0, hi+w1] serve [lo, hi], and
    they cover it iff p_1 - w1 <= lo, p_k - w0 >= hi and no gap p_{j+1} - p_j
    exceeds w1 - w0 + 1.  Such gaps make the intervals meet.  A larger gap
    leaves the hole [p_j - w0 + 1, p_{j+1} - w1 - 1], served by no member,
    whose start lies in [lo, hi]: above lo as p_j >= lo + w0, and not above
    the hole's end, which p_{j+1} <= hi + w1 puts below hi.  With w1 < w0
    the test fails: p - w1 <= lo <= hi <= p - w0 is impossible, and two
    members differ by more than w1 - w0 + 1 <= 0.
    """
    if lo > hi:
        return True
    # the scan ends at the highest member, so a forged bound costs no more than the set
    a, b = max(lo + w0, base), min(hi + w1, base + mask.bit_length() - 1)
    if a > b:
        return False
    ps = list(iter_bits(mask >> (a - base) & mask_of(b - a + 1), a))
    return (bool(ps) and ps[0] - w1 <= lo and ps[-1] - w0 >= hi
            and max(map(sub, islice(ps, 1, None), ps), default=0) <= w1 - w0 + 1)


def _covered_2d(e, region: Tuple[int, int, int, int], i0: int, i1: int, j0: int, j1: int) -> bool:
    """True when every (m, n) in ``region`` has a member in [m+i0, m+i1] x [n+j0, n+j1]:
    for each n, the OR of columns n+j0..n+j1 covers the m-range as ``_covered``.
    An empty m-range is covered at once, whatever the n-range's length."""
    mlo, mhi, nlo, nhi = region
    base, _, first, _ = e.box
    return mlo > mhi or all(
        _covered(reduce(or_, e.cols[max(n + j0 - first, 0) : max(n + j1 - first + 1, 0)], 0),
                 base, mlo, mhi, i0, i1)
        for n in range(nlo, nhi + 1)
    )


def verify_syndetic(s, cert: SyndeticCert) -> bool:
    """Each x in [lo, hi-N+1] has a member in [x, x+N-1]."""
    (lo, hi), n = cert.checked_interval, cert.gap_bound
    return _covered(s.mask, s.lo, lo, hi - n + 1, 0, n - 1)


def verify_pws(s, cert: PwsCert) -> bool:
    """The interval lies in the b-shrunk window and each x has a member in [x, x+b]."""
    b, (start, length) = cert.shift_bound, cert.interval
    if start < s.lo or start + length - 1 > s.hi - b:
        return False
    return _covered(s.mask, s.lo, start, start + length - 1, 0, b)


def verify_thick(s, cert: ThickCert) -> bool:
    if cert.run_length == 0:
        return True
    if cert.run_start is None:
        return False
    return _covered(s.mask, s.lo, cert.run_start, cert.run_start + cert.run_length - 1, 0, 0)


def verify_syndetic_refutation(s, cert: SyndeticRefutation) -> bool:
    """The hole lies in the N-shrunk window and holds no member; ``gap`` is the
    next member minus the previous one, the window edge +-1 standing in."""
    loc, n = cert.location, cert.length
    if n < 1 or loc < s.lo + n or loc + n - 1 > s.hi - n:
        return False
    left = s.lo - 1 + (s.mask & mask_of(loc - s.lo)).bit_length()
    above = s.mask >> (loc - s.lo)
    right = loc + lowest_set_bit(above) if above else s.hi + 1
    return right >= loc + n and cert.gap == right - left


def verify_pws_2d(e, cert: PwsCert2D) -> bool:
    """The rect lies in the shrunk box and each point has a member in +[0,b1]x[0,b2]."""
    (b1, b2), (m0, n0, w, h) = cert.shift_box, cert.rect
    mlo, mhi, nlo, nhi = e.box
    if m0 < mlo or m0 + w - 1 > mhi - b1 or n0 < nlo or n0 + h - 1 > nhi - b2:
        return False
    return _covered_2d(e, (m0, m0 + w - 1, n0, n0 + h - 1), 0, b1, 0, b2)


def verify_syndetic_2d(e, cert: Syndetic2DCert) -> bool:
    """Each point of the checked box has a member in +[-L, L]^2."""
    l_bound = cert.l_bound
    return _covered_2d(e, cert.checked_box, -l_bound, l_bound, -l_bound, l_bound)


def verify_syndetic_2d_refutation(e, cert: Syndetic2DRefutation) -> bool:
    """The point lies in the L-shrunk box and has no member in +[-L, L]^2."""
    (m, n), l_bound = cert.point, cert.l_bound
    mlo, mhi, nlo, nhi = e.box
    inside = mlo + l_bound <= m <= mhi - l_bound and nlo + l_bound <= n <= nhi - l_bound
    return (l_bound >= 0 and inside
            and not _covered_2d(e, (m, m, n, n), -l_bound, l_bound, -l_bound, l_bound))
