"""Polynomial return-time sets on finite windows.

``return_set_1d`` collects the times n whose whole polynomial orbit
tuple re-enters a ball; ``return_set_2d`` does the same for pairs
(m, n) acting by ``T^(m + p_i(n))``.  The purely combinatorial
companion ``combinatorial_set_2d`` evaluates membership of
``m + p_i(n)`` in a window set and reports, alongside the members, the
validity region of pairs whose evaluations all landed inside the
window; certificates must only be sought inside validity, because
outside it membership of the underlying unbounded set is unknown.

Ball membership uses strict inequality everywhere so results are
bit-reproducible for a fixed precision.  Both sets are ``systems.scan``s:
1D with the exact forward-difference values of each p_i over a chunk
(equal to ``eval``), planar member by member over merged runs of the
times m + p_i(n), each decided once.  A 1D family of even members (n^2),
or of odd and even ones (n, n^2) around a center that a rotation reflects
x about, is decided once per |n|, and a 1D set can reuse another's.

Period lemma: an integer-valued p of degree d has p(n + Q d!) = p(n)
mod Q, as it sums integer multiples of C(n, k) = f_k(n) / k!, k <= d,
with f_k in Z[n].  So when T^Q x = x (``fold_period``) the return set
on Z has period P = Q d!, in m too for the planar set (Q divides P), and
``scan`` decides one period and tiles it.  Named constants never fold:
their P would be about 2^256.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Optional, Tuple, Union

from . import bitops
from .check import PwsCert2D
from .errors import BadBoundError, BadEpsilonError, EmptySetError
from .polynomials import PolyFamily
from .systems import PointLike, SystemSpec, TorusRotation, fold_period, mirror, scan
from .windows import GridSet, WindowSet, column_dilations, max_rectangle_cols


@dataclass(frozen=True)
class ReturnQuery:
    """Everything needed to evaluate one return-time set."""

    sys: SystemSpec
    x: PointLike
    center: PointLike
    eps: object
    family: PolyFamily
    window: Union[Tuple[int, int], Tuple[int, int, int, int]]

    def __post_init__(self):
        if Fraction(self.eps) <= 0:
            raise BadEpsilonError(f"epsilon must be > 0, got {self.eps}")


def _overlap(known: WindowSet, lo: int, hi: int) -> Tuple[int, int]:
    """(decided, members): masks over [lo, hi] of ``known``'s window and of its members."""
    a, b = max(lo, known.lo), min(hi, known.hi)
    if a > b:
        return 0, 0
    return bitops.mask_of(b - a + 1) << (a - lo), known.restrict(a, b).mask << (a - lo)


def return_set_1d(q: ReturnQuery, known: Optional[WindowSet] = None) -> WindowSet:
    """{ n in window : T^{p_i(n)} x lies in the ball for every i }.

    n and -n ask the same question, and ``systems.mirror`` decides |n| only,
    when every p_i is even, and when every p_i is even or odd on a rotation
    that ``reflects`` x about the center (T^-t x - c = -(T^t x - c) there).
    ``known``, the set of the same question (same system, x, center, eps and
    family) on any window, is trusted on the part of the scanned range that
    its window covers, and only the rest is scanned.
    """
    polys = q.family.polys
    odd = isinstance(q.sys, TorusRotation) and q.sys.reflects(q.x, q.center)
    period = fold_period(q.sys, q.x, q.family)
    def decide(lo: int, hi: int) -> int:
        done, kept = (0, 0) if known is None else _overlap(known, lo, hi)
        want = bitops.mask_of(hi - lo + 1) & ~done if done else None
        return kept | scan(q.sys, q.x, q.eps, lambda start, size: [
            (q.center, p.progression(start, size)) for p in polys
        ], lo, hi, period, want)

    exact = all(p.is_even() or odd and p.is_odd() for p in polys)
    return WindowSet(*q.window, mirror(decide, *q.window, period, exact))


def return_set_2d(q: ReturnQuery) -> GridSet:
    """{ (m, n) in box : T^{m + p_i(n)} x lies in the ball for every i }.

    Member by member, the intervals [mlo + v, mhi + v] over the values
    v = p_i(n) merge into runs; one ``scan`` per run decides, once each, the
    times m + v that live cells reach (so a subshift raises where a per-cell
    loop would), and each column keeps its hits.  On a box taller than its
    ``fold_period`` P, the columns of one P repeat.
    """
    mlo, mhi, nlo, nhi = GridSet.empty(q.window).box  # ValueError on an empty box
    period = fold_period(q.sys, q.x, q.family)
    last = nhi if period is None else min(nhi, nlo + period - 1)
    full = bitops.mask_of(mhi - mlo + 1)
    cols = [full] * (last - nlo + 1)
    times = lambda start, size: [(q.center, range(start, start + size))]  # noqa: E731
    for p in q.family.polys:
        values, need, hits = p.values(nlo, len(cols)), {}, {}
        for v, col in zip(values, cols):
            need[v] = need.get(v, 0) | col
        vs = sorted(need)
        starts = [i for i, v in enumerate(vs) if not i or v - vs[i - 1] > mhi - mlo + 1]
        for run in (vs[i:j] for i, j in zip(starts, [*starts[1:], len(vs)])):
            want = reduce(or_, (need[v] << v - run[0] for v in run))
            got = scan(q.sys, q.x, q.eps, times, mlo + run[0], mhi + run[-1], period, want)
            hits.update((v, got >> (v - run[0]) & full) for v in run)
        cols = [col & hits[v] for v, col in zip(values, cols)]
    cols = [cols[i % len(cols)] for i in range(nhi - nlo + 1)]
    return GridSet._from_cols(q.window, cols)


def combinatorial_set_2d(
    s: WindowSet, family: PolyFamily, box: Tuple[int, int, int, int]
) -> Tuple[GridSet, GridSet]:
    """Members and validity of { (m, n) : m + p_i(n) in S for all i }.

    validity marks the (m, n) whose evaluations all land inside S's
    window; members is a subset of validity by construction.  Each p_i
    is read over the box's n-range by forward differences.  With no p_i
    both are the whole box, as the condition is vacuous.
    """
    mlo, mhi, nlo, nhi = GridSet.empty(box).box  # ValueError on an empty box
    member_cols, valid_cols = [], []
    rows = [p.values(nlo, nhi - nlo + 1) for p in family.polys]
    for _, *values in zip(range(nlo, nhi + 1), *rows):  # one column per n, even with no p_i
        # for each i, m must lie in [S.lo - v_i, S.hi - v_i]
        a = max([mlo, *(s.lo - v for v in values)])
        b = min([mhi, *(s.hi - v for v in values)])
        valid_col = bitops.mask_of(b - a + 1) << (a - mlo) if a <= b else 0
        valid_cols.append(valid_col)
        member_cols.append(_in_set_at(s, values, mlo, valid_col))
    return GridSet._from_cols(box, member_cols), GridSet._from_cols(box, valid_cols)


def _in_set_at(s: WindowSet, values, mlo: int, col: int) -> int:
    """The bits k of ``col`` with mlo + k + v in S for every v in ``values``:
    a column of the planar set, stopped at the first empty AND."""
    for v in values:
        if not col:
            break
        off = mlo + v - s.lo
        col &= s.mask >> off if off >= 0 else s.mask << -off
    return col


def masked_dilation_2d(
    members: GridSet, validity: GridSet, b1: int, b2: int
) -> GridSet:
    """Box dilation of the members, cut down to the validity region.

    The dilation alone is already sound (every dilated point is backed
    by a real member), but certificates are kept inside validity so
    that the whole claim is decidable from the window.
    """
    if members.box != validity.box:
        raise ValueError("box mismatch")
    (dilated,) = deque(column_dilations(members.cols, members.m_width, b1, b2, validity.cols),
                       maxlen=1)
    box = (members.mlo, members.mhi - b1, members.nlo, members.nhi - b2)
    return GridSet._from_cols(box, dilated)


def pws_area_witness_2d(
    members: GridSet,
    validity: GridSet,
    b1_max: int,
    b2_max: int,
    min_area: int,
) -> Optional[PwsCert2D]:
    """First (b1, b2) in lexicographic order whose masked dilation holds an
    all-ones rectangle of at least ``min_area``; the certificate records that
    dilation's largest rectangle, under ``max_rectangle``'s tie rule.

    Runs on the columns over m: each b1 smears every column once, and each
    step of b2 ORs in one more column (``column_dilations``).  Each attempt
    asks ``max_rectangle_cols`` only for areas above ``min_area - 1``, so a
    failing attempt stops after a few run tests and a passing one gets the
    rectangle a full ``max_rectangle`` finds.
    """
    if b1_max < 0 or b2_max < 0:
        raise BadBoundError("shift bounds must be >= 0")
    if min_area < 1:
        raise BadBoundError("min_area must be >= 1")
    if members.box != validity.box:
        raise ValueError("box mismatch")
    mlo, mhi, nlo, nhi = members.box
    b2_top = min(b2_max, members.n_width - 1)
    for b1 in range(0, min(b1_max, members.m_width - 1) + 1):
        dilations = column_dilations(members.cols, members.m_width, b1, b2_top, validity.cols)
        for b2, dilated in enumerate(dilations):
            _, rect = max_rectangle_cols(dilated, (mlo, mhi - b1, nlo, nhi - b2), min_area - 1)
            if rect is not None:
                return PwsCert2D(shift_box=(b1, b2), rect=rect)
    return None


def shift_cover_search(
    s: WindowSet, family: PolyFamily, target: WindowSet, n_bound: int
) -> Optional[int]:
    """Smallest-|a| integer translating the target patch into the set.

    Finds a with ``target intersect [-N, N] subseteq { n : a + p_i(n) in S
    for all i }``, searching only a for which every evaluation stays
    inside S's window: the a in the planar set's column at every patch
    point, decided by its column routine over the patch's distinct values.
    Ties between a and -a resolve to the positive one; with no p_i, a = 0.
    Returns None when no such a exists in the feasible range.
    """
    patch_lo, patch_hi = max(target.lo, -n_bound), min(target.hi, n_bound)
    if patch_lo > patch_hi:
        raise EmptySetError("target has no points in [-N, N]")
    points = list(target.restrict(patch_lo, patch_hi).members())
    if not points:
        raise EmptySetError("target has no points in [-N, N]")
    values = sorted({p.eval(n) for n in points for p in family.polys})
    a_lo, a_hi = s.lo - min(values, default=s.lo), s.hi - max(values, default=s.hi)
    if a_lo > a_hi:
        return None
    feasible = _in_set_at(s, values, a_lo, bitops.mask_of(a_hi - a_lo + 1))
    if not feasible:
        return None
    # the nearest set bit to a = 0 is the lowest one at or above it or the
    # highest one below it; ties to the positive side
    p0 = max(-a_lo, 0)
    above = feasible >> p0 << p0
    below = feasible ^ above
    nearest = [a_lo + bitops.lowest_set_bit(above)] if above else []
    if below:
        nearest.append(a_lo + below.bit_length() - 1)
    return min(nearest, key=lambda a: (abs(a), -a))
