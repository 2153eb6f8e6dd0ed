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
(equal to ``eval``), planar column by column with the times m + p_i(n).
An even family (p_i(-n) = p_i(n) for every i, as for n^2 or n^4 + n^2)
is decided once per |n| and mirrored onto the negative times.

Period lemma: an integer-valued p of degree d has p(n + Q d!) = p(n)
mod Q, as it sums integer multiples of C(n, k) = f_k(n) / k!, k <= d,
with f_k in Z[n].  So when T^Q x = x (``fold_period``) the return set
on Z has period P = Q d!, in m too for the planar set (Q divides P), and
``scan`` decides one period and tiles it.  Named constants never fold:
their P would be about 2^256.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from . import bitops
from .check import PwsCert2D
from .errors import BadBoundError, BadEpsilonError, EmptySetError
from .polynomials import PolyFamily
from .systems import PointLike, SystemSpec, fold_period, scan
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


def return_set_1d(q: ReturnQuery) -> WindowSet:
    """{ n in window : T^{p_i(n)} x lies in the ball for every i }.

    When every p_i is even, n and -n ask the same question, so a window
    reaching below 0 is decided on the |n| range [dlo, dhi] only (itself
    tiled when it folds); the n < 0 part of the mask is its bits reversed.
    """
    lo, hi = q.window
    polys = q.family.polys
    fold = lo < 0 and lo <= hi and all(p.is_even() for p in polys)
    dlo, dhi = (max(0, -hi), max(hi, -lo)) if fold else (lo, hi)
    mask = scan(q.sys, q.x, q.eps, lambda start, size: [
        (q.center, p.progression(start, size)) for p in polys
    ], dlo, dhi, fold_period(q.sys, q.x, q.family))
    if fold:  # bit k - dlo holds |n| = k; n = -k goes to bit -k - lo
        width = -lo - dlo + 1
        below = bitops.reverse_bits(mask & bitops.mask_of(width), width)
        mask = below | ((mask & bitops.mask_of(max(0, hi + 1))) << -lo)
    return WindowSet(lo, hi, mask)


def return_set_2d(q: ReturnQuery) -> GridSet:
    """{ (m, n) in box : T^{m + p_i(n)} x lies in the ball for every i }; on
    a box taller than its ``fold_period`` P, the columns of one P repeat."""
    mlo, mhi, nlo, nhi = q.window
    period = fold_period(q.sys, q.x, q.family)

    def column(n: int) -> int:
        values = [p.eval(n) for p in q.family.polys]
        return scan(q.sys, q.x, q.eps, lambda start, size: [
            (q.center, range(start + v, start + v + size)) for v in values
        ], mlo, mhi, period)

    last = nhi if period is None else min(nhi, nlo + period - 1)
    cols = [column(n) for n in range(nlo, last + 1)]
    cols = [cols[i % len(cols)] for i in range(nhi - nlo + 1)]
    return GridSet._from_cols(q.window, cols)


def combinatorial_set_2d(
    s: WindowSet, family: PolyFamily, box: Tuple[int, int, int, int]
) -> Tuple[GridSet, GridSet]:
    """Members and validity of { (m, n) : m + p_i(n) in S for all i }.

    validity marks the (m, n) whose evaluations all land inside S's
    window; members is a subset of validity by construction.
    """
    mlo, mhi, nlo, nhi = box
    m_mask = bitops.mask_of(mhi - mlo + 1)
    member_cols = []
    valid_cols = []
    for n in range(nlo, nhi + 1):
        values = [p.eval(n) for p in family.polys]
        # for each i, m must lie in [S.lo - v_i, S.hi - v_i]
        a = max(mlo, max(s.lo - v for v in values))
        b = min(mhi, min(s.hi - v for v in values))
        valid_col = bitops.mask_of(b - a + 1) << (a - mlo) if a <= b else 0
        member_col = valid_col
        for v in values:
            if not member_col:
                break
            off = mlo + v - s.lo
            col = s.mask >> off if off >= 0 else s.mask << -off
            member_col &= col & m_mask
        valid_cols.append(valid_col)
        member_cols.append(member_col)
    return GridSet._from_cols(box, member_cols), GridSet._from_cols(box, valid_cols)


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
    for dilated in column_dilations(members.cols, members.m_width, b1, b2, validity.cols):
        pass
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
    inside S's window.  Ties between a and -a resolve to the positive
    one.  Returns None when no such a exists in the feasible range.
    """
    patch_lo, patch_hi = max(target.lo, -n_bound), min(target.hi, n_bound)
    if patch_lo > patch_hi:
        raise EmptySetError("target has no points in [-N, N]")
    patch = target.restrict(patch_lo, patch_hi)
    points = list(patch.members())
    if not points:
        raise EmptySetError("target has no points in [-N, N]")
    values = sorted({p.eval(n) for n in points for p in family.polys})
    a_lo = s.lo - values[0]
    a_hi = s.hi - values[-1]
    if a_lo > a_hi:
        return None
    width = a_hi - a_lo + 1
    feasible = bitops.mask_of(width)
    for v in values:
        off = a_lo + v - s.lo  # >= 0 by choice of a_lo
        feasible &= (s.mask >> off) & bitops.mask_of(width)
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
