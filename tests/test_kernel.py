"""``iterate`` and the batched ball predicate ``hit_indices`` against the
per-point code they replaced.

The oracles below are the earlier per-point implementation, kept verbatim
apart from taking the system as an argument and from reading a subshift
word, now a ``WindowSet``, through its window bounds and ``in`` (the
rank-by-rank letter loop is unchanged).  They work on points in the
old form: ``Fraction`` coordinates on a rational system, integers at
2^bits on a named-constant one (``old_form`` converts).  They are
``iterate`` with its own mod-1, floor and fixed-point product, ``in_ball``
(for the Heisenberg group the minimum over the lattice translates of the
center, with r the nearest integer in z), and the return-set
and recurrence loops that call both once per (time, polynomial) pair.
The library must give the same points, decisions and masks bit for bit.

The per-n ``--oracle`` of ``psynd returns``, which the one-period oracle
replaced, is kept verbatim as ``model_rational_rotation_oracle``.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psynd import (
    GridSet,
    HeisenbergNil,
    IndicatorSubshift,
    PolyFamily,
    ReturnQuery,
    SkewProduct,
    TorusRotation,
    WindowExhaustedError,
    WindowSet,
    parse_polynomial,
    parse_real,
    recurrence_times,
    return_set_1d,
    return_set_2d,
)
import psynd.cli
from psynd import bitops
from psynd.cli import _rational_rotation_oracle, main
from psynd.errors import BadEpsilonError, NotNormalFormError
from psynd.polynomials import reduce_to_normal_form
from psynd.systems import CHUNK, Point, _below, _walk, arc_mask, fold_period


def hits(sys, x, center, eps, times):
    """[T^t x in B(center, eps) for t in times]: ``hit_indices`` as flags."""
    found = set(sys.hit_indices(x, center, eps, times))
    return [i in found for i in range(len(times))]


# -- oracles: the per-point code the kernel replaced --------------------


def old_form(sys, p):
    """A point as the oracles take it: integers at 2^bits on the fixed path."""
    if isinstance(p, WindowSet) or sys.exact:
        return p
    scaled = [c * (1 << sys.bits) for c in p]
    assert all(v.denominator == 1 for v in scaled)
    return tuple(int(v) for v in scaled)


def _mod1(sys, v):
    if sys.exact:
        return v % 1
    return v & ((1 << sys.bits) - 1)


def _value(sys, spec):
    if sys.exact:
        return spec.as_fraction() % 1
    return spec.fixed(sys.bits) & ((1 << sys.bits) - 1)


def _floor(sys, v) -> int:
    if sys.exact:
        return v.numerator // v.denominator
    return v >> sys.bits


def _mul(sys, u, v):
    if sys.exact:
        return u * v
    return (u * v) >> sys.bits


def _c2(n: int) -> int:
    return n * (n - 1) // 2


def _reduce(sys, a, b, c) -> Point:
    x = _mod1(sys, a)
    y = _mod1(sys, b)
    # a * floor(b) is an int-by-value product: exact in both modes
    z = _mod1(sys, c - a * _floor(sys, b))
    return (x, y, z)


def oracle_iterate(sys, x, n):
    """T^n x on an old-form point, in closed form."""
    if isinstance(sys, TorusRotation):
        params = [_value(sys, a) for a in sys.alphas]
        return tuple(_mod1(sys, c + n * s) for c, s in zip(x, params))
    if isinstance(sys, SkewProduct):
        a = _value(sys, sys.alpha)
        u, v = x
        return (_mod1(sys, u + n * a), _mod1(sys, v + n * u + _c2(n) * a))
    if isinstance(sys, HeisenbergNil):
        a, b = _value(sys, sys.alpha), _value(sys, sys.beta)
        ab = _mul(sys, a, b)
        u, v, w = x
        return _reduce(sys, u + n * a, v + n * b, w + _c2(n) * ab + _mul(sys, n * a, v))
    if not x.lo <= n <= x.hi:
        raise WindowExhaustedError(
            f"shift by {n} loses the center letter (window [{x.lo},{x.hi}])"
        )
    return x.shift(-n)


def _as_eps(eps) -> Fraction:
    e = Fraction(eps)
    if e <= 0:
        raise BadEpsilonError(f"epsilon must be > 0, got {eps}")
    return e


def _circle_dist(sys, a, c):
    if sys.exact:
        d = (a - c) % 1
        return min(d, 1 - d)
    mask = (1 << sys.bits) - 1
    d = (a - c) & mask
    return min(d, (1 << sys.bits) - d)


def _lt_eps(sys, dist, eps: Fraction) -> bool:
    # strict comparison, exact in both modes
    if sys.exact:
        return dist < eps
    return dist * eps.denominator < eps.numerator << sys.bits


def _translates(sys, a: Point, c: Point):
    # p, q in {-1, 0, 1}; r is the integer nearest to a's z for each q
    a3 = a[2]
    c1, c2, c3 = c
    one = Fraction(1) if sys.exact else (1 << sys.bits)
    for q in (-1, 0, 1):
        b2 = c2 + q * one
        zq = c3 + _mul(sys, c1, q * one)
        r = (2 * (a3 - zq) + one) // (2 * one)
        for p_ in (-1, 0, 1):
            b1 = c1 + p_ * one
            yield (b1, b2, zq + r * one)


def _dist2(sys, a: Point, c: Point):
    best = None
    a1, a2, a3 = a
    for t1, t2, t3 in _translates(sys, a, c):
        d1 = a1 - t1
        d2_ = a2 - t2
        d3 = a3 - t3
        val = d1 * d1 + d2_ * d2_ + d3 * d3
        if best is None or val < best:
            best = val
    return best


def oracle_in_ball(sys, a, c, eps) -> bool:
    e = _as_eps(eps)
    if isinstance(sys, (TorusRotation, SkewProduct)):
        return all(
            _lt_eps(sys, _circle_dist(sys, u, v), e)
            for u, v in zip(a, c)
        )
    if isinstance(sys, HeisenbergNil):
        if not _lt_eps(sys, _circle_dist(sys, a[0], c[0]), e):
            return False
        if not _lt_eps(sys, _circle_dist(sys, a[1], c[1]), e):
            return False
        d2 = _dist2(sys, a, c)
        if sys.exact:
            return d2 < e * e
        return d2 * e.denominator ** 2 < (e.numerator ** 2) << (2 * sys.bits)
    t = 1 / e - 1
    k_ref = t.numerator // t.denominator
    for k in range(0, k_ref + 1):
        for i in (k, -k) if k else (0,):
            if not (a.lo <= i <= a.hi and c.lo <= i <= c.hi):
                raise WindowExhaustedError(
                    f"ball decision at eps={eps} needs letters to radius {k_ref}"
                )
            if (i in a) != (i in c):
                return False
    return True


def oracle_point_distance(sys, a: Point, c: Point):
    if isinstance(sys, HeisenbergNil):
        d2 = _dist2(sys, a, c)
        if sys.exact:
            return float(d2) ** 0.5
        return (d2 / (1 << (2 * sys.bits))) ** 0.5
    dist = max(_circle_dist(sys, u, v) for u, v in zip(a, c))
    if sys.exact:
        return dist
    return Fraction(dist, 1 << sys.bits)


def oracle_return_set_1d(q: ReturnQuery) -> WindowSet:
    lo, hi = q.window
    sys, eps = q.sys, q.eps
    x, center = old_form(sys, q.x), old_form(sys, q.center)
    polys = q.family.polys
    mask = 0
    for n in range(lo, hi + 1):
        if all(oracle_in_ball(sys, oracle_iterate(sys, x, p.eval(n)), center, eps) for p in polys):
            mask |= 1 << (n - lo)
    return WindowSet(lo, hi, mask)


def oracle_return_set_2d(q: ReturnQuery) -> GridSet:
    mlo, mhi, nlo, nhi = q.window
    sys, eps = q.sys, q.eps
    x, center = old_form(sys, q.x), old_form(sys, q.center)
    polys = q.family.polys
    rows = [0] * (mhi - mlo + 1)
    for n in range(nlo, nhi + 1):
        values = [p.eval(n) for p in polys]
        bit = 1 << (n - nlo)
        for m in range(mlo, mhi + 1):
            if all(
                oracle_in_ball(sys, oracle_iterate(sys, x, m + v), center, eps) for v in values
            ):
                rows[m - mlo] |= bit
    return GridSet((mlo, mhi, nlo, nhi), rows)


def oracle_recurrence_times(sys, x, family, radius, eps, n_bound) -> WindowSet:
    if reduce_to_normal_form(family).covering:  # a zero member raises there
        raise NotNormalFormError(f"family not in normal form: {family!r}")
    x = old_form(sys, x)
    slopes = family.linear_slopes()
    higher = [p for p in family.polys if p.degree >= 2]
    base_tail = [
        [oracle_iterate(sys, x, p.eval(j)) for p in higher]
        for j in range(-radius, radius + 1)
    ]
    mask = 0
    for n in range(-n_bound, n_bound + 1):
        ok = all(
            oracle_in_ball(sys, oracle_iterate(sys, x, a * n), x, eps) for a in slopes
        )
        if ok:
            for idx, j in enumerate(range(-radius, radius + 1)):
                row = base_tail[idx]
                if not all(
                    oracle_in_ball(sys, oracle_iterate(sys, x, p.eval(n + j)), row[pi], eps)
                    for pi, p in enumerate(higher)
                ):
                    ok = False
                    break
        if ok:
            mask |= 1 << (n + n_bound)
    return WindowSet(-n_bound, n_bound, mask)


def model_rational_rotation_oracle(sys_obj: dict, family: PolyFamily, eps, lo: int, hi: int) -> WindowSet:
    """Independent modular-arithmetic evaluation for 1-dim rational rotations
    started at 0 with center 0.  It calls ``p.eval(n)`` per n on purpose, to
    share no evaluation code with the forward-difference path it checks."""
    alpha = Fraction(sys_obj["alpha"][0] if isinstance(sys_obj["alpha"], list) else sys_obj["alpha"])
    q = alpha.denominator
    a = alpha.numerator % q
    e = Fraction(eps)
    allowed = {r for r in range(q) if min(Fraction(r, q), Fraction(q - r, q)) < e}
    mask = 0
    for n in range(lo, hi + 1):
        if all((p.eval(n) * a) % q in allowed for p in family.polys):
            mask |= 1 << (n - lo)
    return WindowSet(lo, hi, mask)


# -- strategies ----------------------------------------------------------

EPSILONS = [Fraction(1, 1000), Fraction(1, 5), Fraction(3, 10), Fraction(1, 2), Fraction(2, 3)]
# ["n^2"], ["n^2", "n^4"] and ["n^4+n^2"] are even: return_set_1d decides
# them once per |n| and mirrors the mask
FAMILIES = [
    ["n"], ["n^2"], ["n", "n^2"], ["n^3+n"], ["2n", "n^2", "n^3+n"], ["n^2", "n^4"], ["n^4+n^2"],
]
NORMAL_FAMILIES = [["n"], ["n^2"], ["n", "n^2"], ["n^3+n"], ["-n", "2n", "n^2"]]
# a planar set merges the intervals [mlo + v, mhi + v] over the values v of a
# member into runs; n^5 and n^3 spread their values wider than a box is long,
# so most columns keep a run of their own, and members come in either order
RUN_FAMILIES = [["n", "n^5"], ["n^3", "n"], ["n^2", "n^3"]]
NAMES = ["sqrt2", "sqrt3", "golden", "e", "pi"]

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def reals(draw, named: bool) -> str:
    offset = draw(rationals)
    if not named:
        return str(offset)
    name = draw(st.sampled_from(NAMES))
    return f"{name}{'+' if offset >= 0 else '-'}{abs(offset)}"


@st.composite
def systems(draw):
    named = draw(st.booleans())
    bits = draw(st.sampled_from([128, 256]))
    kind = draw(st.sampled_from(["rotation1", "rotation2", "skew", "heisenberg"]))
    if kind.startswith("rotation"):
        dim = int(kind[-1])
        alphas = [parse_real(draw(reals(named))) for _ in range(dim)]
        if named and dim == 2 and draw(st.booleans()):
            alphas[1] = parse_real(draw(reals(False)))  # mixed: one rational axis
        return TorusRotation(tuple(alphas), bits=bits)
    if kind == "skew":
        return SkewProduct(parse_real(draw(reals(named))), bits=bits)
    return HeisenbergNil(parse_real(draw(reals(named))), parse_real(draw(reals(named))), bits=bits)


@st.composite
def points(draw, sys) -> Point:
    dim = len(sys.base_point())
    if sys.exact:
        return sys.make_point([draw(rationals) for _ in range(dim)])
    scale = 1 << sys.bits
    return tuple(Fraction(draw(st.integers(0, scale - 1)), scale) for _ in range(dim))


@st.composite
def queries(draw):
    """(system, x, center, eps): center is x, an iterate of x, or unrelated."""
    sys = draw(systems())
    x = draw(points(sys))
    how = draw(st.sampled_from(["same", "orbit", "random"]))
    if how == "same":
        center = x
    elif how == "orbit":
        center = sys.iterate(x, draw(st.integers(-50, 50)))
    else:
        center = draw(points(sys))
    return sys, x, center, draw(st.sampled_from(EPSILONS))


# small denominators keep P = Q d! near the window widths below, so that
# windows both shorter and longer than P occur
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def rational_queries(draw):
    """(system, x, center, eps) on a rational system; center is x or an iterate of it."""
    kind = draw(st.sampled_from(["rotation1", "rotation2", "skew", "heisenberg"]))
    real = lambda: parse_real(str(draw(small_rationals)))  # noqa: E731
    if kind.startswith("rotation"):
        sys = TorusRotation(tuple(real() for _ in range(int(kind[-1]))))
    elif kind == "skew":
        sys = SkewProduct(real())
    else:
        sys = HeisenbergNil(real(), real())
    x = sys.make_point([draw(small_rationals) for _ in sys.base_point()])
    center = sys.iterate(x, draw(st.integers(-50, 50))) if draw(st.booleans()) else x
    return sys, x, center, draw(st.sampled_from(EPSILONS))


# across 0 (often asymmetric), all negative, all positive, and the
# one-point windows [0, 0] and [-1, -1]
window = st.one_of(
    st.sampled_from([(0, 0), (-1, -1)]),
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(lambda w: (min(w), max(w))),
)

box = st.tuples(st.integers(-9, 0), st.integers(0, 9), st.integers(-6, 0), st.integers(0, 6))


# -- differential tests --------------------------------------------------


@given(st.integers(-(10**9), 10**9).filter(bool))
@settings(max_examples=100, deadline=None)
def test_is_even_matches_eval(n):
    # p(-n) - p(n) of the odd-part polynomials below vanishes only at n = 0
    for text, even in [("0", True), ("n", False), ("n^2", True), ("n^3+n", False),
                       ("n^2+n", False), ("n^4-n^2", True)]:
        p = parse_polynomial(text)
        assert p.is_even() is even
        assert (p.eval(-n) == p.eval(n)) is even


@given(st.integers(-(10**9), 10**9).filter(bool))
@settings(max_examples=100, deadline=None)
def test_is_odd_matches_eval(n):
    # p(-n) + p(n) of the polynomials below that are not odd has no root but 0
    # (2n^2, 2, -n^2); the zero polynomial is both even and odd
    for text, odd in [("0", True), ("n", True), ("-3n", True), ("n^2", False),
                      ("n^3+n", True), ("n^2+n", False), ("n^3+1", False), ("[0,0,0,1]", False),
                      ("n^5-4n^3", True)]:
        p = parse_polynomial(text)
        assert p.is_odd() is odd
        assert (p.eval(-n) == -p.eval(n)) is odd


@given(queries(), st.lists(st.integers(-(10**12), 10**12), max_size=40))
@settings(max_examples=300, deadline=None)
def test_hits_matches_per_point_ball_test(query, times):
    sys, x, center, eps = query
    ox, oc = old_form(sys, x), old_form(sys, center)
    orbit = [oracle_iterate(sys, ox, t) for t in times]
    assert [old_form(sys, sys.iterate(x, t)) for t in times] == orbit
    assert hits(sys, x, center, eps, times) == [oracle_in_ball(sys, p, oc, eps) for p in orbit]
    assert hits(sys, x, center, eps, [0]) == [oracle_in_ball(sys, ox, oc, eps)]
    assert sys.point_distance(x, center) == oracle_point_distance(sys, ox, oc)


TIME_POLYS = [parse_polynomial(t) for t in ["n^2", "n^3+n", "2n", "n^2-3n"]]


@st.composite
def time_lists(draw, spread: int, most: int):
    """Up to ``most`` times: a ``range`` of step +-1 or +-3 from within +-spread,
    or a list of polynomial values; empty ones included."""
    count = draw(st.integers(0, most))
    if draw(st.booleans()):
        start, step = draw(st.integers(-spread, spread)), draw(st.sampled_from([1, -1, 3, -3]))
        return range(start, start + step * count, step)
    lo = draw(st.integers(-isqrt(spread), isqrt(spread)))
    return draw(st.sampled_from(TIME_POLYS)).values(lo, count)


@st.composite
def positions(draw, count: int):
    """A sorted subset of range(count): empty, full or sparse."""
    how = draw(st.sampled_from(["empty", "full", "sparse"]))
    if how != "sparse":
        return list(range(count)) if how == "full" else []
    keep = random.Random(draw(st.integers(0, 2**32))).random
    density = draw(st.sampled_from([0.05, 0.3, 0.9]))
    return [i for i in range(count) if keep() < density]


@given(queries(), st.data())
@settings(max_examples=300, deadline=None)
def test_hit_indices_keeps_the_hits_among_the_positions_handed(query, data):
    # ranges walk when handed every position, and are tested time by time otherwise
    sys, x, center, eps = query
    times = data.draw(time_lists(10**12, 300))
    near = data.draw(positions(len(times)))
    every = set(sys.hit_indices(x, center, eps, times))
    assert sys.hit_indices(x, center, eps, times, near) == [i for i in near if i in every]


@given(st.integers(0, 2**41 - 1), st.integers(-20, 20),
       st.sampled_from(EPSILONS + [Fraction(1, 10), Fraction(3, 2)]), st.data())
@settings(max_examples=300, deadline=None)
def test_subshift_hit_indices_on_positions_matches_the_gathered_times(bits, shift, eps, data):
    # the letters of the whole time list widen w but decide nothing: the same
    # hits as the times at the positions alone, or the same first raise
    base = WindowSet(-20, 20, bits)
    if base.is_empty():
        base = WindowSet(-20, 20, 1 << 20)
    sys = IndicatorSubshift(base)
    x = sys.base_point()
    center = sys.iterate(x, shift)
    times = data.draw(time_lists(20, 15))
    near = data.draw(positions(len(times)))
    try:
        want = [near[i] for i in sys.hit_indices(x, center, eps, [times[i] for i in near])]
    except WindowExhaustedError as exc:
        with pytest.raises(WindowExhaustedError) as raised:
            sys.hit_indices(x, center, eps, times, near)
        assert str(raised.value) == str(exc)
    else:
        assert sys.hit_indices(x, center, eps, times, near) == want


@pytest.mark.parametrize("sys", [
    TorusRotation((parse_real("sqrt2"),)),
    TorusRotation((parse_real("1/7"),)),
    IndicatorSubshift(WindowSet.full(-3, 3)),
], ids=["sqrt2", "rational", "subshift"])
def test_empty_family_keeps_the_whole_window_and_box(sys):
    # no pair is asked: every n of the window, also past one chunk and past a
    # known part, and every cell of the box, is a member
    x, none = sys.base_point(), PolyFamily(())
    win, box = (-CHUNK, CHUNK + 10), (-5, 5, -3, 3)
    assert return_set_1d(ReturnQuery(sys, x, x, Fraction(1, 5), none, win)) == WindowSet.full(*win)
    known = WindowSet.full(-10, 10)
    got = return_set_1d(ReturnQuery(sys, x, x, Fraction(1, 5), none, win), known=known)
    assert got == WindowSet.full(*win)
    assert return_set_2d(ReturnQuery(sys, x, x, Fraction(1, 5), none, box)) == GridSet.full(box)


def test_heisenberg_ball_takes_the_nearest_translate_in_z():
    # the nearest translate of the center, (9/10, 21/20, -3/20), is two
    # lattice steps away in z: sqrt(0.0325) ~ 0.180, where a single wrap
    # of z gave sqrt(0.7325) ~ 0.856
    heis = HeisenbergNil(parse_real("1/3"), parse_real("1/5"))
    a = heis.make_point(["9/10", "19/20", "0"])
    c = heis.make_point(["9/10", "1/20", "19/20"])
    assert heis.point_distance(a, c) == oracle_point_distance(heis, a, c) == 0.0325 ** 0.5
    assert hits(heis, a, c, Fraction(1, 2), [0]) == [True]
    assert oracle_in_ball(heis, a, c, Fraction(1, 2))


# eps <= 1/2 takes one translate of the center, the one nearest in y; above,
# three.  The draws put y on both sides of the switch
BOUNDARY_EPSILONS = [Fraction(1, 5), Fraction(49, 100), Fraction(1, 2), Fraction(51, 100),
                     Fraction(2, 3)]
near_edge = st.fractions(0, Fraction(1, 20), max_denominator=10**6)
near_zero = st.one_of(near_edge, near_edge.map(lambda v: -v))
unit_interval = st.fractions(0, 1, max_denominator=10**6)
small_offset = st.fractions(Fraction(-3, 10), Fraction(3, 10), max_denominator=10**6)


@st.composite
def boundary_queries(draw):
    """(system, x, center, eps, times): at the first time, T^t x has its y
    near 0 or 1 with the center's also near 0 or 1, so that the translate
    nearest in y is q = -1, 0 or 1, or 1/2 + a little from the center's, so
    that two translates are about as near; its x is near the center's, and
    its z near that of the translate q, which need not be the nearest."""
    named = draw(st.booleans())
    alpha, beta = (parse_real(draw(reals(named))) for _ in range(2))
    sys = HeisenbergNil(alpha, beta, bits=draw(st.sampled_from([128, 256])))
    scale = 1 << sys.bits
    snap = (lambda v: v % 1) if sys.exact else (lambda v: Fraction(int(v % 1 * scale), scale))
    c1, c3 = snap(draw(unit_interval)), snap(draw(unit_interval))
    c2 = snap(draw(near_zero))
    y = draw(st.one_of(near_zero, near_zero.map(lambda v: c2 + Fraction(1, 2) + v)))
    q = draw(st.sampled_from([-1, 0, 1]))
    target = tuple(snap(v) for v in (c1 + draw(small_offset), y, c3 + q * c1 + draw(small_offset)))
    center = (c1, c2, c3)
    t0 = draw(st.integers(-(10**12), 10**12))
    times = [t0] + draw(st.lists(st.integers(-(10**12), 10**12), max_size=20))
    return sys, sys.iterate(target, -t0), center, draw(st.sampled_from(BOUNDARY_EPSILONS)), times


@given(boundary_queries())
@settings(max_examples=400, deadline=None)
def test_heisenberg_hits_across_the_one_translate_switch(query):
    sys, x, center, eps, times = query
    ox, oc = old_form(sys, x), old_form(sys, center)
    want = [oracle_in_ball(sys, oracle_iterate(sys, ox, t), oc, eps) for t in times]
    assert hits(sys, x, center, eps, times) == want


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("eps", BOUNDARY_EPSILONS)
def test_heisenberg_ball_edge_in_z(bits, eps):
    # d1 and dy spend half the budget; the z residual +-k fits what is left
    # and +-(k + 1) does not, where k < m/2 is the nearest-r residual.  The
    # translate nearest in y is q, by the center's y near 0, at m/3 or near 1
    m = 1 << bits
    sys = HeisenbergNil(parse_real("sqrt2-1"), parse_real("sqrt3-1"), bits=bits)
    half, limit = _below(eps, m), _below(eps * eps, m * m)
    d1 = dy = half // 2
    k = isqrt(limit - d1 * d1 - dy * dy)
    c1, c3 = m // 5, m // 7
    for q, c2 in [(-1, m - 5), (0, m // 3), (1, 5)]:
        dy_q = -dy if q == 1 else dy
        c = tuple(Fraction(v, m) for v in (c1, c2, c3))
        for sign in (1, -1):
            for j in (0, 1):
                at = [c1 + d1, c2 + dy_q + q * m, c3 + q * c1 + sign * (k + j)]
                p = tuple(Fraction(v % m, m) for v in at)
                assert hits(sys, p, c, eps, [0]) == [j == 0]
                assert oracle_in_ball(sys, old_form(sys, p), old_form(sys, c), eps) is (j == 0)


@given(queries(), window, st.sampled_from(FAMILIES))
@settings(max_examples=150, deadline=None)
def test_return_set_1d_matches_per_point_loop(query, win, fam):
    sys, x, center, eps = query
    q = ReturnQuery(sys, x, center, eps, PolyFamily.parse(fam), win)
    assert return_set_1d(q) == oracle_return_set_1d(q)


@given(st.one_of(queries(), rational_queries()), box, st.sampled_from(FAMILIES + RUN_FAMILIES))
@settings(max_examples=200, deadline=None)
def test_return_set_2d_matches_per_point_loop(query, box, fam):
    # a rational query often has a fold period below the box's sides
    sys, x, center, eps = query
    q = ReturnQuery(sys, x, center, eps, PolyFamily.parse(fam), box)
    assert return_set_2d(q) == oracle_return_set_2d(q)


@given(queries(), st.sampled_from(NORMAL_FAMILIES), st.integers(0, 2), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_recurrence_times_matches_per_point_loop(query, fam, radius, n_bound):
    sys, x, _, eps = query
    family = PolyFamily.parse(fam)
    got = recurrence_times(sys, x, family, radius, eps, n_bound)
    assert got == oracle_recurrence_times(sys, x, family, radius, eps, n_bound)


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(2, 3)])
def test_windows_longer_than_a_chunk(eps):
    # at eps 2/3 every time is a member, so a time lost at a chunk edge shows
    half = CHUNK // 2 + 10
    sys = TorusRotation((parse_real("sqrt2"),))
    x = sys.base_point()
    fam = PolyFamily.parse(["n", "n^2"])
    q = ReturnQuery(sys, x, x, eps, fam, (-half, half))
    assert return_set_1d(q) == oracle_return_set_1d(q)
    # the second member's run spans two chunks, where it asks only the times
    # that the cells the first kept reach
    for planar in (fam, PolyFamily.parse(["n^2", "n"])):
        q = ReturnQuery(sys, x, x, eps, planar, (-half, half, -1, 1))
        assert return_set_2d(q) == oracle_return_set_2d(q)
    got = recurrence_times(sys, x, fam, 1, eps, half)
    assert got == oracle_recurrence_times(sys, x, fam, 1, eps, half)
    # an even family: |n| runs over two chunks, mirrored onto the longer
    # negative side, so a time lost at the chunk edge shows at both signs
    even = PolyFamily.parse(["n^2", "n^4"])
    q = ReturnQuery(sys, x, x, eps, even, (-CHUNK - 10, half))
    assert return_set_1d(q) == oracle_return_set_1d(q)


@pytest.mark.parametrize("alpha", ["1/5", "2/7"])
@pytest.mark.parametrize("radius, n_bound", [(40, 35), (3, 35 * 60)])
def test_recurrence_rows_reach_below_the_window(alpha, radius, n_bound):
    # row j reads p(n + j) from n + j = -n_bound - radius on, below the
    # window, to n_bound + radius above it; in the wide case the second
    # chunk's rows reach into the first.  Members are the multiples of q,
    # n_bound among them, so every row reads its table to both ends
    sys = TorusRotation((parse_real(alpha),))
    x = sys.base_point()
    fam = PolyFamily.parse(["n", "n^2", "n^3+n"])
    got = recurrence_times(sys, x, fam, radius, Fraction(1, 10), n_bound)
    assert got == oracle_recurrence_times(sys, x, fam, radius, Fraction(1, 10), n_bound)
    assert not got.is_empty()


def _same_or_both_exhausted(oracle, kernel, q):
    try:
        want = oracle(q)
    except WindowExhaustedError:
        with pytest.raises(WindowExhaustedError):
            kernel(q)
    else:
        assert kernel(q) == want


@given(
    st.integers(0, 2**41 - 1),
    st.integers(-20, 20),
    window,
    box,
    st.sampled_from(FAMILIES),
    st.sampled_from(EPSILONS + [Fraction(1, 10), Fraction(3, 2)]),
)
@settings(max_examples=150, deadline=None)
def test_subshift_matches_per_point_loop(bits, shift, win, box, fam, eps):
    # a pair the per-point loop would not reach never raises in the kernel
    # either: both give the same set, or both run out of letters
    base = WindowSet(-20, 20, bits)
    if base.is_empty():
        base = WindowSet(-20, 20, 1 << 20)
    sys = IndicatorSubshift(base)
    x = sys.base_point()
    center = sys.iterate(x, shift)
    family = PolyFamily.parse(fam)
    _same_or_both_exhausted(oracle_return_set_1d, return_set_1d,
                            ReturnQuery(sys, x, center, eps, family, win))
    _same_or_both_exhausted(oracle_return_set_2d, return_set_2d,
                            ReturnQuery(sys, x, center, eps, family, box))


# -- rational systems: one period decided, then tiled ----------------------

# C(n, 2) and C(n, 3) are not integer polynomials: p(n + Q) = p(n) mod Q
# can fail for them, and only p(n + Q d!) = p(n) mod Q holds
FOLD_FAMILIES = FAMILIES + [["[0,0,1]"], ["n", "[0,0,0,1]"]]

# up to 300 points: mostly across 0 or all negative
wide_window = st.tuples(st.integers(-320, 20), st.integers(1, 300)).map(
    lambda t: (t[0], t[0] + t[1] - 1)
)


@given(rational_queries(), wide_window, st.sampled_from(FOLD_FAMILIES))
@settings(max_examples=80, deadline=None)
def test_folded_return_set_1d_matches_per_point_loop(query, win, fam):
    sys, x, center, eps = query
    q = ReturnQuery(sys, x, center, eps, PolyFamily.parse(fam), win)
    assert return_set_1d(q) == oracle_return_set_1d(q)


@given(
    rational_queries(),
    st.sampled_from(NORMAL_FAMILIES + [["n", "[0,0,1]"]]),
    st.integers(0, 2),
    st.integers(0, 120),
)
@settings(max_examples=40, deadline=None)
def test_folded_recurrence_times_matches_per_point_loop(query, fam, radius, n_bound):
    sys, x, _, eps = query
    family = PolyFamily.parse(fam)
    got = recurrence_times(sys, x, family, radius, eps, n_bound)
    assert got == oracle_recurrence_times(sys, x, family, radius, eps, n_bound)


@pytest.mark.parametrize("sys, coords, period", [
    (TorusRotation((parse_real("1/6"),)), ["0"], 6 * 6),
    (TorusRotation((parse_real("1/6"), parse_real("3/4"))), ["1/3", "0"], 12 * 6),
    (SkewProduct(parse_real("2/5")), ["1/2", "0"], 2 * 10 * 6),
    (HeisenbergNil(parse_real("1/3"), parse_real("1/2")), ["0", "1/2", "1/4"], 2 * 12 * 6),
], ids=["rotation1", "rotation2", "skew", "heisenberg"])
def test_windows_wider_than_the_period_fold(sys, coords, period):
    # P = Q d! with d = 3 for n^3 + n, and the window holds about 2.5 periods
    x = sys.make_point(coords)
    fam = PolyFamily.parse(["n", "n^3+n"])
    assert fold_period(sys, x, fam) == period
    half = 5 * period // 4
    q = ReturnQuery(sys, x, x, Fraction(3, 10), fam, (-half, half))
    assert return_set_1d(q) == oracle_return_set_1d(q)
    got = recurrence_times(sys, x, fam, 1, Fraction(3, 10), half)
    assert got == oracle_recurrence_times(sys, x, fam, 1, Fraction(3, 10), half)
    # planar, with P = Q 2! for [n, n^2]: one box wider than P in m and
    # narrower in n, folded in m; one the other way round, folded in n
    fam = PolyFamily.parse(["n", "n^2"])
    period = fold_period(sys, x, fam)
    for a, b in ((5 * period // 8, period // 4), (period // 4, 5 * period // 8)):
        q = ReturnQuery(sys, x, x, Fraction(3, 10), fam, (-a, a, -b, b))
        assert return_set_2d(q) == oracle_return_set_2d(q)


def test_heisenberg_folds_at_2l_squared_when_2l_fails():
    # 2L = 2 lcm(8, 5, 4) = 80, but the term t a y of T^80 x is 80 * 3/8 * 1/4
    # = 15/2, so T^80 x != x and the set is not 80-periodic.  At 2L^2 = 3200
    # every term is an integer: the window of 3601 points folds at P = 3200
    heis = HeisenbergNil(parse_real("3/8"), parse_real("1/5"))
    x = heis.make_point(["0", "1/4", "0"])
    fam = PolyFamily.parse(["n"])
    assert heis.iterate(x, 80) != x
    assert fold_period(heis, x, fam) == 3200
    q = ReturnQuery(heis, x, x, Fraction(1, 3), fam, (-1200, 2400))
    want = oracle_return_set_1d(q)
    assert bitops.tile_mask(want.mask, 80, want.width) != want.mask
    assert bitops.tile_mask(want.mask, 3200, want.width) == want.mask
    assert return_set_1d(q) == want
    got = recurrence_times(heis, x, fam, 0, Fraction(1, 3), 1700)
    assert got == oracle_recurrence_times(heis, x, fam, 0, Fraction(1, 3), 1700)


@pytest.mark.parametrize("sys", [
    TorusRotation((parse_real("sqrt2"),)),
    IndicatorSubshift(WindowSet(-5, 5, 0b10110100101)),
], ids=["named-constant", "subshift"])
def test_no_fold_without_a_rational_period(sys):
    assert fold_period(sys, sys.base_point(), PolyFamily.parse(["n^2"])) is None


@st.composite
def unit_rotations(draw):
    q = draw(st.integers(1, 12))
    a = draw(st.sampled_from([a for a in range(q) if gcd(a, q) == 1]))
    return {"type": "rotation", "alpha": [f"{a + q * draw(st.integers(-1, 1))}/{q}"]}


@given(
    unit_rotations(),
    st.sampled_from([["n^2"], ["n", "n^2"], ["n^3+n"], ["n^4-n^2"], ["2n", "n^4-n^2"],
                     ["[0,0,1]"], ["n", "[0,0,0,0,1]"]]),
    st.sampled_from(EPSILONS),
    st.integers(-400, 400),
    st.integers(1, 700),
)
@settings(max_examples=150, deadline=None)
def test_one_period_oracle_matches_per_n_model(sys_obj, fam, eps, lo, width):
    # n^4 - n^2 or C(n, 4) at q = 12 has P = 288: windows both shorter and
    # longer occur; C(n, k) repeats mod q with period q k!, not q
    family = PolyFamily.parse(fam)
    hi = lo + width - 1
    want = model_rational_rotation_oracle(sys_obj, family, eps, lo, hi)
    assert _rational_rotation_oracle(parse_real(sys_obj["alpha"][0]), family, eps, lo, hi) == want


# -- the three-gap walk --------------------------------------------------
#
# A range of times is walked hit by hit (``systems._walk``); a list, or a
# range the walk declines, is tested time by time.  The walk must give the
# per-time decisions exactly, and decline (None) where the three-gap step
# does not hold: 2 width >= m, or a gap not found within CHUNK steps.

# 1/4 still walks (L < M/4 strictly); 3/10 and 1/2 give 2L >= M/2 and fall back
WALK_EPSILONS = [Fraction(1, 1000), Fraction(1, 10), Fraction(249, 1000), Fraction(1, 4),
                 Fraction(3, 10), Fraction(1, 2)]


def per_time(sys, x, center, eps, times):
    """The per-point ball test at every time."""
    ox, oc = old_form(sys, x), old_form(sys, center)
    return [oracle_in_ball(sys, oracle_iterate(sys, ox, t), oc, eps) for t in times]


def steps(k: int, start: int, count: int) -> range:
    """The times k n for n in [start, start + count): a member n, 2n or -n, or a
    recurrence head of slope k."""
    return range(k * start, k * (start + count), k)


@st.composite
def walk_queries(draw):
    sys, x, center, _ = draw(queries())
    return sys, x, center, draw(st.sampled_from(WALK_EPSILONS))


@given(
    st.sampled_from([60, 97, 1 << 20, 1 << 128, 1 << 256]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_walk_matches_per_time(m, data):
    # the moduli past the exhaustive test below; the powers of 2 are the named path
    if m < 100:
        width = data.draw(st.integers(0, m))
    else:
        width = 2 * _below(data.draw(st.sampled_from(WALK_EPSILONS)), m)
    step = data.draw(st.integers(-m, 2 * m))
    v0 = data.draw(st.integers(-3 * m, 3 * m))
    count = data.draw(st.one_of(st.integers(0, 12), st.integers(0, 400)))
    got = _walk(v0, step, width, m, count)
    if 2 * width >= m:
        assert got is None
    if got is not None:
        assert got == [j for j in range(count) if (v0 + j * step) % m <= width]


def test_walk_matches_per_time_on_every_small_case():
    # every arc, step and start for m <= 16: each boundary v + ua = width,
    # v + ub = 0 and each first hit at index a + b - 1 occurs
    walked = 0
    for m in range(1, 17):
        for width in range(m):
            for step in range(m):
                for v0 in range(m):
                    got = _walk(v0, step, width, m, 3 * m)
                    if 2 * width >= m:
                        assert got is None
                    if got is not None:
                        walked += 1
                        assert got == [j for j in range(3 * m) if (v0 + j * step) % m <= width]
    assert walked > 5000


def test_walk_takes_the_named_constant_steps():
    # sqrt2 at eps 1/10: gaps exist within a few steps, so the walk decides
    m = 1 << 256
    s = parse_real("sqrt2").fixed(256) % m
    width = 2 * _below(Fraction(1, 10), m)
    got = _walk(width // 2, s, width, m, 5000)
    assert got is not None and len(got) > 500
    assert got == [j for j in range(5000) if (width // 2 + j * s) % m <= width]


# -- the block tiling ----------------------------------------------------
#
# ``systems.arc_mask`` decides the same arc tests as the walk, for any arc,
# as one mask built block by block; it must give every per-time decision.


@given(
    st.one_of(
        st.integers(0, 256).map(lambda k: 1 << k),  # the named path, 2^0 to 2^256
        st.integers(1, 40),
        st.integers(1, 1 << 300),
    ),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_arc_mask_matches_per_time(m, data):
    width = data.draw(st.integers(0, m - 1))
    step = data.draw(st.one_of(st.just(0), st.integers(-3 * m, 3 * m), st.integers(-9, 9)))
    v0 = data.draw(st.integers(-3 * m, 3 * m))
    count = data.draw(st.one_of(st.integers(1, 40), st.integers(1, 5000)))
    want = sum(1 << j for j in range(count) if (v0 + j * step) % m <= width)
    assert arc_mask(v0, step, width, m, count) == want


@given(walk_queries(), st.sampled_from([1, 2, -1]), st.integers(-300, 300),
       st.one_of(st.integers(0, 12), st.integers(0, 300)))
@settings(max_examples=250, deadline=None)
def test_walked_hits_match_per_point_ball_test(query, k, start, count):
    # 1- and 2-dim rotations, skew and Heisenberg x; rational, and named at
    # 128 and 256 bits; windows across 0; counts below a + b
    sys, x, center, eps = query
    times = steps(k, start, count)
    assert hits(sys, x, center, eps, times) == per_time(sys, x, center, eps, times)


@given(walk_queries(), st.sampled_from([1, 2, -1]), st.integers(-CHUNK, CHUNK),
       st.integers(CHUNK + 1, CHUNK + 300))
@settings(max_examples=30, deadline=None)
def test_walked_hits_past_a_chunk_match_per_time(query, k, start, count):
    # the list path is the per-time test, itself checked per point above
    sys, x, center, eps = query
    times = steps(k, start, count)
    assert hits(sys, x, center, eps, times) == hits(sys, x, center, eps, list(times))


@given(walk_queries(), window, st.sampled_from([["n"], ["2n", "n^2"], ["-n", "n^2"],
                                                ["n", "-n"]]))
@settings(max_examples=120, deadline=None)
def test_walked_return_set_1d_matches_per_point_loop(query, win, fam):
    sys, x, center, eps = query
    q = ReturnQuery(sys, x, center, eps, PolyFamily.parse(fam), win)
    assert return_set_1d(q) == oracle_return_set_1d(q)


@given(walk_queries(), box, st.sampled_from([["n"], ["n", "n^2"]]))
@settings(max_examples=80, deadline=None)
def test_walked_return_set_2d_matches_per_point_loop(query, box, fam):
    # every column's times m + p_i(n) are a range in m
    sys, x, center, eps = query
    q = ReturnQuery(sys, x, center, eps, PolyFamily.parse(fam), box)
    assert return_set_2d(q) == oracle_return_set_2d(q)


@given(walk_queries(), st.sampled_from(NORMAL_FAMILIES), st.integers(0, 2), st.integers(0, 60))
@settings(max_examples=80, deadline=None)
def test_walked_recurrence_heads_match_per_point_loop(query, fam, radius, n_bound):
    # the heads are ranges of slope 1, -1 or 2
    sys, x, _, eps = query
    family = PolyFamily.parse(fam)
    got = recurrence_times(sys, x, family, radius, eps, n_bound)
    assert got == oracle_recurrence_times(sys, x, family, radius, eps, n_bound)


@given(st.sampled_from([Fraction(1, 1000), Fraction(1, 10), Fraction(249, 1000)]),
       st.sampled_from([1, 2, -1]))
@settings(max_examples=12, deadline=None)
def test_walked_return_sets_longer_than_a_chunk(eps, k):
    sys = TorusRotation((parse_real("golden"),), bits=128)
    x = sys.base_point()
    half = CHUNK // 2 + 10
    fam = PolyFamily.parse([f"{k}n", "n^2"])
    q = ReturnQuery(sys, x, x, eps, fam, (-half, half))
    assert return_set_1d(q) == oracle_return_set_1d(q)


# -- fallbacks -----------------------------------------------------------


@pytest.mark.parametrize("alpha, coord", [
    ("0", "1/7"),    # s = 0: no j s ever lands in [m - width, m)
    ("1/2", "1/7"),  # s = m/2
    ("1/3", "1/5"),  # s/m = 1/3 at m = 15: only 0 of the subgroup is in the arc
])
@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 1000)])
def test_missing_gaps_fall_back_to_per_time(alpha, coord, eps):
    sys = TorusRotation((parse_real(alpha),))
    x = sys.make_point([coord])
    m, (s,), _ = sys._ints(x)
    assert _walk(0, s, 2 * _below(eps, m), m, 100) is None
    for k in (1, 2, -1):
        times = steps(k, -40, 81)
        assert hits(sys, x, x, eps, times) == per_time(sys, x, x, eps, times)


def test_tiny_epsilon_falls_back_to_per_time():
    # at eps 1/10^6 the first return takes more than CHUNK steps
    sys = TorusRotation((parse_real("sqrt2"),))
    x = sys.base_point()
    eps = Fraction(1, 10**6)
    m, (s,) = sys._ints()
    assert _walk(0, s, 2 * _below(eps, m), m, 100) is None
    times = range(-100000, 100001)
    want = hits(sys, x, x, eps, list(times))
    assert any(want) and hits(sys, x, x, eps, times) == want
    got = return_set_1d(ReturnQuery(sys, x, x, eps, PolyFamily.parse(["n"]), (-100000, 100000)))
    assert list(got.members()) == [t for t, hit in zip(times, want) if hit]


def test_rotation_with_no_coordinates_keeps_every_time():
    # in the library; a config's "alpha": [] is refused (test_cli, "bad alpha")
    sys = TorusRotation(())
    x = sys.base_point()
    assert hits(sys, x, x, Fraction(1, 10), range(-5, 6)) == [True] * 11
    got = return_set_1d(ReturnQuery(sys, x, x, Fraction(1, 10), PolyFamily.parse(["n", "n^2"]),
                                    (-5, 5)))
    assert list(got.members()) == list(range(-5, 6))


# -- each return time decided once ---------------------------------------
#
# ``return_set_2d`` decides, member by member, the times m + p_i(n) that the
# cells still alive reach, over runs of the merged intervals [mlo + v, mhi + v];
# ``return_set_1d(q, known=k)`` trusts k where the windows overlap.


@st.composite
def window_pairs(draw):
    """(window, other): other inside, around, across one end of, or apart from
    window, and often mirrored to (-hi, -lo)."""
    lo, hi = draw(window)
    a, b = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    how = draw(st.sampled_from(["nested", "containing", "overlapping", "disjoint"]))
    if how == "nested":
        c = draw(st.integers(lo, hi))
        other = (c, draw(st.integers(c, hi)))
    elif how == "containing":
        other = (lo - a, hi + b)
    elif how == "overlapping":
        c = draw(st.integers(lo, hi))
        other = (c, hi + 1 + b) if draw(st.booleans()) else (lo - 1 - b, c)
    else:
        other = (hi + 1 + a, hi + 1 + a + b) if draw(st.booleans()) else (lo - 1 - a - b, lo - 1 - a)
    if draw(st.booleans()):
        other = (-other[1], -other[0])
    return (lo, hi), other


@given(st.one_of(queries(), rational_queries()), window_pairs(),
       st.sampled_from(FOLD_FAMILIES))
@settings(max_examples=150, deadline=None)
def test_known_window_gives_the_same_set(query, wins, fam):
    # FOLD_FAMILIES holds even and non-even families; rational queries fold
    sys, x, center, eps = query
    family = PolyFamily.parse(fam)
    win, other = wins
    known = return_set_1d(ReturnQuery(sys, x, center, eps, family, other))
    q = ReturnQuery(sys, x, center, eps, family, win)
    assert return_set_1d(q, known=known) == return_set_1d(q) == oracle_return_set_1d(q)


@pytest.mark.parametrize("other", [(-25, 5), (3, 40), (-40, -12), (-5, 30)])
def test_known_window_mirrors_for_an_even_family(other):
    # an even family decides (-30, 10) on |n| in [0, 30]; known is trusted only
    # where its own window covers that range, whichever side of 0 it lies on
    sys = TorusRotation((parse_real("sqrt2"),))
    x = sys.base_point()
    family = PolyFamily.parse(["n^2"])
    known = return_set_1d(ReturnQuery(sys, x, x, Fraction(1, 5), family, other))
    q = ReturnQuery(sys, x, x, Fraction(1, 5), family, (-30, 10))
    assert return_set_1d(q, known=known) == oracle_return_set_1d(q)


@given(
    st.integers(0, 2**41 - 1),
    st.integers(-20, 20),
    window_pairs(),
    st.sampled_from(FAMILIES),
    st.sampled_from(EPSILONS + [Fraction(1, 10)]),
)
@settings(max_examples=150, deadline=None)
def test_known_window_on_a_subshift(bits, shift, wins, fam, eps):
    # the times known decided did not raise, so the rest raise exactly when
    # the whole window does: both give the same set, or both run out of letters
    base = WindowSet(-20, 20, bits)
    if base.is_empty():
        base = WindowSet(-20, 20, 1 << 20)
    sys = IndicatorSubshift(base)
    x = sys.base_point()
    center = sys.iterate(x, shift)
    family = PolyFamily.parse(fam)
    win, other = wins
    try:
        known = return_set_1d(ReturnQuery(sys, x, center, eps, family, other))
    except WindowExhaustedError:
        known = None
    _same_or_both_exhausted(return_set_1d, lambda q: return_set_1d(q, known=known),
                            ReturnQuery(sys, x, center, eps, family, win))


def _asked(monkeypatch, cls) -> list:
    """Every time list ``cls.hit_indices`` is asked about, from now on: the
    times at the positions ``near`` it is handed, or all of them."""
    asked, real = [], cls.hit_indices

    def spy(self, x, center, eps, times, near=None):
        asked.append(list(times) if near is None else [times[i] for i in near])
        return real(self, x, center, eps, times, near)

    monkeypatch.setattr(cls, "hit_indices", spy)
    return asked


def test_planar_set_asks_each_time_once_per_member(monkeypatch):
    # the returns-planar-golden box has 40,501 cells and 2,951 times: the first
    # member asks about its whole run m + n, the second only about the times
    # m + n^2 of the cells the first kept, each once
    sys = TorusRotation((parse_real("golden"),))
    x = sys.base_point()
    eps = Fraction(1, 5)
    first = dict(zip(range(-250, 251), hits(sys, x, x, eps, range(-250, 251))))
    reached = {m + n * n for n in range(-50, 51) for m in range(-200, 201) if first[m + n]}
    second = dict(zip(reached, hits(sys, x, x, eps, list(reached))))
    asked = _asked(monkeypatch, TorusRotation)
    got = return_set_2d(ReturnQuery(sys, x, x, eps, PolyFamily.parse(["n", "n^2"]),
                                    (-200, 200, -50, 50)))
    assert [len(call) for call in asked] == [501, len(reached)]
    assert asked[0] == list(range(-250, 251)) and set(asked[1]) == reached
    assert got.count() == sum(1 for n in range(-50, 51) for m in range(-200, 201)
                              if first[m + n] and second[m + n * n])


@pytest.mark.parametrize("fam", RUN_FAMILIES)
def test_runs_that_do_not_merge_ask_each_time_once_per_member(monkeypatch, fam):
    sys = HeisenbergNil(parse_real("sqrt2-1"), parse_real("sqrt3-1"))
    x = sys.base_point()
    asked = _asked(monkeypatch, HeisenbergNil)
    return_set_2d(ReturnQuery(sys, x, x, Fraction(1, 2), PolyFamily.parse(fam), (-20, 20, -9, 9)))
    assert max(Counter(t for call in asked for t in call).values()) <= len(fam)


@pytest.mark.parametrize("windows", [[300, 1000], [1000, 300], [400, 400], [0, 700]])
def test_nilcheck_decides_each_absolute_n_once(monkeypatch, tmp_path, windows):
    # the default family n^2 is even: |n| = k asks about the one time k^2, and
    # each window trusts the set of the one before it where they overlap
    calls = []
    real = psynd.cli.return_set_1d

    def one_call(q, **kwargs):
        calls.append(q.window)
        return real(q, **kwargs)

    monkeypatch.setattr(psynd.cli, "return_set_1d", one_call)
    asked = _asked(monkeypatch, HeisenbergNil)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"windows": windows}))
    assert main(["nilcheck", "--config", str(cfg), "--out", str(tmp_path / "report.json")]) == 0
    assert calls == [(-w, w) for w in windows]
    assert sorted(t for call in asked for t in call) == [k * k for k in range(max(windows) + 1)]


# -- the mirror: n and -n decided once, as |n| ------------------------------

# odd, even and neither (n^2+n, n^3+n^2), each family in normal form
MIRROR_FAMILIES = [["n"], ["-2n"], ["n^2"], ["n", "n^2"], ["n^3"], ["n^2", "n^3+n"],
                   ["n^2+n"], ["n", "n^2+n"], ["n^3+n^2"], ["n^4", "n^3"]]

# across 0 with either side the longer, or on one side of it
mirror_windows = st.tuples(st.integers(-80, 40), st.integers(0, 90)).map(
    lambda t: (t[0], t[0] + t[1]))


@st.composite
def reflected_queries(draw):
    """(rotation, x, center, eps, how) on a torus of dimension 1-3, named or rational.
    The center is x or x plus a half-lattice offset (how "x", "half"), about which the
    rotation reflects x, or x + 1/3 in the first coordinate (how "third"), about which
    it does not."""
    named = draw(st.booleans())
    real = lambda: draw(reals(True)) if named else str(draw(small_rationals))  # noqa: E731
    sys = TorusRotation(tuple(parse_real(real()) for _ in range(draw(st.integers(1, 3)))),
                        bits=draw(st.sampled_from([128, 256])))
    x = draw(points(sys))
    how = draw(st.sampled_from(["x", "half", "third"]))
    offsets = {"x": [0] * sys.dim, "third": [Fraction(1, 3)] + [0] * (sys.dim - 1),
               "half": draw(st.lists(st.sampled_from([0, Fraction(1, 2)]),
                                     min_size=sys.dim, max_size=sys.dim))}[how]
    center = sys.make_point([str(c + o) for c, o in zip(x, offsets)])
    # radii at which a ball around x + 1/3 tells n from -n for most rotations
    eps = draw(st.sampled_from([Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]))
    return sys, x, center, eps, how


_SQRT2 = TorusRotation((parse_real("sqrt2"),))


@given(reflected_queries(), mirror_windows, st.sampled_from(MIRROR_FAMILIES))
# T^1 0 = 0.414... lies within 1/5 of 1/3 and T^-1 0 = 0.585... does not: with n or
# n^3, 1 is a member and -1 is not, so a mirror about x + 1/3 would be wrong
@example((_SQRT2, (Fraction(0),), _SQRT2.make_point(["1/3"]), Fraction(1, 5), "third"),
         (-30, 30), ["n"])
@example((_SQRT2, (Fraction(0),), _SQRT2.make_point(["1/3"]), Fraction(1, 5), "third"),
         (-30, 30), ["n^3"])
@settings(max_examples=200, deadline=None)
def test_mirrored_return_set_1d_matches_per_point_loop(query, win, fam):
    sys, x, center, eps, how = query
    assert sys.reflects(x, center) is (how != "third")
    q = ReturnQuery(sys, x, center, eps, PolyFamily.parse(fam), win)
    assert return_set_1d(q) == oracle_return_set_1d(q)


@given(reflected_queries(), st.sampled_from(MIRROR_FAMILIES), st.integers(0, 2),
       st.integers(0, 70))
@settings(max_examples=120, deadline=None)
def test_mirrored_recurrence_times_match_per_point_loop(query, fam, radius, n_bound):
    # the rows mirror onto each other for any x, so the center plays no part
    sys, x, _, eps, _ = query
    family = PolyFamily.parse(fam)
    got = recurrence_times(sys, x, family, radius, eps, n_bound)
    assert got == oracle_recurrence_times(sys, x, family, radius, eps, n_bound)


def _returns(tmp_path, cfg: dict) -> dict:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["returns", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 0
    return json.loads((tmp_path / "report.json").read_text())


@pytest.mark.parametrize("window", [(-300, 500), (-500, 300), (-400, -100)])
def test_returns_decides_each_absolute_n_once(monkeypatch, tmp_path, window):
    # n is odd and n^2 even, and the center is x: member n asks about |n| once
    # each, and n^2 only about the |n| that n kept
    sys = TorusRotation((parse_real("sqrt2"),))
    x = sys.base_point()
    eps = Fraction(1, 10)
    lo, hi = window
    a, b = max(0, -hi), max(hi, -lo)
    first = [k for k, hit in zip(range(a, b + 1), hits(sys, x, x, eps, range(a, b + 1))) if hit]
    asked = _asked(monkeypatch, TorusRotation)
    report = _returns(tmp_path, {"system": {"type": "rotation", "alpha": ["sqrt2"]},
                                 "family": ["n", "n^2"], "epsilon": "1/10", "window": window})
    assert asked == [list(range(a, b + 1)), [k * k for k in first]]
    q = ReturnQuery(sys, x, x, eps, PolyFamily.parse(["n", "n^2"]), window)
    assert report["set"]["members"] == list(oracle_return_set_1d(q).members())


@pytest.mark.parametrize("q, mirrors", [(12, False), (2000, True)], ids=["P-24", "P-4000"])
def test_rational_query_mirrors_only_inside_one_period(monkeypatch, tmp_path, q, mirrors):
    # n^2 on a 1/q rotation has the period P = 2q.  At P = 24, below the |n| range
    # [0, 100], one period of the window itself, [-100, -77], is decided and tiled;
    # at P = 4000 the |n| range is decided and mirrored
    sys = TorusRotation((parse_real(f"1/{q}"),))
    x = sys.base_point()
    family = PolyFamily.parse(["n^2"])
    assert fold_period(sys, x, family) == 2 * q
    asked = _asked(monkeypatch, TorusRotation)
    report = _returns(tmp_path, {"system": {"type": "rotation", "alpha": [f"1/{q}"]},
                                 "family": ["n^2"], "epsilon": "1/5", "window": [-100, 60]})
    decided = range(0, 101) if mirrors else range(-100, -100 + 2 * q)
    assert asked == [[n * n for n in decided]]
    query = ReturnQuery(sys, x, x, Fraction(1, 5), family, (-100, 60))
    assert report["set"]["members"] == list(oracle_return_set_1d(query).members())
