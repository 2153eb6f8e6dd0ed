"""Closed-form orbits, metrics, and the named-constant layer."""

import math
import random
from fractions import Fraction

import pytest

import mpmath

from psynd import (
    BadEpsilonError,
    EmptySetError,
    HeisenbergNil,
    IndicatorSubshift,
    SkewProduct,
    TorusRotation,
    WindowExhaustedError,
    WindowSet,
    parse_polynomial,
    parse_real,
    system_from_json_obj,
)
from psynd.constants import DEFAULT_BITS, MAX_BITS, MIN_BITS
from psynd.generators import sturmian_window


def test_parse_real_forms():
    assert parse_real("1/4").as_fraction() == Fraction(1, 4)
    assert parse_real("-3").as_fraction() == -3
    assert parse_real("sqrt2-1").name == "sqrt2"
    assert parse_real("golden").offset == 0
    assert str(parse_real("pi+1/7")) == "pi+1/7"
    with pytest.raises(ValueError):
        parse_real("sqrt7")
    with pytest.raises(ValueError):
        parse_real(0.25)


def test_fixed_point_constants_against_mpmath():
    bits = DEFAULT_BITS
    scale = 1 << bits
    with mpmath.workprec(bits + 64):
        for name, value in (
            ("sqrt2", mpmath.sqrt(2)),
            ("sqrt3", mpmath.sqrt(3)),
            ("golden", (1 + mpmath.sqrt(5)) / 2),
            ("e", mpmath.e),
            ("pi", mpmath.pi),
        ):
            fixed = parse_real(name).fixed(bits)
            reference = int(mpmath.floor(value * scale))
            assert abs(fixed - reference) <= 1


def test_fixed_point_precision_is_bounded():
    # MIN_BITS..MAX_BITS is the range of a resolution; a million bits took seconds per query
    assert parse_real("pi").fixed(MAX_BITS) >> (MAX_BITS - 1) == 6  # 2 pi = 6.28...
    for bits, message in [(MIN_BITS - 1, "precision below 128 bits"),
                          (MAX_BITS + 1, "precision above 4096 bits")]:
        with pytest.raises(ValueError, match=message):
            parse_real("sqrt2").fixed(bits)


def test_rotation_examples():
    rot = TorusRotation((parse_real("1/4"),))
    x0 = rot.base_point()
    assert rot.iterate(x0, 6) == (Fraction(1, 2),)
    assert rot.iterate(x0, 0) == x0

    def poly_orbit(poly, n1):
        p = parse_polynomial(poly)
        return [rot.iterate(x0, p.eval(n)) for n in range(n1 + 1)]

    orbit = poly_orbit("n", 3)
    assert [p[0] for p in orbit] == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assert {p[0] for p in poly_orbit("n^2", 7)} == {Fraction(0), Fraction(1, 4)}
    assert all(p == x0 for p in poly_orbit("0", 4))


def test_heisenberg_closed_form_example():
    heis = HeisenbergNil(parse_real("1/3"), parse_real("1/5"))
    got = heis.iterate(heis.base_point(), 3)
    # tau^3 = (3a, 3b, 3ab) = (1, 3/5, 1/5), reduced by (-1, 0, *)
    assert got == (Fraction(0), Fraction(3, 5), Fraction(1, 5))


def _heis_mul(g, h):
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def _heis_reduce(g):
    # right-multiply by (-floor(x), -floor(y), *) and take z mod 1
    x, y, z = g
    return (x % 1, y % 1, (z - x * math.floor(y)) % 1)


def test_heisenberg_closed_form_vs_repeated_multiplication():
    heis = HeisenbergNil(parse_real("2/7"), parse_real("3/11"))
    x0 = heis.base_point()
    tau = (Fraction(2, 7), Fraction(3, 11), Fraction(0))
    inv = (-tau[0], -tau[1], tau[0] * tau[1])
    acc = (Fraction(0), Fraction(0), Fraction(0))
    for n in range(1, 1001):
        acc = _heis_mul(tau, acc)
        assert heis.iterate(x0, n) == _heis_reduce(acc)
    acc = (Fraction(0), Fraction(0), Fraction(0))
    for n in range(1, 1001):
        acc = _heis_mul(inv, acc)
        assert heis.iterate(x0, -n) == _heis_reduce(acc)


def test_group_law_exact():
    rng = random.Random(1)
    systems = [
        TorusRotation((parse_real("3/7"), parse_real("1/12"))),
        SkewProduct(parse_real("5/9")),
        HeisenbergNil(parse_real("1/3"), parse_real("2/5")),
    ]
    for sys_spec in systems:
        x = sys_spec.base_point()
        for _ in range(40):
            m = rng.randint(-10**6, 10**6)
            n = rng.randint(-10**6, 10**6)
            assert sys_spec.iterate(sys_spec.iterate(x, m), n) == sys_spec.iterate(x, m + n)


def test_group_law_fixed_point_within_tolerance():
    rng = random.Random(2)
    systems = [
        TorusRotation((parse_real("sqrt2"),)),
        SkewProduct(parse_real("golden")),
        HeisenbergNil(parse_real("sqrt2-1"), parse_real("sqrt3-1")),
    ]
    # compared at the 2^bits scale, where every coordinate is an integer
    tol = int(1e-12 * (1 << DEFAULT_BITS))
    modulus = 1 << DEFAULT_BITS
    for sys_spec in systems:
        x = sys_spec.base_point()
        for _ in range(40):
            m = rng.randint(-10**6, 10**6)
            n = rng.randint(-10**6, 10**6)
            a = sys_spec.iterate(sys_spec.iterate(x, m), n)
            b = sys_spec.iterate(x, m + n)
            for u, v in zip(a, b):
                d = (u - v) * modulus % modulus
                assert d.denominator == 1
                assert min(d, modulus - d) <= tol


def in_ball(sys, a, c, eps) -> bool:
    """Strict ball test of one point: ``hit_indices`` at time 0."""
    return bool(sys.hit_indices(a, c, eps, [0]))


def test_in_ball_torus():
    rot = TorusRotation((parse_real("1/4"),))
    a = (Fraction(0),)
    c = (Fraction(19, 20),)
    assert in_ball(rot, a, c, 0.1)  # circle distance 1/20
    assert in_ball(rot, a, a, 0.001)
    assert not in_ball(rot, a, (Fraction(1, 2),), 0.25)
    with pytest.raises(BadEpsilonError):
        in_ball(rot, a, c, 0)


def test_in_ball_heisenberg_wraparound():
    heis = HeisenbergNil(parse_real("1/3"), parse_real("1/5"))
    a = (Fraction(99, 100), Fraction(99, 100), Fraction(99, 100))
    b = (Fraction(0), Fraction(0), Fraction(0))
    assert in_ball(heis, a, b, 0.1)


def test_subshift_point_examples():
    def word(s):
        shift = IndicatorSubshift(s)
        return shift.point_to_json(shift.base_point())["word"]

    assert word(WindowSet.from_members(-5, 5, [0])) == "00000100000"
    assert word(WindowSet.from_predicate(-5, 5, lambda n: n % 2 == 0)) == "01010101010"
    st = sturmian_window("golden", -50, 50)
    assert IndicatorSubshift(st).base_point() is st
    with pytest.raises(EmptySetError):
        IndicatorSubshift(WindowSet.empty(0, 4)).base_point()


def test_subshift_metric_decision():
    base = WindowSet.from_members(-30, 30, [0])
    shift = IndicatorSubshift(base)
    # agree to radius 9, differ at +10
    a = WindowSet(-15, 15, 0)
    b = WindowSet(-15, 15, 1 << (10 + 15))
    assert shift.point_distance(a, b) == Fraction(1, 11)
    assert in_ball(shift, a, b, 0.1)  # 1/11 < 0.1
    c = WindowSet(-15, 15, 1 << (9 + 15))  # differ at +9: distance 1/10
    assert not in_ball(shift, a, c, Fraction(1, 10))
    assert in_ball(shift, a, c, 0.11)


def test_subshift_window_exhaustion():
    base = WindowSet.from_members(-4, 4, [0])
    shift = IndicatorSubshift(base)
    w = shift.base_point()
    moved = shift.iterate(w, 3)
    assert -3 in moved
    with pytest.raises(WindowExhaustedError):
        shift.iterate(w, 7)
    with pytest.raises(WindowExhaustedError):
        # identical over coverage but the claim needs more letters
        in_ball(shift, w, w, 0.01)


def test_subshift_ultrametric_like():
    rng = random.Random(8)
    shift = IndicatorSubshift(WindowSet.from_members(-40, 40, [0]))
    dist = shift.point_distance
    for _ in range(60):
        a, b, c = (WindowSet(-40, 40, rng.getrandbits(81)) for _ in range(3))
        assert dist(a, c) <= max(dist(a, b), dist(b, c))


def test_system_json_roundtrip():
    specs = [
        {"type": "rotation", "alpha": ["1/4", "sqrt2"]},
        {"type": "skew", "alpha": "golden"},
        {"type": "heisenberg", "alpha": "sqrt2-1", "beta": "sqrt3-1"},
        {"type": "subshift", "base": {"lo": -3, "hi": 3, "members": [0, 2]}},
    ]
    for spec in specs:
        sys_obj = system_from_json_obj(spec)
        again = system_from_json_obj(sys_obj.to_json_obj())
        assert sys_obj == again


def test_point_json_roundtrip():
    rot = TorusRotation((parse_real("sqrt2"),))
    x = rot.iterate(rot.base_point(), 12345)
    assert rot.point_from_json(rot.point_to_json(x)) == x
    exact = TorusRotation((parse_real("1/3"),))
    y = exact.iterate(exact.base_point(), 2)
    assert exact.point_from_json(exact.point_to_json(y)) == y
    shift = IndicatorSubshift(WindowSet.from_members(-2, 2, [0]))
    w = shift.base_point()
    assert shift.point_from_json(shift.point_to_json(w)) == w
    # a coordinate point is the plain tuple of its Fractions, on every coordinate system
    for sys_spec in (rot, exact, SkewProduct(parse_real("2/7")), SkewProduct(parse_real("golden")),
                     HeisenbergNil(parse_real("1/3"), parse_real("2/5")),
                     HeisenbergNil(parse_real("sqrt2-1"), parse_real("sqrt3-1"))):
        made = sys_spec.make_point(["1/3"] * sys_spec.dim)
        moved = sys_spec.iterate(made, 7)
        read = sys_spec.point_from_json(sys_spec.point_to_json(moved))
        for p in (sys_spec.base_point(), made, moved, read):
            assert type(p) is tuple and all(type(v) is Fraction for v in p)
        assert read == moved
