"""Exact polynomial arithmetic, normal form, and separation constants."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psynd import (
    DegreeTooLowError,
    IntegralPolynomial,
    NotIntegralError,
    NotVanishingError,
    PolyFamily,
    check_normal_form,
    essentially_distinct,
    parse_polynomial,
    reduce_to_normal_form,
    separation_constant,
    separation_holds,
    shift_coincidence,
)
from psynd.polynomials import binom_int
from psynd.systems import CHUNK


def test_binom_int_negative_arguments():
    assert binom_int(4, 2) == 6
    assert binom_int(-1, 2) == 1
    assert binom_int(-3, 3) == -10
    assert binom_int(2, 5) == 0


def test_eval_examples():
    assert IntegralPolynomial([0, 0, 1]).eval(4) == 6  # C(4,2)
    assert parse_polynomial("n^2").eval(-3) == 9
    assert parse_polynomial("n^2+2n").eval(5) == 35


def test_shift_examples():
    nsq = parse_polynomial("n^2")
    assert nsq.shift(1) == parse_polynomial("n^2+2n")
    assert nsq.shift(0) == nsq
    assert parse_polynomial("n^3").shift(-1) == parse_polynomial("n^3-3n^2+3n")


@given(
    st.lists(st.integers(-(10**6), 10**6), max_size=7),
    st.one_of(st.integers(-(10**12), 10**12), st.integers(-CHUNK - 10, 10)),
    st.sampled_from([0, 1, CHUNK + 1]),
)
@settings(max_examples=200, deadline=None)
def test_values_match_eval(coeffs, lo, count):
    # degree 0-6 and the zero polynomial; the small lo make windows cross 0
    p = IntegralPolynomial(coeffs)
    assert p.values(lo, count) == [p.eval(n) for n in range(lo, lo + count)]


@given(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6).filter(bool),
    st.one_of(st.integers(-(10**12), 10**12), st.integers(-CHUNK - 10, 10)),
    st.sampled_from([0, 1, 2, CHUNK + 1]),
)
@settings(max_examples=200, deadline=None)
def test_progression_of_a_linear_member_is_its_values(c0, c1, lo, count):
    # n, 2n, -n and c0 + c1 n of either sign: the times return_set_1d walks
    p = IntegralPolynomial([c0, c1])
    got = p.progression(lo, count)
    assert isinstance(got, range)
    assert list(got) == p.values(lo, count)


@given(
    st.one_of(st.lists(st.integers(-9, 9), max_size=1),
              st.lists(st.integers(-9, 9), min_size=3, max_size=6)),
    st.integers(-CHUNK - 10, 10),
    st.sampled_from([0, 1, CHUNK + 1]),
)
@settings(max_examples=100, deadline=None)
def test_progression_keeps_the_list_for_other_degrees(coeffs, lo, count):
    # the zero polynomial, constants and degree >= 2
    p = IntegralPolynomial(coeffs)
    assume(p.degree != 1)
    got = p.progression(lo, count)
    assert type(got) is list and got == p.values(lo, count)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.integers(-40, 40),
    st.integers(-40, 40),
)
@settings(max_examples=200, deadline=None)
def test_shift_cocycle(coeffs, j, n):
    p = IntegralPolynomial([0] + coeffs)  # vanish at 0
    shifted = p.shift(j)
    assert shifted.eval(0) == 0
    assert shifted.eval(n) == p.eval(n + j) - p.eval(j)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.integers(-10, 10),
    st.integers(-10, 10),
)
@settings(max_examples=100, deadline=None)
def test_shift_composes(coeffs, j, k):
    p = IntegralPolynomial([0] + coeffs)
    assert p.shift(j).shift(k) == p.shift(j + k)


def test_integrality_random_sample():
    rng = random.Random(271828)
    for _ in range(10**4):
        deg = rng.randint(0, 5)
        p = IntegralPolynomial([rng.randint(-50, 50) for _ in range(deg + 1)])
        n = rng.randint(-10**3, 10**3)
        value = p.eval(n)
        # monomial cross-check leaves no rational residue
        mono = sum(a * Fraction(n) ** i for i, a in enumerate(p.monomial_view()))
        assert mono.denominator == 1 and mono.numerator == value


def test_monomial_roundtrip():
    rng = random.Random(99)
    for _ in range(200):
        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(1, 6))]
        p = IntegralPolynomial(coeffs)
        q = IntegralPolynomial.from_monomials(p.monomial_view())
        assert p == q


def test_not_integral_rejected():
    with pytest.raises(NotIntegralError):
        IntegralPolynomial.from_monomials([0, Fraction(1, 2)])
    # C(n,2) written in halves is fine
    p = IntegralPolynomial.from_monomials([0, Fraction(-1, 2), Fraction(1, 2)])
    assert p == IntegralPolynomial([0, 0, 1])


def test_parse_forms():
    assert parse_polynomial("[0,0,1]") == IntegralPolynomial([0, 0, 1])
    assert parse_polynomial("n^2 + 2n") == parse_polynomial("n**2+2n")
    assert parse_polynomial("-n") == IntegralPolynomial([0, -1])
    assert parse_polynomial("0") == IntegralPolynomial.zero()
    assert parse_polynomial("3/2n^2-1/2n").eval(3) == 12
    with pytest.raises(ValueError):
        parse_polynomial("n^2+")
    with pytest.raises(ValueError):
        parse_polynomial("")


def test_monomial_str_roundtrip():
    for text in ("n^2+2n", "n^3-3n^2+3n", "5n", "0", "2n^4-n"):
        p = parse_polynomial(text)
        assert parse_polynomial(p.to_monomial_str()) == p
        assert parse_polynomial(p.to_binomial_str()) == p


def test_essentially_distinct():
    assert not essentially_distinct(parse_polynomial("n^2"), parse_polynomial("n^2+5"))
    assert essentially_distinct(parse_polynomial("n"), parse_polynomial("2n"))
    assert essentially_distinct(parse_polynomial("n^2+2n"), parse_polynomial("n^2"))


def test_shift_coincidence_detection():
    nsq = parse_polynomial("n^2")
    assert shift_coincidence(nsq, parse_polynomial("n^2+2n")) == 1
    assert shift_coincidence(nsq, parse_polynomial("n^2+6n")) == 3
    assert shift_coincidence(nsq, parse_polynomial("n^2+n")) is None
    assert shift_coincidence(nsq, parse_polynomial("n^3")) is None
    assert shift_coincidence(nsq, parse_polynomial("2n^2")) is None


def test_check_normal_form_shift_class_family():
    fam = PolyFamily.parse(["n^2", "n^2+2n", "n^2+6n"])
    v = check_normal_form(fam)
    assert v is not None
    assert (v.i, v.j, v.k, v.t) == (0, 1, 1, 0)  # p_0^[1] == p_1^[0]
    assert fam[0].shift(v.k) == fam[1].shift(v.t)


def test_check_normal_form_ok_families():
    assert check_normal_form(PolyFamily.parse(["n^2", "n^3"])) is None
    assert check_normal_form(PolyFamily.parse(["3n", "5n", "n^2"])) is None


def test_check_normal_form_linear_violations():
    v = check_normal_form(PolyFamily.parse(["2n", "2n"]))
    assert v is not None and v.reason == "duplicate slope"
    v = check_normal_form(PolyFamily.parse(["[0]", "n"]))
    assert v is not None and v.reason == "constant member"


def test_family_requires_vanishing():
    with pytest.raises(NotVanishingError):
        PolyFamily.parse(["n^2+1"])


def test_reduce_example_family():
    red = reduce_to_normal_form(PolyFamily.parse(["n^2", "n^2+2n", "n^2+6n"]))
    assert red.core == PolyFamily.parse(["n^2"])
    assert red.covering == ((1, 0, 1), (2, 0, 3))


def test_reduce_identity_on_normal_form():
    fam = PolyFamily.parse(["n", "n^2"])
    red = reduce_to_normal_form(fam)
    assert red.core == fam and red.covering == ()


def _random_vanishing_poly(rng, max_deg=4):
    deg = rng.randint(1, max_deg)
    coeffs = [0] + [rng.randint(-6, 6) for _ in range(deg)]
    if coeffs[-1] == 0:
        coeffs[-1] = rng.choice([-3, -1, 1, 2])
    return IntegralPolynomial(coeffs)


def test_reduce_random_families():
    rng = random.Random(314159)
    for _ in range(100):
        base = [_random_vanishing_poly(rng) for _ in range(rng.randint(1, 4))]
        # sprinkle in shifted copies to exercise the covering
        fam_list = list(base)
        for _ in range(rng.randint(0, 3)):
            fam_list.append(rng.choice(base).shift(rng.randint(-5, 5)))
        rng.shuffle(fam_list)
        fam = PolyFamily(fam_list)
        red = reduce_to_normal_form(fam)
        assert check_normal_form(red.core) is None
        for removed, kept, j in red.covering:
            assert red.core[kept].shift(j) == fam[removed]


def test_separation_constant_values():
    nsq = parse_polynomial("n^2")
    assert separation_constant(nsq, parse_polynomial("2n^2")) == Fraction(5, 2)
    assert separation_constant(nsq, parse_polynomial("n^2+n")) == 6
    assert separation_constant(parse_polynomial("n^3"), nsq) == 3
    with pytest.raises(DegreeTooLowError):
        separation_constant(nsq, parse_polynomial("n"))
    with pytest.raises(ValueError):
        separation_constant(nsq, parse_polynomial("n^2+5"))


def test_separation_holds_at_large_shift_gap():
    p = parse_polynomial("n^2")
    q = parse_polynomial("n^2+n")
    l_const = separation_constant(p, q)
    k = int(l_const) + 1
    assert separation_holds(p, q, 0, k)
