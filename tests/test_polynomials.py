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
    # below degree 2 every shift is p - p(0), which is not p when p(0) != 0
    for p, want in (("n+1", None), ("2n-3", None), ("3n", 0)):
        assert shift_coincidence(parse_polynomial(p), parse_polynomial(p)) == want


def test_shift_coincidence_is_the_bruteforce_search():
    # q == p.shift(j) exactly when q(n) == p(n + j) - p(j) at n = 0..D, D the
    # larger degree; every j in [-J, J] is tried against one table of p's
    # values, and the q built here never coincide at |j| > 20
    rng = random.Random(0x5CC)
    big_j = 60
    kinds = set()
    for _ in range(3000):
        p = _random_vanishing_poly(rng) if rng.random() < 0.95 else IntegralPolynomial.zero()
        kind = rng.choice(["shift", "nudged", "same top", "random"])
        if kind == "shift":
            q = p.shift(rng.randint(-8, 8))
        elif kind == "nudged":  # a shift with one lower coefficient moved; at c_0, q(0) != 0
            cs = list(p.shift(rng.randint(-8, 8)).coeffs) or [0]
            cs[rng.randrange(max(len(cs) - 1, 1))] += rng.choice([-2, -1, 1, 2])
            q = IntegralPolynomial(cs)
        elif kind == "same top":  # equal degree and leading coefficient
            q = IntegralPolynomial([rng.randint(-6, 6) for _ in p.coeffs[:-1]] + list(p.coeffs[-1:]))
        else:
            q = IntegralPolynomial(rng.randint(-6, 6) for _ in range(rng.randint(0, 5)))
        d = max(p.degree, q.degree, 0)
        table = p.values(-big_j, 2 * big_j + d + 1)
        at = [q.eval(n) for n in range(d + 1)]
        want = [j for j in range(-big_j, big_j + 1)
                if all(table[big_j + j + n] - table[big_j + j] == at[n] for n in range(d + 1))]
        got = shift_coincidence(p, q)
        if p.degree >= 2:
            assert [got] == want if want else got is None, (p, q)
        else:  # shifting is the identity below degree 2: every j or none
            assert (got, len(want)) in {(0, 2 * big_j + 1), (None, 0)}, (p, q)
        kinds.add((kind, p.degree >= 2, got is not None))
    assert {(k, True, True) for k in ("shift", "nudged", "same top")} <= kinds
    assert {(k, True, False) for k in ("nudged", "same top", "random")} <= kinds


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


def test_check_normal_form_witness_is_the_first_removal():
    # a family with more than one violation is witnessed by the reduction's
    # first removal, whatever the degree; constant members come first
    fam = PolyFamily.parse(["n^2", "n^2+2n", "2n", "2n"])
    v = check_normal_form(fam)
    assert (v.i, v.j, v.k, v.t, v.reason) == (0, 1, 1, 0, "shift coincidence")
    v = check_normal_form(PolyFamily.parse(["2n", "2n", "[0]"]))
    assert (v.i, v.j, v.reason) == (2, 2, "constant member")
    v = check_normal_form(PolyFamily.parse(["n^2", "3n", "n^3", "3n", "n^2-2n"]))
    assert (v.i, v.j, v.k, v.t, v.reason) == (1, 3, 0, 0, "duplicate slope")


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
        _assert_check_is_first_removal(fam, red)


def _assert_check_is_first_removal(fam, red):
    """check_normal_form is None exactly when nothing is removed, and otherwise
    witnesses the first covering triple, its kept index read in ``fam``."""
    v = check_normal_form(fam)
    if not red.covering:
        assert v is None
        return
    removed = {rem for rem, _, _ in red.covering}
    kept_at = [idx for idx in range(len(fam)) if idx not in removed]
    rem, kept, j = red.covering[0]
    assert (v.i, v.j, v.k, v.t) == (kept_at[kept], rem, j, 0)
    assert v.reason == ("duplicate slope" if fam[rem].degree == 1 else "shift coincidence")


def test_reduce_mixed_linear_and_shifted_families():
    # equal linear members next to shift-coincident higher ones; a zero member
    # is refused by the reduction and reported first by the check
    rng = random.Random(2718)
    for _ in range(200):
        slopes = [rng.choice([-3, -1, 1, 2, 5]) for _ in range(rng.randint(0, 3))]
        higher = [_random_vanishing_poly(rng) for _ in range(rng.randint(0, 2))]
        higher = [p if p.degree >= 2 else IntegralPolynomial([0, 1, 1]) for p in higher]
        fam_list = [IntegralPolynomial([0, a]) for a in slopes] + higher
        fam_list += [p.shift(rng.randint(-4, 4)) for p in higher if rng.random() < 0.7]
        rng.shuffle(fam_list)
        if rng.random() < 0.2:
            fam_list.insert(rng.randint(0, len(fam_list)), IntegralPolynomial.zero())
        fam = PolyFamily(fam_list)
        zeros = [idx for idx, p in enumerate(fam) if p.degree < 0]
        if zeros:
            v = check_normal_form(fam)
            assert (v.i, v.j, v.reason) == (zeros[0], zeros[0], "constant member")
            with pytest.raises(NotVanishingError):
                reduce_to_normal_form(fam)
            continue
        red = reduce_to_normal_form(fam)
        assert check_normal_form(red.core) is None
        assert red.core.linear_slopes() == list(dict.fromkeys(fam.linear_slopes()))
        for removed, kept, j in red.covering:
            assert red.core[kept].shift(j) == fam[removed]
        _assert_check_is_first_removal(fam, red)


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
