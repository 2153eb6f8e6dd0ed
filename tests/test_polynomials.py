"""Exact polynomial arithmetic, normal form, and separation constants."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psynd import (
    DegreeTooLowError,
    IntegralPolynomial,
    NotIntegralError,
    NotNormalFormError,
    NotVanishingError,
    PolyFamily,
    essentially_distinct,
    parse_polynomial,
    reduce_to_normal_form,
    separation_constant,
    separation_holds,
    shift_coincidence,
)
from psynd.polynomials import MAX_DEGREE, binom_int
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
    # equality and hash read the coefficients
    composed, direct = (IntegralPolynomial(q.coeffs) for q in (p.shift(j).shift(k), p.shift(j + k)))
    assert composed == direct and hash(composed) == hash(direct)
    families = PolyFamily([composed]), PolyFamily([direct])
    assert families[0] == families[1] and hash(families[0]) == hash(families[1])
    for value, name in [(composed, "coeffs"), (families[0], "polys")]:
        with pytest.raises(AttributeError):  # FrozenInstanceError is one
            setattr(value, name, None)


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
    # the first fractional forward difference names the family
    for text, diff in (("1/2n", "1/2"), ("1/3n^3+n", "4/3")):
        with pytest.raises(NotIntegralError) as info:
            parse_polynomial(text)
        assert str(info.value) == f"not integer-valued: forward difference {diff} is fractional"


def _reference_from_monomials(monomial_coeffs):
    """Reference conversion in Fraction arithmetic: the binomial
    coefficients, or the NotIntegralError message."""
    coeffs = [Fraction(a) for a in monomial_coeffs]
    table = [sum(a * n**i for i, a in enumerate(coeffs)) for n in range(len(coeffs))]
    binom = []
    while table:
        binom.append(table[0])
        table = [table[i + 1] - table[i] for i in range(len(table) - 1)]
    for b in binom:
        if b.denominator != 1:
            return f"not integer-valued: forward difference {b} is fractional"
    return IntegralPolynomial(b.numerator for b in binom)


def _reference_monomial_view(p):
    """Reference monomial view in Fraction arithmetic: C(n, k) = C(n, k-1) (n - k + 1) / k."""
    acc = [Fraction(0)] * (len(p.coeffs) or 1)
    basis = [Fraction(1)]
    for k, c in enumerate(p.coeffs):
        if k > 0:
            nxt = [Fraction(0)] * (len(basis) + 1)
            for i, b in enumerate(basis):
                nxt[i + 1] += b / k
                nxt[i] += b * Fraction(-(k - 1), k)
            basis = nxt
        for i, b in enumerate(basis):
            acc[i] += c * b
    return tuple(acc)


def _from_monomials_outcome(monomial_coeffs):
    try:
        return IntegralPolynomial.from_monomials(monomial_coeffs)
    except NotIntegralError as exc:
        return str(exc)


_BINOMIAL = st.lists(st.integers(-(10**6), 10**6), max_size=9)  # degree 0-8 and zero


@given(st.one_of(_BINOMIAL, st.lists(st.just(0), max_size=3)))
@settings(max_examples=300, deadline=None)
def test_monomial_view_matches_fraction_reference(coeffs):
    p = IntegralPolynomial(coeffs)
    view = p.monomial_view()
    assert view == _reference_monomial_view(p)
    assert all(type(a) is Fraction for a in view)
    assert parse_polynomial(p.to_monomial_str()) == p


@given(
    _BINOMIAL,
    st.lists(st.tuples(st.integers(-(10**6), 10**6), st.integers(1, 720)), max_size=9),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_from_monomials_matches_fraction_reference(coeffs, fractions, nudge):
    # integer-valued input (a monomial view, optionally moved by a rational
    # term), arbitrary rational input, and plain ints
    view = list(IntegralPolynomial(coeffs).monomial_view())
    if nudge and fractions:
        view[len(view) // 2] += Fraction(*fractions[0])
    arbitrary = [Fraction(num, den) for num, den in fractions]
    for mono in (view, arbitrary, coeffs):
        assert _from_monomials_outcome(mono) == _reference_from_monomials(mono)


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
    # a zero denominator is a named ValueError, and the term keeps its sign
    for text, term in (("1/0n", "1/0n"), ("n^2-3/00n", "-3/00n"), ("1/0", "1/0")):
        with pytest.raises(ValueError) as info:
            parse_polynomial(text)
        assert str(info.value) == f"zero denominator in {term!r}"


@pytest.mark.parametrize("text, want", [
    ("n^2 + 2n", [0, 3, 2]),
    ("n**2+2n", [0, 3, 2]),
    ("2 n", [0, 2]),
    ("n ^ 2", [0, 1, 2]),
    ("- n", [0, -1]),
    ("+n", [0, 1]),
    ("3/2n^2-1/2n", [0, 1, 3]),
    ("0", []),
    ("[0,0,1]", [0, 0, 1]),
    ("[]", []),
])
def test_parse_accepted_forms(text, want):
    # spaces may stand between tokens; a binomial list is read as it stands
    assert parse_polynomial(text) == IntegralPolynomial(want)


@pytest.mark.parametrize("text, near", [
    ("n^2 2n", "2 2"),  # a space inside what would become one number
    ("nn", "nn"),
    ("n^2n^3", "n^2n^3"),
    ("2nn^2", "2nn^2"),
    ("2n3", "2n3"),
    ("n 2", "n2"),
    ("1 /2n", "1 /"),
    ("n+-n", "+"),
    ("n^2+", "+"),
])
def test_parse_refuses_terms_not_matched_whole(text, near):
    # every term after the first starts with its sign, and is matched whole
    with pytest.raises(ValueError) as info:
        parse_polynomial(text)
    assert str(info.value) == f"cannot parse polynomial near {near!r}"


@given(st.lists(st.integers(-(10**3), 10**3), min_size=1, max_size=8), st.integers(0, 99))
@settings(max_examples=200, deadline=None)
def test_a_dropped_sign_is_refused(coeffs, pick):
    # p(0) = 0 and two monomial terms or more: every term holds an n, so deleting
    # the sign of a later term leaves two n in one piece, which no term matches
    p = IntegralPolynomial([0, *coeffs])
    assume(sum(a != 0 for a in p.monomial_view()) >= 2)
    text = p.to_monomial_str()
    assert parse_polynomial(text) == p and parse_polynomial(text).to_monomial_str() == text
    signs = [i for i, ch in enumerate(text) if ch in "+-" and i > 0]
    i = signs[pick % len(signs)]
    with pytest.raises(ValueError, match="cannot parse polynomial near "):
        parse_polynomial(text[:i] + text[i + 1:])


def test_degree_bound():
    assert MAX_DEGREE == 64
    assert parse_polynomial("n^64").degree == 64
    # a binomial list is bounded after its trailing zeros are trimmed
    assert parse_polynomial("[" + ",".join(["0"] * 64 + ["1"] + ["0"] * 8) + "]").degree == 64
    for text in ("n^65", "n^2+n^65-n^65", "[" + ",".join(["0"] * 65 + ["1"]) + "]"):
        with pytest.raises(ValueError) as info:
            parse_polynomial(text)
        assert str(info.value) == "degree 65 above the bound 64"


def test_a_huge_degree_is_refused_at_once():
    # the bound is checked per term, before any coefficient is computed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degree 800 above the bound 64"):
        parse_polynomial("n^800")
    assert time.perf_counter() - start < 0.05


def test_monomial_str_roundtrip():
    # the last two are C(n+1, 2) and C(n+1, 3), integer-valued in rational terms
    for text in ("n^2+2n", "n^3-3n^2+3n", "5n", "0", "2n^4-n", "1/2n^2+1/2n", "1/6n^3-1/6n"):
        p = parse_polynomial(text)
        assert p.to_monomial_str() == text and parse_polynomial(text) == p
    assert parse_polynomial("1/6n^3-1/6n") == IntegralPolynomial([0, 0, 1, 1])


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


def test_family_requires_vanishing():
    with pytest.raises(NotVanishingError):
        PolyFamily.parse(["n^2+1"])
    assert len(PolyFamily(())) == 0  # the library takes an empty family; the CLI refuses it


def test_check_normal_form_shift_class_family():
    # a family is in normal form exactly when its reduction removes nothing;
    # here the first removal is p_1 = p_0 shifted by 1
    fam = PolyFamily.parse(["n^2", "n^2+2n", "n^2+6n"])
    red = reduce_to_normal_form(fam)
    assert red.covering != ()
    assert red.covering[0] == (1, 0, 1)
    assert fam[0].shift(1) == fam[1]


def test_check_normal_form_ok_families():
    for texts in (["n^2", "n^3"], ["3n", "5n", "n^2"]):
        assert reduce_to_normal_form(PolyFamily.parse(texts)).covering == ()


def test_reduce_example_family():
    # one shift class: n^2+2n = (n+1)^2 - 1^2 and n^2+6n = (n+3)^2 - 3^2
    fam = PolyFamily.parse(["n^2", "n^2+2n", "n^2+6n"])
    red = reduce_to_normal_form(fam)
    assert red.core == PolyFamily.parse(["n^2"])
    assert red.covering == ((1, 0, 1), (2, 0, 3))
    assert [fam[0].shift(j) for _, _, j in red.covering] == [fam[1], fam[2]]


def test_reduce_identity_on_normal_form():
    fam = PolyFamily.parse(["n", "n^2"])
    red = reduce_to_normal_form(fam)
    assert red.core == fam and red.covering == ()


def test_reduce_linear_violations():
    # equal slopes: the later member is the earlier one shifted by any j, reported as 0
    red = reduce_to_normal_form(PolyFamily.parse(["2n", "2n"]))
    assert red.core == PolyFamily.parse(["2n"]) and red.covering == ((1, 0, 0),)
    with pytest.raises(NotNormalFormError, match="member 0 is constant"):
        reduce_to_normal_form(PolyFamily.parse(["[0]", "n"]))


def test_reduce_families_with_several_violations():
    # every later member of a shift class goes, whatever its degree, and
    # ``kept`` indexes the core; a zero member anywhere refuses the family
    red = reduce_to_normal_form(PolyFamily.parse(["n^2", "n^2+2n", "2n", "2n"]))
    assert red.core == PolyFamily.parse(["n^2", "2n"])
    assert red.covering == ((1, 0, 1), (3, 1, 0))
    with pytest.raises(NotNormalFormError, match="member 2 is constant"):
        reduce_to_normal_form(PolyFamily.parse(["2n", "2n", "[0]"]))
    red = reduce_to_normal_form(PolyFamily.parse(["n^2", "3n", "n^3", "3n", "n^2-2n"]))
    assert red.core == PolyFamily.parse(["n^2", "3n", "n^3"])
    assert red.covering == ((3, 1, 0), (4, 0, -1))


def _random_vanishing_poly(rng, max_deg=4):
    deg = rng.randint(1, max_deg)
    coeffs = [0] + [rng.randint(-6, 6) for _ in range(deg)]
    if coeffs[-1] == 0:
        coeffs[-1] = rng.choice([-3, -1, 1, 2])
    return IntegralPolynomial(coeffs)


def random_shift_family(rng) -> PolyFamily:
    """1-4 random members and 0-3 shifted copies of them, which exercise the covering."""
    base = [_random_vanishing_poly(rng) for _ in range(rng.randint(1, 4))]
    fam_list = list(base)
    for _ in range(rng.randint(0, 3)):
        fam_list.append(rng.choice(base).shift(rng.randint(-5, 5)))
    rng.shuffle(fam_list)
    return PolyFamily(fam_list)


def test_reduce_random_families():
    rng = random.Random(314159)
    for _ in range(100):
        fam = random_shift_family(rng)
        _assert_reduction_of(fam, reduce_to_normal_form(fam))


def _assert_reduction_of(fam, red):
    """The core is the unremoved members in order, reduces to itself, and
    each covering triple re-derives its removed member from the core."""
    removed = [rem for rem, _, _ in red.covering]
    assert list(red.core) == [p for idx, p in enumerate(fam) if idx not in removed]
    assert reduce_to_normal_form(red.core).covering == ()
    for rem, kept, j in red.covering:
        assert red.core[kept].shift(j) == fam[rem]


def test_reduce_mixed_linear_and_shifted_families():
    # equal linear members next to shift-coincident higher ones; a zero member
    # is refused by the reduction
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
            with pytest.raises(NotNormalFormError, match=f"member {zeros[0]} is constant"):
                reduce_to_normal_form(fam)
            continue
        red = reduce_to_normal_form(fam)
        assert red.core.linear_slopes() == list(dict.fromkeys(fam.linear_slopes()))
        _assert_reduction_of(fam, red)


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
