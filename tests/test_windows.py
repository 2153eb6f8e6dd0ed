"""Window/grid structure detection against naive oracles."""

import random
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psynd import bitops
from psynd import (
    BadBoundError,
    EmptySetError,
    GridSet,
    NoRowError,
    SyndeticCert,
    SyndeticRefutation,
    WindowSet,
    best_slice,
    dilate,
    find_ap,
    gap_summary,
    grid_slice,
    longest_run,
    max_gap,
    max_rectangle,
    pws_witness,
    pws_witness_2d,
    syndetic_2d_certificate,
    syndetic_certificate,
    verify_pws,
    verify_pws_2d,
    verify_syndetic,
    verify_syndetic_2d,
    verify_thick,
)
from psynd.check import (
    PwsCert,
    PwsCert2D,
    Syndetic2DCert,
    Syndetic2DRefutation,
    ThickCert,
    verify_syndetic_2d_refutation,
    verify_syndetic_refutation,
)
from psynd.generators import sturmian_window


def wset(lo, hi, members):
    return WindowSet.from_members(lo, hi, members)


# -- max_gap -----------------------------------------------------------


def test_max_gap_arithmetic_progression():
    assert max_gap(wset(0, 30, range(0, 31, 3))) == 3


def test_max_gap_full_window():
    assert max_gap(WindowSet.full(-50, 50)) == 1


def test_max_gap_sturmian_golden():
    s = sturmian_window("golden", 0, 10**4)
    assert max_gap(s) == 3
    # oracle: direct enumeration of consecutive differences
    members = sorted(s.members())
    gaps = [b - a for a, b in zip(members, members[1:])]
    assert max(gaps) == 3


def test_max_gap_singleton_and_empty():
    assert max_gap(wset(0, 10, [4])) == 0
    g = gap_summary(wset(0, 10, [4]))
    assert (g.lead_in, g.tail_out) == (4, 6)
    with pytest.raises(EmptySetError):
        max_gap(WindowSet.empty(0, 10))


# -- syndetic certificates --------------------------------------------


def test_syndetic_evens():
    evens = WindowSet.from_predicate(-100, 100, lambda n: n % 2 == 0)
    cert = syndetic_certificate(evens, 2)
    assert isinstance(cert, SyndeticCert)
    assert verify_syndetic(evens, cert)
    ref = syndetic_certificate(evens, 1)
    assert isinstance(ref, SyndeticRefutation)
    assert ref.gap == 2


def test_syndetic_sturmian():
    s = sturmian_window("golden", 0, 10**4)
    cert = syndetic_certificate(s, 3)
    assert isinstance(cert, SyndeticCert)
    assert verify_syndetic(s, cert)
    assert isinstance(syndetic_certificate(s, 2), SyndeticRefutation)


def test_syndetic_bad_bound():
    with pytest.raises(BadBoundError):
        syndetic_certificate(WindowSet.full(0, 10), 0)


def naive_verdict(s, cert):
    """A certificate's claim, checked by membership probes point by point."""
    if isinstance(cert, SyndeticCert):
        lo, hi = cert.checked_interval
        n = cert.gap_bound
        return n >= 1 and all(any((i + j) in s for j in range(n)) for i in range(lo, hi - n + 2))
    if isinstance(cert, PwsCert):
        b = cert.shift_bound
        start, length = cert.interval
        return length >= 1 and start >= s.lo and start + length - 1 <= s.hi - b and all(
            any((x + i) in s for i in range(b + 1)) for x in range(start, start + length)
        )
    if isinstance(cert, ThickCert):
        return cert.run_length == 0 or cert.run_length > 0 and cert.run_start is not None and all(
            (cert.run_start + i) in s for i in range(cert.run_length)
        )
    if isinstance(cert, SyndeticRefutation):
        loc, n = cert.location, cert.length
        if n < 1 or loc < s.lo + n or loc + n - 1 > s.hi - n:
            return False
        if any(x in s for x in range(loc, loc + n)):
            return False
        left = next((x for x in range(loc - 1, s.lo - 1, -1) if x in s), s.lo - 1)
        right = next((x for x in range(loc + n, s.hi + 1) if x in s), s.hi + 1)
        return cert.gap == right - left
    if isinstance(cert, PwsCert2D):
        (b1, b2), (m0, n0, w, h) = cert.shift_box, cert.rect
        inside = s.mlo <= m0 and m0 + w - 1 <= s.mhi - b1 and s.nlo <= n0 and n0 + h - 1 <= s.nhi - b2
        return w >= 1 and h >= 1 and inside and all(
            any((m + i, n + j) in s for i in range(b1 + 1) for j in range(b2 + 1))
            for m in range(m0, m0 + w)
            for n in range(n0, n0 + h)
        )
    near = range(-cert.l_bound, cert.l_bound + 1)
    if isinstance(cert, Syndetic2DCert):
        mlo, mhi, nlo, nhi = cert.checked_box
        return cert.l_bound >= 0 and all(
            any((m + i, n + j) in s for i in near for j in near)
            for m in range(mlo, mhi + 1)
            for n in range(nlo, nhi + 1)
        )
    assert isinstance(cert, Syndetic2DRefutation)
    (m, n), l_bound = cert.point, cert.l_bound
    return (
        l_bound >= 0
        and s.mlo + l_bound <= m <= s.mhi - l_bound
        and s.nlo + l_bound <= n <= s.nhi - l_bound
        and not any((m + i, n + j) in s for i in near for j in near)
    )


VERIFIERS = {
    SyndeticCert: verify_syndetic,
    SyndeticRefutation: verify_syndetic_refutation,
    ThickCert: verify_thick,
    PwsCert: verify_pws,
    PwsCert2D: verify_pws_2d,
    Syndetic2DCert: verify_syndetic_2d,
    Syndetic2DRefutation: verify_syndetic_2d_refutation,
}


def nudged(rng, cert):
    """The certificate with one integer, or one entry of a pair or box, moved by -1, 0 or +1."""
    name = rng.choice([f.name for f in fields(cert) if getattr(cert, f.name) is not None])
    value, step = getattr(cert, name), rng.choice((-1, 0, 1))
    if isinstance(value, tuple):
        k = rng.randrange(len(value))
        value = value[:k] + (value[k] + step,) + value[k + 1:]
    else:
        value += step
    return replace(cert, **{name: value})


def certs_1d(rng, s):
    lo, hi = s.lo, s.hi
    c_lo, start, loc = (rng.randint(lo - 5, hi + 5) for _ in range(3))
    genuine = [syndetic_certificate(s, rng.randint(1, 8)), longest_run(s)]
    genuine.append(pws_witness(s, rng.randint(0, 6), rng.randint(1, 10)))
    genuine = [c for c in genuine if c is not None]
    forged = [
        SyndeticCert(rng.randint(0, 12), (c_lo, rng.randint(c_lo - 3, hi + 5))),
        PwsCert(rng.randint(-1, 6), (start, rng.randint(-1, 30))),
        ThickCert(rng.choice([None, start]), rng.randint(-1, 6)),
        SyndeticRefutation(rng.randint(1, 20), loc, rng.randint(-1, 8)),
    ]
    return genuine + [nudged(rng, c) for c in genuine] + forged


def certs_2d(rng, e):
    m0, n0 = rng.randint(e.mlo - 3, e.mhi + 3), rng.randint(e.nlo - 3, e.nhi + 3)
    genuine = [
        syndetic_2d_certificate(e, rng.randint(0, 2)),
        pws_witness_2d(e, 3, 3, rng.randint(1, 4), rng.randint(1, 4)),
    ]
    genuine = [c for c in genuine if c is not None]
    forged = [
        PwsCert2D((rng.randint(-1, 3), rng.randint(-1, 3)),
                  (m0, n0, rng.randint(-1, 5), rng.randint(-1, 5))),
        Syndetic2DCert(rng.randint(-1, 2),
                       (m0, m0 + rng.randint(-1, 6), n0, n0 + rng.randint(-1, 6))),
        Syndetic2DRefutation(rng.randint(-1, 2), (m0, n0)),
    ]
    return genuine + [nudged(rng, c) for c in genuine] + forged


def bare(s):
    """The set as a record with only the fields a verifier may read."""
    if isinstance(s, GridSet):
        return SimpleNamespace(box=s.box, cols=list(s.cols))
    return SimpleNamespace(lo=s.lo, hi=s.hi, mask=s.mask)


def test_verify_syndetic_matches_naive_scan():
    # every certificate type, genuine, nudged and forged, regions partly
    # outside the window included; a record holding only the bounds and
    # masks gets the same verdict as the set
    rng = random.Random(0x5A4D)
    verdicts = {cls: set() for cls in VERIFIERS}
    for trial in range(600):
        density = rng.random()
        if trial % 3:
            lo = rng.randint(-40, 40)
            s = WindowSet.from_predicate(lo, lo + rng.randint(0, 80), lambda n: rng.random() < density)
            certs = certs_1d(rng, s)
        else:
            box = (rng.randint(-6, 0), rng.randint(0, 6), rng.randint(-6, 0), rng.randint(0, 6))
            s = GridSet.from_predicate(box, lambda m, n: rng.random() < density)
            certs = certs_2d(rng, s)
        for cert in certs:
            want = naive_verdict(s, cert)
            assert VERIFIERS[type(cert)](s, cert) == want, (s, cert)
            assert VERIFIERS[type(cert)](bare(s), cert) == want, (s, cert)
            verdicts[type(cert)].add(want)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


# -- longest_run --------------------------------------------------------


def test_longest_run_examples():
    cert = longest_run(wset(0, 50, list(range(10, 21)) + [40]))
    assert (cert.run_start, cert.run_length) == (10, 11)
    assert verify_thick(wset(0, 50, list(range(10, 21)) + [40]), cert)

    empty = longest_run(WindowSet.empty(0, 10))
    assert empty.run_length == 0 and empty.run_start is None

    blocks = WindowSet.from_predicate(0, 10**4, lambda n: n % 100 <= 9)
    assert longest_run(blocks).run_length == 10


# -- pws_witness ---------------------------------------------------------


def test_pws_thick_block_needs_no_shift():
    s = wset(0, 200, range(0, 101))
    cert = pws_witness(s, 10, 100)
    assert cert.shift_bound == 0
    assert verify_pws(s, cert)


def test_pws_periodic_blocks():
    blocks = WindowSet.from_predicate(0, 10**4, lambda n: n % 100 <= 9)
    cert = pws_witness(blocks, 90, 100)
    assert cert.shift_bound == 90
    assert verify_pws(blocks, cert)
    assert pws_witness(blocks, 89, 100) is None


def test_pws_empty_none():
    assert pws_witness(WindowSet.empty(0, 100), 10, 5) is None


def naive_pws_any_subset(s, b_max, l_run):
    """Union over every nonempty shift set F within [0, b_max]."""
    members = set(s.members())
    for bits in range(1, 1 << (b_max + 1)):
        shifts = [i for i in range(b_max + 1) if bits >> i & 1]
        top = s.hi - max(shifts)
        union = set()
        for i in shifts:
            union.update(m - i for m in members)
        run = 0
        best = 0
        for x in range(s.lo, top + 1):
            run = run + 1 if x in union else 0
            best = max(best, run)
        if best >= l_run:
            return True
    return False


def test_pws_matches_subset_bruteforce():
    rng = random.Random(20240817)
    for _ in range(40):
        lo = rng.randint(-30, 10)
        hi = lo + rng.randint(5, 90)
        density = rng.random()
        s = WindowSet.from_predicate(lo, hi, lambda n: rng.random() < density)
        b_max = rng.randint(0, 6)
        l_run = rng.randint(1, 12)
        got = pws_witness(s, b_max, l_run)
        want = naive_pws_any_subset(s, b_max, l_run) if not s.is_empty() else False
        assert (got is not None) == want
        if got is not None:
            assert verify_pws(s, got)


@given(
    st.integers(-50, 50),
    st.sets(st.integers(0, 80), min_size=0, max_size=60),
    st.integers(0, 8),
    st.integers(1, 15),
)
@settings(max_examples=120, deadline=None)
def test_pws_certificates_always_reverify(lo, offsets, b_max, l_run):
    hi = lo + 100
    s = wset(lo, hi, {lo + o for o in offsets})
    cert = pws_witness(s, b_max, l_run)
    if cert is not None:
        assert cert.interval[1] >= l_run
        assert verify_pws(s, cert)


def pws_witness_longest_run_per_bound(s, b_max, l_run):
    """The search that took the longest run at every bound, the reference for
    the search that probes each bound for a run of ``l_run`` only."""
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


def pws_witness_by_scan(s, b_max, l_run):
    """Every integer x of each b-shrunk window, covered when some x + i, 0 <= i <= b,
    is a member; at the first b with a run of ``l_run``, its longest run, lowest first."""
    members = set(s.members())
    for b in range(min(b_max, s.width - 1) + 1):
        best, start, run = 0, None, 0
        for x in range(s.lo, s.hi - b + 1):
            run = run + 1 if any(x + i in members for i in range(b + 1)) else 0
            if run > best:
                best, start = run, x - run + 1
        if best >= l_run:
            return PwsCert(shift_bound=b, interval=(start, best))
    return None


@st.composite
def pws_queries(draw):
    lo = draw(st.integers(-60, 20))  # most windows cross 0
    hi = lo + draw(st.integers(0, 90))
    members = draw(st.one_of(st.just(set()), st.just(set(range(lo, hi + 1))),
                             st.sets(st.integers(lo, hi))))
    width = hi - lo + 1
    # bounds at and past the window's width too: b_max >= width, L > width
    return wset(lo, hi, members), draw(st.integers(0, width + 3)), draw(st.integers(1, width + 3))


@given(pws_queries())
@settings(max_examples=300, deadline=None)
def test_pws_witness_is_the_whole_certificate(query):
    # shift bound, interval start and length: the least b, and at it the longest run, lowest
    s, b_max, l_run = query
    got = pws_witness(s, b_max, l_run)
    assert got == pws_witness_longest_run_per_bound(s, b_max, l_run)
    assert got == pws_witness_by_scan(s, b_max, l_run)


def test_pws_dilation_identity():
    rng = random.Random(7)
    for _ in range(30):
        s = WindowSet.from_predicate(0, 120, lambda n: rng.random() < 0.4)
        for l_run in (1, 3, 8):
            assert (pws_witness(s, 0, l_run) is not None) == (
                longest_run(s).run_length >= l_run
            )


def test_pws_shift_invariance():
    rng = random.Random(11)
    s = WindowSet.from_predicate(0, 150, lambda n: rng.random() < 0.35)
    for t in (-37, 12, 400):
        shifted = s.shift(t)
        for b, l_run in ((0, 4), (2, 10), (5, 25)):
            a = pws_witness(s, b, l_run)
            c = pws_witness(shifted, b, l_run)
            assert (a is None) == (c is None)
            if a is not None:
                assert c.shift_bound == a.shift_bound
                assert c.interval == (a.interval[0] + t, a.interval[1])


def test_pws_monotonicity_with_padding():
    # padding keeps the claimed run away from the shrinking boundary
    rng = random.Random(13)
    b_top = 8
    for _ in range(25):
        s = WindowSet.from_predicate(
            0, 150, lambda n: n <= 150 - b_top and rng.random() < 0.45
        )
        cert = pws_witness(s, 3, 6)
        if cert is None:
            continue
        for b2 in range(cert.shift_bound, b_top + 1):
            for l2 in range(1, 7):
                assert pws_witness(s, b2, l2) is not None


# -- 2D ------------------------------------------------------------------


def test_pws2d_full_box():
    e = GridSet.full((-5, 5, -7, 7))
    cert = pws_witness_2d(e, 3, 3, 4, 6)
    assert cert.shift_box == (0, 0)
    assert verify_pws_2d(e, cert)


def test_pws2d_even_lattice():
    e = GridSet.from_predicate(
        (0, 40, 0, 40), lambda m, n: m % 2 == 0 and n % 2 == 0
    )
    cert = pws_witness_2d(e, 4, 4, 10, 10)
    assert cert.shift_box == (1, 1)
    assert verify_pws_2d(e, cert)


def test_pws2d_empty():
    assert pws_witness_2d(GridSet.empty((0, 10, 0, 10)), 3, 3, 2, 2) is None


def naive_pws2d(e, b1, b2, w, h):
    members = set(e.members())
    union = {
        (m - i, n - j)
        for m, n in members
        for i in range(b1 + 1)
        for j in range(b2 + 1)
    }
    for m0 in range(e.mlo, e.mhi - b1 - w + 2):
        for n0 in range(e.nlo, e.nhi - b2 - h + 2):
            if all(
                (m, n) in union
                for m in range(m0, m0 + w)
                for n in range(n0, n0 + h)
            ):
                return True
    return False


def test_pws2d_matches_naive():
    rng = random.Random(99)
    for _ in range(25):
        box = (0, rng.randint(6, 18), 0, rng.randint(6, 18))
        density = rng.random()
        e = GridSet.from_predicate(box, lambda m, n: rng.random() < density)
        b1, b2 = rng.randint(0, 3), rng.randint(0, 3)
        w, h = rng.randint(1, 5), rng.randint(1, 5)
        got = pws_witness_2d(e, b1, b2, w, h)
        # a found witness must use minimal b1 (lexicographic order)
        if got is not None:
            assert verify_pws_2d(e, got)
            gb1, gb2 = got.shift_box
            assert naive_pws2d(e, gb1, gb2, w, h)
            if gb2 > 0:
                assert not naive_pws2d(e, gb1, gb2 - 1, w, h)
            for smaller in range(gb1):
                assert not naive_pws2d(e, smaller, b2, w, h)
        else:
            assert not naive_pws2d(e, b1, b2, w, h)


def test_pws2d_minimal_against_bruteforce():
    # the lexicographic minimum over every (b1, b2), rectangles as wide as
    # the box included: binary search on b2 must stop at n_width - h
    rng = random.Random(0x2D)
    cases = [(GridSet.full((0, 5, 0, 5)), 3, 3, 1, 6)]
    for _ in range(400):
        box = (0, rng.randint(0, 6), 0, rng.randint(0, 6))
        density = rng.random()
        e = GridSet.from_predicate(box, lambda m, n: rng.random() < density)
        w, h = rng.randint(1, e.m_width + 1), rng.randint(1, e.n_width + 1)
        cases.append((e, rng.randint(0, 4), rng.randint(0, 4), w, h))
    for e, b1_max, b2_max, w, h in cases:
        want = next(
            ((b1, b2) for b1 in range(b1_max + 1) for b2 in range(b2_max + 1)
             if naive_pws2d(e, b1, b2, w, h)),
            None,
        )
        got = pws_witness_2d(e, b1_max, b2_max, w, h)
        assert (got.shift_box if got else None) == want, (e, b1_max, b2_max, w, h)
        if got is not None:
            assert got.rect[2:] == (w, h) and verify_pws_2d(e, got)


def test_syndetic_2d_examples():
    full = GridSet.full((-10, 10, -10, 10))
    assert isinstance(syndetic_2d_certificate(full, 0), Syndetic2DCert)

    stripes = GridSet.from_predicate((-20, 20, -20, 20), lambda m, n: m % 3 == 0)
    cert = syndetic_2d_certificate(stripes, 1)
    assert isinstance(cert, Syndetic2DCert)
    assert verify_syndetic_2d(stripes, cert)
    assert isinstance(syndetic_2d_certificate(stripes, 0), Syndetic2DRefutation)
    with pytest.raises(BadBoundError):
        syndetic_2d_certificate(full, -1)


SIDES = st.just(1) | st.integers(1, 12)


@given(SIDES, SIDES, st.integers(0, 8), st.floats(0, 1), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_syndetic_2d_certificate_matches_bruteforce(height, width, l_bound, density, seed):
    """A certificate exactly when every point of the L-shrunk box has a member
    within L in each coordinate; otherwise the refutation names the first
    such point that has none, lowest m, then lowest n.  One-row and
    one-column boxes and L of half a side or more are drawn."""
    rng = random.Random(seed)
    box = (-3, height - 4, 5, width + 4)
    cells = {(m, n) for m in range(box[0], box[1] + 1) for n in range(box[2], box[3] + 1)
             if rng.random() < density}
    e = GridSet.from_members(box, cells)
    shrunk = (box[0] + l_bound, box[1] - l_bound, box[2] + l_bound, box[3] - l_bound)
    uncovered = [
        (m, n) for m in range(shrunk[0], shrunk[1] + 1) for n in range(shrunk[2], shrunk[3] + 1)
        if not any(abs(m - a) <= l_bound and abs(n - b) <= l_bound for a, b in cells)
    ]
    got = syndetic_2d_certificate(e, l_bound)
    if uncovered:
        assert got == Syndetic2DRefutation(l_bound=l_bound, point=uncovered[0])
        assert verify_syndetic_2d_refutation(e, got)
    else:
        assert got == Syndetic2DCert(l_bound=l_bound, checked_box=shrunk)
        assert verify_syndetic_2d(e, got)


def test_max_rectangle_against_naive():
    rng = random.Random(5)
    for _ in range(20):
        box = (0, rng.randint(3, 10), 0, rng.randint(3, 10))
        e = GridSet.from_predicate(box, lambda m, n: rng.random() < 0.6)
        area, rect = max_rectangle(e)
        best = 0
        for m0 in range(box[0], box[1] + 1):
            for n0 in range(box[2], box[3] + 1):
                for m1 in range(m0, box[1] + 1):
                    for n1 in range(n0, box[3] + 1):
                        if all(
                            (m, n) in e
                            for m in range(m0, m1 + 1)
                            for n in range(n0, n1 + 1)
                        ):
                            best = max(best, (m1 - m0 + 1) * (n1 - n0 + 1))
        assert area == best
        if rect is not None:
            m0, n0, w, h = rect
            assert w * h == area
            assert all(
                (m, n) in e for m in range(m0, m0 + w) for n in range(n0, n0 + h)
            )


# -- slices and partitions ----------------------------------------------


def test_slice_matches_bruteforce():
    rng = random.Random(3)
    e = GridSet.from_predicate((-8, 8, -12, 12), lambda m, n: rng.random() < 0.5)
    for m in range(-8, 9):
        got = set(grid_slice(e, m).members())
        want = {n for n in range(-12, 13) if (m, n) in e}
        assert got == want
    with pytest.raises(ValueError):
        grid_slice(e, 9)


def test_best_slice_single_populated_row():
    e = GridSet.from_members((0, 10, 0, 30), [(5, n) for n in range(4, 25)])
    m_star, cert = best_slice(e, 2, 5)
    assert m_star == 5
    assert cert.shift_bound == 0


def test_best_slice_full_even_rows():
    e = GridSet.from_predicate((0, 6, 0, 20), lambda m, n: m % 2 == 0)
    m_star, cert = best_slice(e, 2, 10)
    assert m_star == 0 and cert.shift_bound == 0


def test_best_slice_no_row():
    e = GridSet.empty((0, 4, 0, 10))
    with pytest.raises(NoRowError):
        best_slice(e, 2, 3)


def naive_witness(s, bound, l_run):
    """Smallest b <= bound at which some x-run, each x with a member in
    [x, x+b] and x <= hi-b, is at least L long; (b, start, length) of the
    longest such run (lowest start), or None."""
    members = set(s.members())
    for b in range(0, min(bound, s.width - 1) + 1):
        best_len, best_start, run = 0, None, 0
        for x in range(s.lo, s.hi - b + 1):
            run = run + 1 if any(x + i in members for i in range(b + 1)) else 0
            if run > best_len:
                best_len, best_start = run, x - run + 1
        if best_len >= l_run:
            return b, best_start, best_len
    return None


def test_best_slice_complete_against_bruteforce():
    """The strongest row: longest run, then smallest shift bound, then
    lowest row; NoRowError exactly when no row has a witness."""
    rng = random.Random(77)
    outcomes = set()
    for _ in range(300):
        mlo, nlo = rng.randint(-5, 5), rng.randint(-20, 0)
        box = (mlo, mlo + rng.randint(0, 6), nlo, nlo + rng.randint(0, 30))
        density = rng.choice([0.1, 0.4, 0.7])
        e = GridSet.from_predicate(box, lambda m, n: rng.random() < density)
        b_max, l_run = rng.randint(0, 3), rng.randint(1, 10)
        found = []
        for m in range(box[0], box[1] + 1):
            w = naive_witness(grid_slice(e, m), b_max, l_run)
            if w is not None:
                found.append((-w[2], w[0], m, w[1]))
        if not found:
            outcomes.add("none")
            with pytest.raises(NoRowError):
                best_slice(e, b_max, l_run)
            continue
        length, b, m, start = min(found)
        outcomes.add("tie" if sum(f[:2] == (length, b) for f in found) > 1 else "unique")
        assert best_slice(e, b_max, l_run) == (m, PwsCert(shift_bound=b, interval=(start, -length)))
    assert outcomes == {"none", "tie", "unique"}


# -- find_ap --------------------------------------------------------------


def test_find_ap_examples():
    odds = WindowSet.from_predicate(0, 100, lambda n: n % 2 == 1)
    assert find_ap(odds, 4) == (1, 2)
    assert find_ap(wset(0, 2, [0, 1, 2]), 3) == (0, 1)
    assert find_ap(sturmian_window("golden", 0, 10**4), 6) is not None
    with pytest.raises(BadBoundError):
        find_ap(odds, 2)


def brute_first_ap(s, k):
    members = set(s.members())
    width = s.hi - s.lo + 1
    for d in range(1, (width - 1) // (k - 1) + 1):
        for a in range(s.lo, s.hi - (k - 1) * d + 1):
            if all(a + t * d in members for t in range(k)):
                return (a, d)
    return None


def test_find_ap_completeness_small_windows():
    rng = random.Random(17)
    for _ in range(40):
        lo = rng.randint(-20, 20)
        hi = lo + rng.randint(10, 200)
        s = WindowSet.from_predicate(lo, hi, lambda n: rng.random() < 0.5)
        k = rng.choice([3, 4, 5])
        got = find_ap(s, k)
        assert got == brute_first_ap(s, k)
        if got is not None:
            a, d = got
            assert d >= 1 and all(a + t * d in s for t in range(k))


# -- dilation oracle -------------------------------------------------------


def test_dilate_matches_naive_union():
    rng = random.Random(23)
    for _ in range(40):
        lo = rng.randint(-50, 50)
        hi = lo + rng.randint(10, 400)
        s = WindowSet.from_predicate(lo, hi, lambda n: rng.random() < 0.3)
        b = rng.randint(0, min(9, hi - lo))
        d = dilate(s, b)
        naive = {m - i for m in s.members() for i in range(b + 1)}
        assert set(d.members()) == {x for x in naive if lo <= x <= hi - b}
