"""Acceptance gate: nine criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 3 and 7 were first phrased as claims that are false (see
README, "Acceptance criteria 3 and 7"); they now assert what is true
and keep each original phrasing as an asserted negative with its
proof.  Criterion 3 covers patches of a return-set row of the planar
set by brute-force-minimal shifts, and proves that the n-projection
admits no cover.  Criterion 7 checks that the Heisenberg return sets on
two windows agree, that their max gaps are ordered and certified, and
re-derives both maximal gaps with mpmath.
"""

import random
import time
from fractions import Fraction

import mpmath

from psynd import (
    GridSet,
    IntegralPolynomial,
    PeriodicBlock,
    PolyFamily,
    ReturnQuery,
    TorusRotation,
    WindowSet,
    apply_map,
    shift_block,
    essentially_distinct,
    max_gap,
    orbit_block,
    parse_real,
    pws_area_witness_2d,
    pws_witness,
    pws_witness_2d,
    recurrence_times,
    reduce_to_normal_form,
    return_set_1d,
    separation_constant,
    shift_cover_search,
    syndetic_certificate,
    verify_pws,
    verify_pws_2d,
    verify_syndetic,
    verify_thick,
)
from psynd.returnsets import combinatorial_set_2d
from psynd.systems import HeisenbergNil
from psynd.check import Syndetic2DCert, SyndeticCert, SyndeticRefutation, verify_syndetic_2d
from psynd.windows import (
    best_slice,
    grid_slice,
    longest_run,
    syndetic_2d_certificate,
)
from psynd.generators import sturmian_window


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# -- criterion 1: certificate soundness on 200 randomized sets ------------


def _naive_pws_all_subsets(s: WindowSet, b_max: int, l_run: int) -> bool:
    members = set(s.members())
    for bits in range(1, 1 << (b_max + 1)):
        shifts = [i for i in range(b_max + 1) if bits >> i & 1]
        top = s.hi - max(shifts)
        union = set()
        for i in shifts:
            union.update(m - i for m in members)
        run = best = 0
        for x in range(s.lo, top + 1):
            run = run + 1 if x in union else 0
            if run > best:
                best = run
        if best >= l_run:
            return True
    return False


def test_criterion_1_certificate_soundness():
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    checked = 0
    for _ in range(130):
        lo = rng.randint(-500, 200)
        width = rng.randint(30, 1000)
        density = rng.random()
        s = WindowSet.from_predicate(lo, lo + width, lambda n: rng.random() < density)
        checked += 1
        run_cert = longest_run(s)
        assert verify_thick(s, run_cert)
        n_bound = rng.randint(1, 12)
        syn = syndetic_certificate(s, n_bound)
        if isinstance(syn, SyndeticCert):
            assert verify_syndetic(s, syn)
        else:
            base = s.lo + n_bound
            assert all(
                (syn.location + j) not in s for j in range(n_bound)
            ) and syn.location >= base
        if s.is_empty():
            continue
        b_max = min(6, max(0, 300000 // (width + 1)).bit_length() - 1)
        l_run = rng.randint(1, max(2, width // 4))
        cert = pws_witness(s, b_max, l_run)
        brute = _naive_pws_all_subsets(s, b_max, l_run)
        assert (cert is not None) == brute
        if cert is not None:
            assert verify_pws(s, cert)
    for _ in range(70):
        box = (0, rng.randint(5, 30), 0, rng.randint(5, 30))
        density = rng.random()
        e = GridSet.from_predicate(box, lambda m, n: rng.random() < density)
        checked += 1
        c2 = pws_witness_2d(e, rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 5), rng.randint(1, 5))
        if c2 is not None:
            assert verify_pws_2d(e, c2)
        syn2 = syndetic_2d_certificate(e, rng.randint(0, 3))
        if isinstance(syn2, Syndetic2DCert):
            assert verify_syndetic_2d(e, syn2)
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 10.0
    assert _report(1, ok, f"{checked} sets re-verified in {elapsed:.1f}s (< 10 s)")


# -- criterion 2: planar combinatorial witness desk check -----------------


def test_criterion_2_planar_witness_desk_check():
    start = time.perf_counter()
    s = sturmian_window("golden", -5000, 5000)
    fam = PolyFamily.parse(["n", "n^2"])
    box = (-300, 300, -70, 70)
    members, validity = combinatorial_set_2d(s, fam, box)
    cert = pws_area_witness_2d(members, validity, 8, 8, 400)
    elapsed = time.perf_counter() - start
    exists = cert is not None
    sound = exists and verify_pws_2d(members, cert)
    inside = False
    if exists:
        m0, n0, w, h = cert.rect
        inside = all(
            (m, n) in validity for m in range(m0, m0 + w) for n in range(n0, n0 + h)
        )
    detail = (
        f"witness {'found' if exists else 'missing'}"
        + (
            f", achieved (b1,b2,w,h)={cert.shift_box + cert.rect[2:]}"
            f", area={cert.rect[2] * cert.rect[3]}"
            if exists
            else ""
        )
        + f", {elapsed:.1f}s (< 30 s)"
    )
    ok = exists and sound and inside and cert.rect[2] * cert.rect[3] >= 400 and elapsed < 30.0
    assert _report(2, ok, detail)


# -- criterion 3: shift cover of a return-set row, and of the projection ----


def _brute_force_cover(s: WindowSet, fam: PolyFamily, target: WindowSet, n_bound: int):
    """Smallest-|a| cover by direct scan over every feasible a, ties to +a.

    Feasible means every evaluation a + p_i(n) stays inside S's window,
    the range ``shift_cover_search`` promises to search.
    """
    points = [n for n in target.members() if -n_bound <= n <= n_bound]
    values = [p.eval(n) for n in points for p in fam.polys]
    covers = [
        a
        for a in range(s.lo - min(values), s.hi - max(values) + 1)
        if all((a + v) in s for v in values)
    ]
    return min(covers, key=lambda a: (abs(a), -a)) if covers else None


def test_criterion_3_projection_shift_cover():
    """Theorem B lifts each finite patch of a polynomial return set back
    into S by one shift a_N.  For the subshift of 1_S with U = [1] that
    return set is one row {n : m + p_i(n) in S} of the planar set: the row
    chosen by ``best_slice``, which carries a piecewise-syndetic witness.
    The n-projection of the planar set is no return set; its cover is
    asserted to be absent, with the proof that no shift can exist.
    """
    s = sturmian_window("golden", -5000, 5000)
    fam = PolyFamily.parse(["n", "n^2"])
    members, _ = combinatorial_set_2d(s, fam, (-300, 300, -70, 70))
    m_star, row_cert = best_slice(members, 3, 12)
    row = grid_slice(members, m_star)
    projection = members.n_projection()
    run = longest_run(s).run_length
    found = {}
    for n_bound in (5, 10, 15, 20):
        a = shift_cover_search(s, fam, row, n_bound)
        found[n_bound] = a
        assert a is not None
        assert all(
            (a + p.eval(n)) in s
            for n in row.members()
            if -n_bound <= n <= n_bound
            for p in fam.polys
        )
        assert a == _brute_force_cover(s, fam, row, n_bound)
        # the projection is all of [-N, N]; covering it puts a + n in S for
        # 2N+1 consecutive n, longer than any run of S
        assert projection.restrict(-n_bound, n_bound) == WindowSet.full(-n_bound, n_bound)
        assert run < 2 * n_bound + 1
        assert shift_cover_search(s, fam, projection, n_bound) is None
        assert _brute_force_cover(s, fam, projection, n_bound) is None
    ok = verify_pws(row, row_cert)
    assert _report(
        3,
        ok,
        f"row m={m_star} ({row_cert.to_json_obj()}): a_N = {found}; "
        f"n-projection: no cover (longest run of S is {run})",
    )


# -- criterion 4: separation constant --------------------------------------


def _random_deg_poly(rng, deg):
    coeffs = [0] + [rng.randint(-5, 5) for _ in range(deg)]
    if coeffs[-1] == 0:
        coeffs[-1] = rng.choice([-2, -1, 1, 3])
    return IntegralPolynomial(coeffs)


def test_criterion_4_separation_constant():
    rng = random.Random(0x5EED)
    start = time.perf_counter()
    exceptions = 0
    pairs = 0
    while pairs < 50:
        p = _random_deg_poly(rng, rng.randint(2, 4))
        q = _random_deg_poly(rng, rng.randint(2, 4))
        if not essentially_distinct(p, q):
            continue
        pairs += 1
        l_const = separation_constant(p, q)
        p_shifts = [tuple(p.shift(k).coeffs[1:]) for k in range(-100, 101)]
        q_shifts = [tuple(q.shift(k).coeffs[1:]) for k in range(-100, 101)]
        for i1 in range(201):
            p1, q1 = p_shifts[i1], q_shifts[i1]
            for i2 in range(i1 + 1, 201):
                # |k1 - k2| >= L via exact cross-multiplication
                if (i2 - i1) * l_const.denominator < l_const.numerator:
                    continue
                p2, q2 = p_shifts[i2], q_shifts[i2]
                if (
                    p1 == p2
                    or q1 == q2
                    or p1 == q1
                    or p1 == q2
                    or p2 == q1
                    or p2 == q2
                ):
                    exceptions += 1
    elapsed = time.perf_counter() - start
    ok = exceptions == 0
    assert _report(4, ok, f"50 pairs exhaustively checked, {exceptions} exceptions ({elapsed:.1f}s)")


# -- criterion 5: normal-form reduction -------------------------------------


def test_criterion_5_normal_form_reduction():
    red = reduce_to_normal_form(PolyFamily.parse(["n^2", "n^2+2n", "n^2+6n"]))
    example_ok = (
        red.core == PolyFamily.parse(["n^2"])
        and red.covering == ((1, 0, 1), (2, 0, 3))
    )
    rng = random.Random(0xABCDE)
    random_ok = True
    for _ in range(100):
        base = []
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 4)
            coeffs = [0] + [rng.randint(-5, 5) for _ in range(deg)]
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            base.append(IntegralPolynomial(coeffs))
        fam_list = list(base)
        for _ in range(rng.randint(0, 4)):
            fam_list.append(rng.choice(base).shift(rng.randint(-6, 6)))
        rng.shuffle(fam_list)
        fam = PolyFamily(fam_list)
        red = reduce_to_normal_form(fam)
        if reduce_to_normal_form(red.core).covering:  # the core is in normal form
            random_ok = False
            break
        for removed, kept, j in red.covering:
            if red.core[kept].shift(j) != fam[removed]:
                random_ok = False
                break
    ok = example_ok and random_ok
    assert _report(
        5, ok, f"shift family reduces with shifts (1, 3): {example_ok}; 100 random families: {random_ok}"
    )


# -- criterion 6: oracle equivalence ----------------------------------------


def test_criterion_6_rational_rotation_oracle():
    start = time.perf_counter()
    eps = Fraction("0.3")
    lo, hi = -(10**4), 10**4
    families = [["n^2"], ["n", "n^2"], ["n^3+n"]]
    all_match = True
    for q in (4, 6, 12):
        allowed = {r for r in range(q) if min(Fraction(r, q), Fraction(q - r, q)) < eps}
        sys_spec = TorusRotation((parse_real(f"1/{q}"),))
        x = sys_spec.base_point()
        for fam_text in families:
            fam = PolyFamily.parse(fam_text)
            got = return_set_1d(ReturnQuery(sys_spec, x, x, eps, fam, (lo, hi)))
            mask = 0
            for n in range(lo, hi + 1):
                if all(p.eval(n) % q in allowed for p in fam.polys):
                    mask |= 1 << (n - lo)
            want = WindowSet(lo, hi, mask)
            if got != want:
                all_match = False
    elapsed = time.perf_counter() - start
    assert _report(6, all_match, f"q in (4,6,12) x 3 families exact on [-1e4,1e4] ({elapsed:.1f}s)")


# -- criterion 7: nilsystem gap bound across two windows ---------------------


def _max_gaps(s: WindowSet):
    """Every pair of consecutive members at the maximal distance."""
    pts = list(s.members())
    g = max_gap(s)
    return [(u, v) for u, v in zip(pts, pts[1:]) if v - u == g]


def _heisenberg_returns_mp(n: int, threshold):
    """Does tau^(n^2) of the identity lie in the 1/5-ball?  mpmath, 60 digits.

    Written from the ``HeisenbergNil`` docstring alone: tau^N = (N a, N b,
    C(N,2) a b), reduced to x = frac(N a), y = frac(N b) and
    z = frac(C(N,2) a b - N a floor(N b)).  The center is the identity,
    whose lattice translates are the integer triples, so the squared
    distance is ||x||^2 + ||y||^2 + ||z||^2 with ||.|| the distance to the
    nearest integer.  Returns the decision and its distance to the
    threshold, so that a caller can check that 60 digits settle it.
    """
    a = mpmath.sqrt(2) - 1
    b = mpmath.sqrt(3) - 1
    big_n = n * n
    x = big_n * a
    y = big_n * b
    z = (big_n * (big_n - 1) // 2) * a * b - x * mpmath.floor(y)

    def nearest(v):
        f = v - mpmath.floor(v)
        return min(f, 1 - f)

    d2 = nearest(x) ** 2 + nearest(y) ** 2 + nearest(z) ** 2
    return d2 < threshold, abs(d2 - threshold)


def test_criterion_7_heisenberg_gap_stability():
    """Return times of a polynomial nilorbit have bounded gaps (Leibman,
    ETDS 2005), but nothing says the supremum is reached in [-1e4, 1e4].
    The larger window must agree with the smaller one where they overlap,
    its gap can only grow, one gap bound certifies both windows, and the
    small window's gap is refuted outside it.  The gaps themselves are
    re-derived point by point without ``psynd.systems``.  The original
    claim, equal gaps on both windows, is false: the refutation is its proof.
    """
    start = time.perf_counter()
    heis = HeisenbergNil(parse_real("sqrt2-1"), parse_real("sqrt3-1"))
    x = heis.base_point()
    fam = PolyFamily.parse(["n^2"])
    eps = Fraction("0.2")
    small = return_set_1d(ReturnQuery(heis, x, x, eps, fam, (-(10**4), 10**4)))
    large = return_set_1d(ReturnQuery(heis, x, x, eps, fam, (-(10**5), 10**5)))
    elapsed = time.perf_counter() - start
    gap_small, gap_large = max_gap(small), max_gap(large)
    assert large.restrict(-(10**4), 10**4) == small
    assert gap_small <= gap_large
    for s in (small, large):
        cert = syndetic_certificate(s, gap_large)
        assert isinstance(cert, SyndeticCert) and verify_syndetic(s, cert)
    refutation = syndetic_certificate(large, gap_small)
    assert isinstance(refutation, SyndeticRefutation)
    hole = range(refutation.location, refutation.location + refutation.length)
    assert refutation.length == gap_small and refutation.gap == gap_large
    assert all(n not in large for n in hole)
    assert hole.stop <= -(10**4) or hole.start > 10**4
    assert large.lo + gap_small <= hole.start and hole.stop - 1 <= large.hi - gap_small

    located = {}
    with mpmath.workdps(60):
        threshold = mpmath.mpf(eps.numerator) ** 2 / eps.denominator**2
        for name, s in (("small", small), ("large", large)):
            located[name] = _max_gaps(s)
            for u, v in located[name]:
                for n in range(u, v + 1):
                    inside, margin = _heisenberg_returns_mp(n, threshold)
                    assert inside == (n in s) == (n in (u, v)), n
                    assert margin > mpmath.mpf(10) ** -40, n
    # pinned only because every point of these gaps was re-derived above
    assert located == {
        "small": [(-4444, -4263), (4263, 4444)],
        "large": [(-69245, -69052), (69052, 69245)],
    }
    assert (gap_small, gap_large) == (181, 193)
    ok = elapsed < 60.0
    assert _report(
        7,
        ok,
        f"max_gap {gap_small} at {located['small']} on [-1e4,1e4] <= {gap_large} at "
        f"{located['large']} on [-1e5,1e5], both checked with mpmath; "
        f"N={gap_small} refuted at {refutation.location}, {elapsed:.1f}s (< 60 s)",
    )


# -- criterion 8: induced-system identities ----------------------------------


def test_criterion_8_induced_identities():
    sys_spec = TorusRotation((parse_real("3/11"),))
    x = sys_spec.base_point()
    fam_n = PolyFamily.parse(["n"])
    radius = 50
    base = orbit_block(sys_spec, x, fam_n, radius)
    linear_ok = all(
        shift_block(base, n).same_entries(
            orbit_block(sys_spec, sys_spec.iterate(x, n), fam_n, radius - abs(n))
        )
        for n in range(-radius, radius + 1)
    )
    sq = orbit_block(sys_spec, x, PolyFamily.parse(["n^2"]), 10)
    example_ok = True
    for k in range(-5, 6):
        fam_k = PolyFamily([IntegralPolynomial.from_monomials([0, 2 * k, 1])])
        rhs = apply_map(orbit_block(sys_spec, x, fam_k, 10 - abs(k)), k * k)
        if shift_block(sq, k).entries != rhs.entries:
            example_ok = False
    rng = random.Random(0xF00D)
    periodic_ok = True
    for _ in range(100):
        length = rng.randint(1, 12)
        word = tuple(rng.randint(0, 9) for _ in range(length))
        block = PeriodicBlock(word, rng.randint(0, length - 1))
        if block.shifted(length) != block:
            periodic_ok = False
        if block.materialize(15) != block.shifted(length).materialize(15):
            periodic_ok = False
    ok = linear_ok and example_ok and periodic_ok
    assert _report(
        8,
        ok,
        f"linear isomorphism: {linear_ok}; square-shift identity: {example_ok}; "
        f"periodicity x100: {periodic_ok}",
    )


# -- criterion 9: recurrence nonemptiness -------------------------------------


def test_criterion_9_recurrence_nonempty():
    sys_spec = TorusRotation((parse_real("sqrt2"),))
    times = recurrence_times(
        sys_spec, sys_spec.base_point(), PolyFamily.parse(["n", "n^2"]), 3, Fraction("0.1"), 10**4
    )
    nonzero = sorted((n for n in times.members() if n != 0), key=abs)
    ok = len(nonzero) > 0
    assert _report(9, ok, f"{len(nonzero)} nonzero recurrence times, nearest {nonzero[:3]}")
