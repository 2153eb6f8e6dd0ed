"""Return-time sets, their combinatorial companions, and cross-checks."""

import random

import pytest

from psynd import (
    EmptySetError,
    GridSet,
    IndicatorSubshift,
    PolyFamily,
    ReturnQuery,
    TorusRotation,
    WindowSet,
    combinatorial_set_2d,
    grid_slice,
    parse_real,
    pws_area_witness_2d,
    return_set_1d,
    return_set_2d,
    shift_cover_search,
    verify_pws_2d,
)
from psynd.generators import sturmian_window
from psynd.windows import best_slice, pws_witness_2d


def rot(alpha):
    return TorusRotation((parse_real(alpha),))


def test_return_1d_identity_family_large_eps():
    sys_spec = rot("1/4")
    x = sys_spec.base_point()
    q = ReturnQuery(sys_spec, x, x, 0.6, PolyFamily.parse(["n"]), (-30, 30))
    assert return_set_1d(q) == WindowSet.full(-30, 30)


def test_return_1d_quarter_rotation_squares():
    sys_spec = rot("1/4")
    x = sys_spec.base_point()
    q = ReturnQuery(sys_spec, x, x, 0.1, PolyFamily.parse(["n^2"]), (-50, 50))
    got = return_set_1d(q)
    assert got == WindowSet.from_predicate(-50, 50, lambda n: n % 2 == 0)


def test_return_1d_sqrt2_pair_has_finite_gap():
    sys_spec = rot("sqrt2")
    x = sys_spec.base_point()
    q = ReturnQuery(sys_spec, x, x, 0.05, PolyFamily.parse(["n", "n^2"]), (-10**4, 10**4))
    got = return_set_1d(q)
    assert got.count() > 1
    from psynd import max_gap

    assert max_gap(got) < 2 * 10**4


def test_return_2d_identity_family():
    sys_spec = rot("1/3")
    x = sys_spec.base_point()
    q = ReturnQuery(sys_spec, x, x, 0.9, PolyFamily.parse(["n"]), (-6, 6, -6, 6))
    assert return_set_2d(q) == GridSet.full((-6, 6, -6, 6))


def test_return_2d_half_rotation_parity():
    sys_spec = rot("1/2")
    x = sys_spec.base_point()
    q = ReturnQuery(sys_spec, x, x, 0.1, PolyFamily.parse(["n^2"]), (-10, 10, -10, 10))
    got = return_set_2d(q)
    want = GridSet.from_predicate((-10, 10, -10, 10), lambda m, n: (m + n * n) % 2 == 0)
    assert got == want


def test_return_2d_golden_certifies():
    sys_spec = rot("golden")
    x = sys_spec.base_point()
    fam = PolyFamily.parse(["n", "n^2"])
    q = ReturnQuery(sys_spec, x, x, 0.25, fam, (-60, 60, -25, 25))
    grid = return_set_2d(q)
    cert = pws_witness_2d(grid, 10, 10, 6, 3)
    assert cert is not None and verify_pws_2d(grid, cert)


def test_slice_compatibility():
    # slice(return_set_2d, m) equals return_set_1d at the translated base point
    sys_spec = rot("5/12")
    x = sys_spec.base_point()
    fam = PolyFamily.parse(["n", "n^3"])
    box = (-9, 9, -7, 7)
    grid = return_set_2d(ReturnQuery(sys_spec, x, x, 0.2, fam, box))
    for m in range(-9, 10):
        row = grid_slice(grid, m)
        shifted = return_set_1d(
            ReturnQuery(sys_spec, sys_spec.iterate(x, m), x, 0.2, fam, (-7, 7))
        )
        assert row == shifted


def test_eps_monotonicity():
    sys_spec = rot("sqrt2")
    x = sys_spec.base_point()
    fam = PolyFamily.parse(["n^2"])
    smaller = return_set_1d(ReturnQuery(sys_spec, x, x, 0.05, fam, (-500, 500)))
    larger = return_set_1d(ReturnQuery(sys_spec, x, x, 0.2, fam, (-500, 500)))
    assert smaller.mask & larger.mask == smaller.mask


def test_combinatorial_full_window():
    s = WindowSet.full(-40, 40)
    members, validity = combinatorial_set_2d(s, PolyFamily.parse(["n"]), (-10, 10, -5, 5))
    assert members == validity
    # no polynomial: the condition is vacuous, so both are the whole box
    for s in (s, WindowSet.empty(100, 200)):
        box = (-10, 10, -5, 5)
        assert combinatorial_set_2d(s, PolyFamily(()), box) == (GridSet.full(box),) * 2


def test_combinatorial_parity_case():
    s = WindowSet.from_predicate(-100, 100, lambda n: n % 2 == 0)
    members, validity = combinatorial_set_2d(
        s, PolyFamily.parse(["n", "2n"]), (-20, 20, -20, 20)
    )
    want = GridSet.from_predicate(
        (-20, 20, -20, 20), lambda m, n: m % 2 == 0 and n % 2 == 0
    )
    assert members == want
    assert validity == GridSet.full((-20, 20, -20, 20))


def test_combinatorial_validity_masks_boundary():
    s = WindowSet.full(-10, 10)
    members, validity = combinatorial_set_2d(
        s, PolyFamily.parse(["n^2"]), (-5, 5, -10, 10)
    )
    # |n| >= 4 pushes m+n^2 outside the window for every m in [-5,5]
    assert all((0, n) not in validity for n in range(5, 11))
    naive_valid = {
        (m, n)
        for m in range(-5, 6)
        for n in range(-10, 11)
        if -10 <= m + n * n <= 10
    }
    assert set(validity.members()) == naive_valid
    assert set(members.members()) == naive_valid


def test_combinatorial_matches_naive_random():
    rng = random.Random(1234)
    for _ in range(10):
        s = WindowSet.from_predicate(-60, 60, lambda n: rng.random() < 0.5)
        fam = PolyFamily.parse(["n", "n^2"])
        box = (-12, 12, -8, 8)
        members, validity = combinatorial_set_2d(s, fam, box)
        for m in range(-12, 13):
            for n in range(-8, 9):
                vals = [p.eval(n) + m for p in fam.polys]
                valid = all(-60 <= v <= 60 for v in vals)
                member = valid and all(v in s for v in vals)
                assert ((m, n) in validity) == valid
                assert ((m, n) in members) == member


def test_shift_cover_trivial_cases():
    full = WindowSet.full(-50, 50)
    fam = PolyFamily.parse(["n", "n^2"])
    assert shift_cover_search(full, fam, WindowSet.full(-5, 5), 5) == 0
    evens = WindowSet.from_predicate(-100, 100, lambda n: n % 2 == 0)
    assert shift_cover_search(evens, PolyFamily.parse(["2n", "4n"]), evens, 10) == 0
    with pytest.raises(EmptySetError):
        shift_cover_search(full, fam, WindowSet.empty(-5, 5), 5)
    # no polynomial: every a covers vacuously, and 0 is the nearest
    none = PolyFamily(())
    assert shift_cover_search(WindowSet.empty(40, 50), none, WindowSet.full(-5, 5), 5) == 0
    with pytest.raises(EmptySetError):
        shift_cover_search(full, none, WindowSet.empty(-5, 5), 5)


def test_shift_cover_prefers_smallest_magnitude():
    s = WindowSet.from_members(-50, 50, [7, 8, 9, 10, -12, -11, -10])
    fam = PolyFamily.parse(["n"])
    target = WindowSet.from_members(-2, 2, [0, 1])
    # candidates: a with {a, a+1} in S: a in {7,8,9,-12,-11}; smallest |a| = 7
    assert shift_cover_search(s, fam, target, 2) == 7


def test_shift_cover_slice_target():
    # the satisfiable form of the projection-cover experiment: cover the
    # slice of the combinatorial set at its strongest row
    s = sturmian_window("golden", -5000, 5000)
    fam = PolyFamily.parse(["n", "n^2"])
    members, _ = combinatorial_set_2d(s, fam, (-300, 300, -70, 70))
    m_star, _ = best_slice(members, 3, 12)
    target = grid_slice(members, m_star)
    for n_bound in (5, 10, 15, 20):
        a = shift_cover_search(s, fam, target, n_bound)
        assert a is not None
        for n in target.members():
            if -n_bound <= n <= n_bound:
                assert all((a + p.eval(n)) in s for p in fam.polys)


def test_patch_translation_embedding():
    # a patch of the return set at a translated subshift point embeds into
    # the combinatorial set by an explicit horizontal translation
    s = sturmian_window("golden", -2000, 2000)
    fam = PolyFamily.parse(["n", "n^2"])
    shift_sys = IndicatorSubshift(s)
    x = shift_sys.base_point()
    # center must sit on a 1; pick the nearest letter-1 translate
    t0 = 137
    y = shift_sys.iterate(x, t0)
    while 0 not in y:
        t0 += 1
        y = shift_sys.iterate(x, t0)
    box = (-15, 15, -5, 5)
    patch = return_set_2d(ReturnQuery(shift_sys, y, y, 1.0, fam, box))
    m_radius = 15

    def embeds(m_shift):
        for m, n in patch.members():
            if abs(m) > m_radius or abs(n) > m_radius:
                continue
            if not all((m + m_shift + p.eval(n)) in s for p in fam.polys):
                return False
        return True

    found = next((t for t in sorted(range(-250, 251), key=abs) if embeds(t)), None)
    assert found is not None
    assert embeds(t0)  # the construction's own translation works


def test_planar_rows_are_subshift_return_sets():
    # Theorem A through the subshift: row m of {(m, n) : m + p_i(n) in S}
    # is the return set of sigma^m 1_S into the cylinder [1] at 0, the
    # ball of radius 1 around the one-letter word 1
    s = sturmian_window("golden", -5000, 5000)
    fam = PolyFamily.parse(["n", "n^2"])
    box = (-300, 100, -70, 70)
    members, validity = combinatorial_set_2d(s, fam, box)
    shift_sys = IndicatorSubshift(s)
    x = shift_sys.base_point()
    cylinder = WindowSet(0, 0, 1)
    full_row = WindowSet.full(box[2], box[3])
    rows = [m for m in range(box[0], box[1] + 1) if grid_slice(validity, m) == full_row]
    assert len(rows) == 401
    for m in rows:
        query = ReturnQuery(shift_sys, shift_sys.iterate(x, m), cylinder, 1, fam, box[2:])
        assert return_set_1d(query) == grid_slice(members, m)


def test_area_witness_respects_validity():
    s = sturmian_window("golden", -2000, 2000)
    fam = PolyFamily.parse(["n", "n^2"])
    members, validity = combinatorial_set_2d(s, fam, (-100, 100, -50, 50))
    cert = pws_area_witness_2d(members, validity, 6, 6, 100)
    assert cert is not None
    assert verify_pws_2d(members, cert)
    m0, n0, w, h = cert.rect
    assert all(
        (m, n) in validity for m in range(m0, m0 + w) for n in range(n0, n0 + h)
    )


def test_shift_cover_search_is_the_bruteforce_minimum():
    # every integer a is tried: feasible means each a + p_i(n) lies inside
    # S's window and in S; the answer is the smallest |a|, ties to +a
    rng = random.Random(0x5C)
    families = [["n"], ["-n"], ["n", "n^2"], ["2n", "n^2+n"], ["n^2"], ["n", "n^3+n"]]
    outcomes = set()
    for _ in range(600):
        lo = rng.randint(-40, 0)
        hi = lo + rng.randint(0, 60)
        density = rng.choice([0.5, 0.8, 0.95, 1.0])
        s = WindowSet.from_predicate(lo, hi, lambda n: rng.random() < density)
        fam = PolyFamily.parse(rng.choice(families))
        target = WindowSet.from_predicate(-6, 6, lambda n: rng.random() < 0.4)
        n_bound = rng.randint(0, 6)
        points = [n for n in target.members() if abs(n) <= n_bound]
        if not points:
            with pytest.raises(EmptySetError):
                shift_cover_search(s, fam, target, n_bound)
            continue
        values = [p.eval(n) for n in points for p in fam.polys]
        covers = [
            a for a in range(-300, 301)
            if all(lo <= a + v <= hi and (a + v) in s for v in values)
        ]
        want = min(covers, key=lambda a: (abs(a), -a)) if covers else None
        got = shift_cover_search(s, fam, target, n_bound)
        assert got == want, (s, fam, target, n_bound)
        outcomes.add("none" if want is None else "tie" if -want in covers and want else "found")
    assert outcomes == {"none", "tie", "found"}


def _naive_masked_dilation(members, validity, b1, b2):
    mlo, mhi, nlo, nhi = members.box
    return {
        (m, n)
        for m in range(mlo, mhi - b1 + 1)
        for n in range(nlo, nhi - b2 + 1)
        if (m, n) in validity
        and any((m + i, n + j) in members for i in range(b1 + 1) for j in range(b2 + 1))
    }


def _naive_max_area(cells):
    best = 0
    for m0, n0 in cells:
        for m1, n1 in cells:
            if m1 >= m0 and n1 >= n0 and all(
                (m, n) in cells for m in range(m0, m1 + 1) for n in range(n0, n1 + 1)
            ):
                best = max(best, (m1 - m0 + 1) * (n1 - n0 + 1))
    return best


def test_area_witness_is_the_first_feasible_shift_box():
    # (b1, b2) runs lexicographically over the whole [0, b1_max] x [0, b2_max],
    # shift boxes as wide as the box included
    rng = random.Random(0xA2)
    outcomes = set()
    for _ in range(250):
        box = (0, rng.randint(0, 5), -2, rng.randint(-2, 3))
        density = rng.choice([0.2, 0.5, 0.8])
        members = GridSet.from_predicate(box, lambda m, n: rng.random() < density)
        validity = GridSet.from_predicate(box, lambda m, n: rng.random() < 0.85)
        b1_max, b2_max, min_area = rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 12)
        want, area = None, 0
        for b1 in range(b1_max + 1):
            for b2 in range(b2_max + 1):
                cells = _naive_masked_dilation(members, validity, b1, b2)
                area = _naive_max_area(cells)
                if area >= min_area:
                    want = (b1, b2)
                    break
            if want:
                break
        got = pws_area_witness_2d(members, validity, b1_max, b2_max, min_area)
        assert (got.shift_box if got else None) == want, (members, validity, b1_max, b2_max, min_area)
        outcomes.add(want is not None)
        if got is not None:
            m0, n0, w, h = got.rect
            assert w * h == area
            cells = _naive_masked_dilation(members, validity, *want)
            assert all((m, n) in cells for m in range(m0, m0 + w) for n in range(n0, n0 + h))
            assert verify_pws_2d(members, got)
    assert outcomes == {True, False}
