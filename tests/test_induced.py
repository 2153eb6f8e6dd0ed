"""Blocks, their shift/apply-map actions, recurrence times, periodic points."""

import random
from fractions import Fraction

import pytest

from psynd import (
    IndicatorSubshift,
    IntegralPolynomial,
    NotNormalFormError,
    PeriodicBlock,
    PolyFamily,
    RadiusExhaustedError,
    TorusRotation,
    WindowSet,
    apply_map,
    shift_block,
    block_distance,
    orbit_block,
    parse_polynomial,
    parse_real,
    recurrence_times,
    split_block,
)
from psynd.generators import sturmian_window


def rot(alpha):
    return TorusRotation((parse_real(alpha),))


def test_orbit_block_linear_rows():
    sys_spec = rot("1/7")
    x = sys_spec.base_point()
    b = orbit_block(sys_spec, x, PolyFamily.parse(["n"]), 5)
    for n in range(-5, 6):
        assert b.entry(n) == (sys_spec.iterate(x, n),)


def test_split_block_layout_for_n_nsquared():
    sys_spec = rot("1/7")
    x = sys_spec.base_point()
    b = split_block(sys_spec, x, PolyFamily.parse(["n", "n^2"]), 4)
    assert b.head == (x,)
    for j in range(-4, 5):
        assert b.entry(j) == (sys_spec.iterate(x, j * j),)


def test_block_radius_zero_is_diagonal():
    sys_spec = rot("2/9")
    x = sys_spec.base_point()
    b = orbit_block(sys_spec, x, PolyFamily.parse(["n", "n^2", "n^3"]), 0)
    assert b.entry(0) == (x, x, x)


def test_split_block_requires_normal_form():
    sys_spec = rot("1/7")
    for texts in (["n^2", "n^2+2n"], ["n", "0"]):  # a shift coincidence, a zero member
        with pytest.raises(NotNormalFormError):
            split_block(sys_spec, sys_spec.base_point(), PolyFamily.parse(texts), 2)


def test_act_identity():
    sys_spec = rot("1/5")
    b = split_block(sys_spec, sys_spec.base_point(), PolyFamily.parse(["n", "n^2"]), 3)
    assert shift_block(b, 0) == b
    assert apply_map(b, 0) == b


def test_shift_equals_apply_map_for_linear_family():
    sys_spec = rot("1/7")
    b = orbit_block(sys_spec, sys_spec.base_point(), PolyFamily.parse(["n"]), 6)
    lhs = shift_block(b, 1)
    rhs = apply_map(b, 1)
    for j in range(-5, 6):
        assert lhs.entry(j) == rhs.entry(j)


def test_example_shift_identity_on_squares():
    # shifting the n^2 block by k equals applying T^(k^2) to the (n^2 + 2kn) block
    sys_spec = rot("3/11")
    x = sys_spec.base_point()
    radius = 9
    base = orbit_block(sys_spec, x, PolyFamily.parse(["n^2"]), radius)
    for k in range(-5, 6):
        lhs = shift_block(base, k)
        fam_k = PolyFamily([IntegralPolynomial.from_monomials([0, 2 * k, 1])])
        rhs = apply_map(
            orbit_block(sys_spec, x, fam_k, radius - abs(k)), k * k
        )
        assert lhs.entries == rhs.entries


def test_linear_case_isomorphism():
    sys_spec = rot("4/13")
    x = sys_spec.base_point()
    fam = PolyFamily.parse(["n"])
    base = orbit_block(sys_spec, x, fam, 20)
    for n in range(-20, 21):
        shifted = shift_block(base, n)
        fresh = orbit_block(sys_spec, sys_spec.iterate(x, n), fam, 20 - abs(n))
        assert shifted.same_entries(fresh)


def test_actions_commute():
    sys_spec = rot("sqrt2")
    b = split_block(sys_spec, sys_spec.base_point(), PolyFamily.parse(["2n", "n^2"]), 5)
    assert apply_map(shift_block(b, 2), 7) == shift_block(apply_map(b, 7), 2)


def test_provenance_recompute():
    for sys_spec in (rot("1/9"), rot("sqrt3")):
        b = split_block(sys_spec, sys_spec.base_point(), PolyFamily.parse(["n", "n^3"]), 4)
        moved = apply_map(shift_block(b, 2), -5)
        assert moved.recomputed() == moved
        ob = orbit_block(sys_spec, sys_spec.base_point(), PolyFamily.parse(["n^2"]), 4)
        assert shift_block(ob, -3).recomputed() == shift_block(ob, -3)


def test_radius_exhaustion():
    sys_spec = rot("1/5")
    b = orbit_block(sys_spec, sys_spec.base_point(), PolyFamily.parse(["n"]), 2)
    with pytest.raises(RadiusExhaustedError):
        shift_block(b, 3)
    with pytest.raises(RadiusExhaustedError):
        b.entry(3)


@pytest.mark.parametrize("alpha", ["2/9", "sqrt2"])
def test_family_without_linear_member_is_one_block_either_way(alpha):
    sys_spec = rot(alpha)
    x = sys_spec.base_point()
    fam = PolyFamily.parse(["n^2", "n^3"])
    ob, sb = orbit_block(sys_spec, x, fam, 5), split_block(sys_spec, x, fam, 5)
    assert ob.head == sb.head == ()
    assert ob.entries == sb.entries
    assert ob.to_json_obj()["entries"] == sb.to_json_obj()["tail"]
    assert sb.to_json_obj()["head"] == [] and "entries" not in sb.to_json_obj()
    for b in (ob, sb):
        moved = apply_map(shift_block(b, 2), 3)
        assert moved == shift_block(apply_map(b, 3), 2)
        assert moved.recomputed() == moved
        assert b.recomputed() == b
    assert block_distance(shift_block(ob, 1), ob, 3) == block_distance(shift_block(sb, 1), sb, 3)
    assert block_distance(shift_block(ob, 1), ob, 3) > 0


def test_block_distance_basics():
    sys_spec = rot("1/8")
    b = split_block(sys_spec, sys_spec.base_point(), PolyFamily.parse(["n", "n^2"]), 4)
    assert block_distance(b, b, 4) == 0
    with pytest.raises(RadiusExhaustedError):
        block_distance(b, shift_block(b, 2), 3)
    linear = PolyFamily.parse(["n"])  # its split block keeps every point in the head
    for make in (orbit_block, split_block):
        moved = shift_block(make(sys_spec, sys_spec.base_point(), linear, 3), 1)
        assert block_distance(moved, make(sys_spec, sys_spec.base_point(), linear, 2), 2) == Fraction(1, 8)


def test_block_distance_differs_only_at_edge():
    sys_spec = rot("1/8")
    x = sys_spec.base_point()
    fam = PolyFamily.parse(["n^2"])
    b1 = orbit_block(sys_spec, x, fam, 2)
    b2 = orbit_block(sys_spec, sys_spec.iterate(x, 0), fam, 2)
    assert block_distance(b1, b2, 2) == 0
    # compare against a shifted block: distance is the worst edge coordinate
    shifted = shift_block(orbit_block(sys_spec, x, fam, 4), 1)
    expected = max(
        sys_spec.point_distance(
            sys_spec.iterate(x, (j + 1) ** 2), sys_spec.iterate(x, j * j)
        )
        for j in range(-2, 3)
    )
    assert block_distance(shifted, b1, 2) == expected


def test_block_distance_sturmian_hand_value():
    s = sturmian_window("golden", -60, 60)
    shift_sys = IndicatorSubshift(s)
    x = shift_sys.base_point()
    fam = PolyFamily.parse(["n^2"])
    base = orbit_block(shift_sys, x, fam, 2)
    shifted = shift_block(orbit_block(shift_sys, x, fam, 3), 1)
    # hand computation: coordinate j compares the words at offsets (j+1)^2, j^2
    def word_dist(u, v):
        k = 0
        while True:
            for i in (k, -k) if k else (0,):
                if ((u + i) in s) != ((v + i) in s):
                    return Fraction(1, k + 1)
            k += 1

    expected = max(word_dist((j + 1) ** 2, j * j) for j in range(-2, 3))
    assert block_distance(shifted, base, 2) == expected


def test_recurrence_zero_always_present():
    sys_spec = rot("sqrt2")
    times = recurrence_times(
        sys_spec, sys_spec.base_point(), PolyFamily.parse(["n", "n^2"]), 3, 0.1, 50
    )
    assert 0 in times


def test_recurrence_rejects_a_negative_radius():
    sys_spec = rot("1/4")
    with pytest.raises(ValueError, match="radius must be >= 0"):
        recurrence_times(sys_spec, sys_spec.base_point(), PolyFamily.parse(["n^2"]), -1, 0.1, 5)


def test_recurrence_rational_oracle():
    # quarter rotation, family {n^2}: recurrence needs (n+j)^2 - j^2 = 0 mod 4
    # for all |j| <= K, i.e. n even
    sys_spec = rot("1/4")
    times = recurrence_times(
        sys_spec, sys_spec.base_point(), PolyFamily.parse(["n^2"]), 3, 0.1, 100
    )
    assert times == WindowSet.from_predicate(-100, 100, lambda n: n % 2 == 0)


def test_recurrence_sqrt2_nonempty():
    sys_spec = rot("sqrt2")
    times = recurrence_times(
        sys_spec, sys_spec.base_point(), PolyFamily.parse(["n", "n^2"]), 3, 0.1, 10**4
    )
    assert any(n != 0 for n in times.members())


def test_periodic_extension_examples():
    word01 = PeriodicBlock(("0", "1"))
    assert word01.materialize(3) == ("1", "0", "1", "0", "1", "0", "1")
    const = PeriodicBlock(("a",))
    assert const.shifted(1) == const

    rng = random.Random(3)
    for _ in range(50):
        length = rng.randint(1, 9)
        word = tuple(rng.randint(0, 1) for _ in range(length))
        block = PeriodicBlock(word, rng.randint(0, length - 1))
        assert block.shifted(length) == block
        radius = rng.randint(0, 12)
        assert block.shifted(length).materialize(radius) == block.materialize(radius)


def test_periodic_extension_orbit_word():
    # the periodised central patch of a polynomial orbit is fixed by shifting by 2k+1
    s = sturmian_window("golden", -200, 200)
    shift_sys = IndicatorSubshift(s)
    x = shift_sys.base_point()
    k = 3
    p = parse_polynomial("n^2")
    word = tuple(shift_sys.iterate(x, p.eval(j)) for j in range(-k, k + 1))
    block = PeriodicBlock(word, k)
    assert block.entry(0) == shift_sys.iterate(x, 0)
    assert block.shifted(2 * k + 1) == block
    assert block.materialize(10) == block.shifted(2 * k + 1).materialize(10)
