"""Mask builders and the cover check against the per-bit code they replaced.

Each ``old_*`` function below is the earlier implementation, kept verbatim
(apart from its name and the class it builds) as an oracle: the sets must
agree bit for bit, the predicates and the seeded rng must be called in the
same order, and a member outside the window must be named by the same
message.
"""

import json
import random
from fractions import Fraction
from itertools import compress, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psynd import GridSet, WindowSet, bitops
from psynd.constants import DEFAULT_BITS, parse_real
from psynd.generators import random_thick_syndetic, sturmian_window
from psynd.check import _covered


def old_from_positions(positions, width):
    buf = bytearray((width + 7) // 8)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def old_window_from_members(lo, hi, members):
    def positions():
        for m in members:
            if not lo <= m <= hi:
                raise ValueError(f"member {m} outside window [{lo},{hi}]")
            yield m - lo

    return WindowSet(lo, hi, old_from_positions(positions(), hi - lo + 1))


def old_window_from_predicate(lo, hi, pred):
    positions = (n - lo for n in range(lo, hi + 1) if pred(n))
    return WindowSet(lo, hi, old_from_positions(positions, hi - lo + 1))


def old_grid_from_members(box, members):
    mlo, mhi, nlo, nhi = box
    stride = (nhi - nlo + 8) // 8  # bytes per row
    buf = bytearray(stride * (mhi - mlo + 1))
    for m, n in members:
        if not (mlo <= m <= mhi and nlo <= n <= nhi):
            raise ValueError(f"member {(m, n)} outside box")
        k = n - nlo
        buf[(m - mlo) * stride + (k >> 3)] |= 1 << (k & 7)
    raw = memoryview(buf)
    return GridSet(box, [int.from_bytes(raw[i : i + stride], "little")
                         for i in range(0, len(buf), stride)])


def old_grid_from_predicate(box, pred):
    mlo, mhi, nlo, nhi = box
    cells = ((m, n) for m in range(mlo, mhi + 1) for n in range(nlo, nhi + 1))
    return old_grid_from_members(box, (c for c in cells if pred(*c)))


def old_sturmian_window(alpha, lo, hi, bits=DEFAULT_BITS):
    spec = parse_real(alpha)
    if spec.is_rational:
        a = spec.as_fraction()
        return old_window_from_predicate(lo, hi, lambda n: (n * a) % 1 < Fraction(1, 2))
    scaled = spec.fixed(bits)
    mask_mod = (1 << bits) - 1
    half = 1 << (bits - 1)
    width = hi - lo + 1

    def positions():
        x = lo * scaled
        for i in range(width):
            if x & mask_mod < half:
                yield i
            x += scaled

    return WindowSet(lo, hi, old_from_positions(positions(), width))


def old_random_thick_syndetic(lo, hi, rng):
    width = hi - lo + 1
    gap = rng.randint(1, 6)
    phase = rng.randint(0, gap - 1)

    def positions():
        pos = lo
        while pos <= hi:
            run = rng.randint(max(1, width // 20), max(2, width // 5))
            hole = rng.randint(0, max(1, width // 10))
            first = pos + (phase - pos) % gap  # first n >= pos with n % gap == phase
            yield from range(first - lo, min(pos + run, hi + 1) - lo, gap)
            pos += run + hole

    return WindowSet(lo, hi, old_from_positions(positions(), width))


def old_covered(s, lo, hi, w0, w1):
    a, b = max(lo + w0, s.lo), min(hi + w1, s.hi)
    x = lo
    if a <= b:
        for p in s.restrict(a, b).members():
            if p - w1 > x:
                return False
            x = max(x, p - w0 + 1)
            if x > hi:
                return True
    return x > hi


WIDE = 10**6


@st.composite
def windows(draw, widths=(1, 2, 3, 64, 4301)):
    """(lo, hi) across 0 or wholly negative, of a listed or a small width."""
    width = draw(st.sampled_from(widths) | st.integers(1, 300))
    if draw(st.booleans()):
        lo = -draw(st.integers(0, width - 1))  # across 0
    else:
        lo = -width - draw(st.integers(1, 10**6))  # wholly negative
    return lo, lo + width - 1


def random_members(rng, lo, hi, density):
    """Shuffled members with repeats."""
    members = [n for n in range(lo, hi + 1) if rng.random() < density]
    members += rng.sample(members, len(members) // 3)
    rng.shuffle(members)
    return members


# -- from_selectors ------------------------------------------------------


@given(st.integers(0, 2**5000))
def test_from_selectors_inverts_bit_selectors(x):
    assert bitops.from_selectors(bitops.bit_selectors(x)) == x


@pytest.mark.parametrize("width", [0, 1, 4301, WIDE])
def test_from_selectors_matches_positions(width):
    rng = random.Random(width)
    sel = bytes(rng.random() < 0.4 for _ in range(width))
    want = old_from_positions(compress(count(), sel), width)
    assert bitops.from_selectors(sel) == want
    assert bitops.from_selectors(bytearray(sel)) == want


# -- WindowSet builders ----------------------------------------------------


@given(windows(), st.floats(0, 1), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_window_from_members_matches_old(window, density, seed):
    lo, hi = window
    members = random_members(random.Random(seed), lo, hi, density)
    assert WindowSet.from_members(lo, hi, members) == old_window_from_members(lo, hi, members)
    assert WindowSet.from_members(lo, hi, iter(members)) == old_window_from_members(lo, hi, members)


@given(windows(), st.lists(st.integers(-3, 3), min_size=1, max_size=6), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_window_from_members_names_the_first_member_outside(window, offsets, seed):
    lo, hi = window
    members = random_members(random.Random(seed), lo, hi, 0.3)
    # some below lo, some above hi, mixed in
    outside = [lo - 1 + o if o <= 0 else hi + o for o in offsets]
    members[len(members) // 2 : len(members) // 2] = outside
    with pytest.raises(ValueError) as want:
        old_window_from_members(lo, hi, members)
    with pytest.raises(ValueError) as got:
        WindowSet.from_members(lo, hi, members)
    assert str(got.value) == str(want.value) == f"member {outside[0]} outside window [{lo},{hi}]"


def test_window_from_members_on_an_empty_window():
    for build in (WindowSet.from_members, old_window_from_members):
        with pytest.raises(ValueError, match=r"empty window: lo=5 > hi=4"):
            build(5, 4, [])
        with pytest.raises(ValueError, match=r"member 5 outside window \[5,4\]"):
            build(5, 4, [5])


@given(windows(), st.floats(0, 1), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_window_from_predicate_matches_old(window, density, seed):
    lo, hi = window
    calls = {}
    for name, build in (("new", WindowSet.from_predicate), ("old", old_window_from_predicate)):
        rng, seen = random.Random(seed), []

        def pred(n):
            seen.append(n)
            return rng.random() < density

        calls[name] = (build(lo, hi, pred), seen)
    assert calls["new"] == calls["old"]


@pytest.mark.parametrize("lo", [-WIDE // 2, -WIDE - 7], ids=["across-0", "negative"])
def test_wide_window_builders_match_old(lo):
    hi = lo + WIDE - 1
    rng = random.Random(lo)
    members = random_members(rng, lo, hi, 0.3)
    assert WindowSet.from_members(lo, hi, members) == old_window_from_members(lo, hi, members)

    def pred(n):
        return n % 7 in (1, 2, 4)

    assert WindowSet.from_predicate(lo, hi, pred) == old_window_from_predicate(lo, hi, pred)


def test_predicates_are_read_by_truth_value():
    def residue(n):
        return n % 3

    assert WindowSet.from_predicate(-50, 50, residue) == old_window_from_predicate(-50, 50, residue)
    box = (-4, 4, -9, 9)

    def cell(m, n):
        return (m * n) % 4

    assert GridSet.from_predicate(box, cell) == old_grid_from_predicate(box, cell)


# -- GridSet builders ------------------------------------------------------


@st.composite
def boxes(draw):
    """Boxes with rows and columns across 0 or wholly negative, n-width 1 included."""
    mlo, mhi = draw(windows(widths=(1, 2, 9)).filter(lambda w: w[1] - w[0] < 40))
    nlo, nhi = draw(windows(widths=(1, 2, 64, 4301)))
    if (mhi - mlo + 1) * (nhi - nlo + 1) > 50000:
        mhi = mlo
    return mlo, mhi, nlo, nhi


@given(boxes(), st.floats(0, 1), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_grid_from_members_matches_old(box, density, seed):
    rng = random.Random(seed)
    mlo, mhi, nlo, nhi = box
    cells = [(m, n) for m in range(mlo, mhi + 1) for n in range(nlo, nhi + 1)
             if rng.random() < density]
    members = cells + rng.sample(cells, len(cells) // 3)
    rng.shuffle(members)
    as_lists = [list(c) for c in members]
    want = old_grid_from_members(box, members)
    assert GridSet.from_members(box, members) == want
    assert GridSet.from_members(box, as_lists) == want


@given(boxes(), st.floats(0, 1), st.integers(0, 2**32), st.data())
@settings(max_examples=60, deadline=None)
def test_grid_queries_match_the_cells(box, density, seed, data):
    """``GridSet(box, rows)`` and the column constructor on the transposed rows
    build the same set, and its queries and outputs agree with its cells."""
    rng = random.Random(seed)
    mlo, mhi, nlo, nhi = box
    w = nhi - nlo + 1
    cells = sorted((m, n) for m in range(mlo, mhi + 1) for n in range(nlo, nhi + 1)
                   if rng.random() < density)
    rows = [0] * (mhi - mlo + 1)
    for m, n in cells:
        rows[m - mlo] |= 1 << (n - nlo)
    e = GridSet(box, rows)
    assert e == GridSet._from_cols(box, bitops.transpose(rows, w))
    assert e.rows == tuple(rows)
    assert list(e.members()) == cells
    assert (e.count(), e.is_empty()) == (len(cells), not cells)
    cell_set = set(cells)
    probes = [(m, n) for m in (mlo - 1, mlo, mhi, mhi + 1) for n in (nlo - 1, nlo, nhi, nhi + 1)]
    probes += [(rng.randint(mlo, mhi), rng.randint(nlo, nhi)) for _ in range(50)]
    assert all((p in e) == (p in cell_set) for p in probes)
    m0 = data.draw(st.integers(mlo, mhi))
    m1 = data.draw(st.integers(m0, mhi))
    n0 = data.draw(st.integers(nlo, nhi))
    n1 = data.draw(st.integers(n0, nhi))
    assert list(e.restrict((m0, m1, n0, n1)).members()) == [
        (m, n) for m, n in cells if m0 <= m <= m1 and n0 <= n <= n1]
    other = GridSet.from_predicate(box, lambda m, n: rng.random() < 0.5)
    assert set(e.intersect(other).members()) == cell_set & set(other.members())
    assert list(e.n_projection().members()) == sorted({n for _, n in cells})
    assert json.loads(e.to_json()) == e.to_json_obj() == {
        "box": list(box), "members": [list(c) for c in cells]}
    assert e.to_csv() == "".join(f"{m},{n}\n" for m, n in cells)
    stride = (w + 63) // 64 * 8
    assert e.to_bitmap_bytes()[-len(rows) * stride :] == b"".join(
        r.to_bytes(stride, "little") for r in rows)
    assert GridSet.from_bitmap_bytes(e.to_bitmap_bytes()) == e


@given(boxes(), st.data())
@settings(max_examples=60, deadline=None)
def test_grid_from_members_names_the_first_member_outside(box, data):
    mlo, mhi, nlo, nhi = box
    inside = [(mlo, nlo), (mhi, nhi)]
    outside = data.draw(st.sampled_from([
        (mlo - 1, nlo), (mhi + 1, nhi), (mlo, nlo - 1), (mhi, nhi + 1), (mlo - 5, nhi + 5)
    ]))
    members = [*inside, outside, (mhi + 2, nlo)]
    with pytest.raises(ValueError) as want:
        old_grid_from_members(box, members)
    with pytest.raises(ValueError) as got:
        GridSet.from_members(box, members)
    assert str(got.value) == str(want.value) == f"member {outside} outside box"


@given(boxes(), st.floats(0, 1), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_grid_from_predicate_matches_old(box, density, seed):
    calls = {}
    for name, build in (("new", GridSet.from_predicate), ("old", old_grid_from_predicate)):
        rng, seen = random.Random(seed), []

        def pred(m, n):
            seen.append((m, n))
            return rng.random() < density

        calls[name] = (build(box, pred), seen)
    assert calls["new"] == calls["old"]


@pytest.mark.parametrize("box", [(-500, 499, -500, 499), (-1020, -21, -3000, -2001)],
                         ids=["across-0", "negative"])
def test_million_cell_grid_builders_match_old(box):
    rng = random.Random(box[0])
    members = [(m, n) for m in range(box[0], box[1] + 1)
               for n in range(box[2], box[3] + 1) if rng.random() < 0.4]
    rng.shuffle(members)
    assert GridSet.from_members(box, members) == old_grid_from_members(box, members)

    def pred(m, n):
        return (m + n * n) % 5 < 2

    assert GridSet.from_predicate(box, pred) == old_grid_from_predicate(box, pred)


# -- generators ------------------------------------------------------------


@given(
    st.sampled_from(["golden", "sqrt2", "pi-3", "e", "3/7", "-2/5", "1/2", "0"]),
    windows(),
    st.sampled_from([DEFAULT_BITS, 128, 200]),
)
@settings(max_examples=80, deadline=None)
def test_sturmian_window_matches_old(alpha, window, bits):
    lo, hi = window
    assert sturmian_window(alpha, lo, hi, bits) == old_sturmian_window(alpha, lo, hi, bits)


@pytest.mark.parametrize("alpha", ["golden", "sqrt2"])
@pytest.mark.parametrize("lo", [-WIDE // 2, -WIDE - 7], ids=["across-0", "negative"])
def test_wide_sturmian_window_matches_old(alpha, lo):
    hi = lo + WIDE - 1
    assert sturmian_window(alpha, lo, hi) == old_sturmian_window(alpha, lo, hi)


@given(windows(widths=(1, 2, 3, 4301, WIDE)), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_random_thick_syndetic_matches_old(window, seed):
    lo, hi = window
    rng_new, rng_old = random.Random(seed), random.Random(seed)
    assert random_thick_syndetic(lo, hi, rng_new) == old_random_thick_syndetic(lo, hi, rng_old)
    assert rng_new.getstate() == rng_old.getstate()  # the same draws, in the same order


# -- the cover check -------------------------------------------------------


@given(windows(widths=(1, 2, 3, 64, 300)), st.floats(0, 1), st.integers(0, 2**32), st.data())
@settings(max_examples=300, deadline=None)
def test_covered_matches_the_member_walk(window, density, seed, data):
    lo, hi = window
    rng = random.Random(seed)
    s = WindowSet.from_members(lo, hi, [n for n in range(lo, hi + 1) if rng.random() < density])
    # regions inside, partly outside or wholly outside the window, and empty (a > b)
    a = data.draw(st.integers(lo - 20, hi + 20))
    b = data.draw(st.integers(a - 3, hi + 25))
    w0 = data.draw(st.integers(-8, 8))
    w1 = data.draw(st.integers(w0 - 3, w0 + 12))  # w1 < w0 included
    assert _covered(s.mask, s.lo, a, b, w0, w1) == old_covered(s, a, b, w0, w1)


def test_covered_edge_cases():
    s = WindowSet.from_members(-10, 10, [-10, -7, -4, 0, 3, 10])
    assert _covered(s.mask, s.lo, 5, 4, 0, 0)  # empty region
    assert _covered(s.mask, s.lo, 0, -100, 3, 1)  # empty region, even with w1 < w0
    assert not _covered(s.mask, s.lo, 0, 0, 0, -1)  # a point, w1 < w0
    assert not _covered(s.mask, s.lo, -10, -10, 1, 0)
    assert _covered(s.mask, s.lo, -10, 3, 0, 3)  # gaps of 3 and 4 at w1 - w0 + 1 = 4
    assert not _covered(s.mask, s.lo, -10, 4, 0, 3)  # 4 needs a member in [4, 7]: the gap 3..10 is 7
    assert _covered(s.mask, s.lo, -13, -12, 2, 3)  # partly outside the window, served by -10
    assert not _covered(s.mask, s.lo, 20, 30, -5, 5)  # no member serves it
    assert _covered(WindowSet.full(0, 4).mask, 0, 0, 4, 0, 0)
    assert not _covered(0, 0, 0, 0, -100, 100)
