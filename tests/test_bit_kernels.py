"""The bit-parallel kernels against the per-cell and per-bit code they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
taking their inputs as arguments: the histogram ``max_rectangle``, which
walks every cell of every row; the per-member loops of
``combinatorial_set_2d``, which set one row bit per member of each column;
and the mask builders that OR one bit at a time into a growing int
(``WindowSet.from_members``, ``sturmian_window``, ``random_thick_syndetic``).
``max_rectangle`` must return the same (area, rect) tuple, tie rule
included, and its column core the same tuple above any area threshold; the
others the same grids and masks; ``bitops.transpose`` is
checked against a per-bit transpose.
"""

import random
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psynd import GridSet, PolyFamily, WindowSet, bitops, combinatorial_set_2d, max_rectangle
from psynd.constants import parse_real
from psynd.generators import random_thick_syndetic, sturmian_window
from psynd.windows import max_rectangle_cols

# -- oracles: the per-cell code the kernels replaced ----------------------


def oracle_max_rectangle(e: GridSet):
    """Largest all-ones rectangle (area, (m0, n0, w, h)) by the histogram method."""
    ncols = e.n_width
    heights = [0] * ncols
    best_area = 0
    best = None
    for ri, row in enumerate(e.rows):
        for c in range(ncols):
            heights[c] = heights[c] + 1 if (row >> c) & 1 else 0
        stack: List[int] = []
        c = 0
        while c <= ncols:
            cur = heights[c] if c < ncols else 0
            if not stack or heights[stack[-1]] <= cur:
                stack.append(c)
                c += 1
            else:
                top = stack.pop()
                height = heights[top]
                left = stack[-1] + 1 if stack else 0
                area = height * (c - left)
                if area > best_area:
                    best_area = area
                    best = (e.mlo + ri - height + 1, e.nlo + left, height, c - left)
        # stack holds increasing heights; loop above drains it via the
        # sentinel cur=0 at c == ncols
    return best_area, best


def oracle_combinatorial_set_2d(s: WindowSet, family: PolyFamily, box):
    mlo, mhi, nlo, nhi = box
    m_width = mhi - mlo + 1
    m_mask = bitops.mask_of(m_width)
    member_rows = [0] * m_width
    valid_rows = [0] * m_width
    for n in range(nlo, nhi + 1):
        values = [p.eval(n) for p in family.polys]
        # for each i, m must lie in [S.lo - v_i, S.hi - v_i]
        a = max(mlo, max(s.lo - v for v in values))
        b = min(mhi, min(s.hi - v for v in values))
        if a > b:
            continue
        valid_col = bitops.mask_of(b - a + 1) << (a - mlo)
        member_col = valid_col
        for v in values:
            off = mlo + v - s.lo
            col = s.mask >> off if off >= 0 else s.mask << -off
            member_col &= col & m_mask
            if not member_col:
                break
        bit_n = 1 << (n - nlo)
        for m_idx in bitops.iter_bits(valid_col):
            valid_rows[m_idx] |= bit_n
        for m_idx in bitops.iter_bits(member_col):
            member_rows[m_idx] |= bit_n
    return GridSet(box, member_rows), GridSet(box, valid_rows)


def oracle_from_members(lo, hi, members):
    mask = 0
    for m in members:
        if not lo <= m <= hi:
            raise ValueError(f"member {m} outside window [{lo},{hi}]")
        mask |= 1 << (m - lo)
    return mask


def oracle_sturmian_mask(alpha, lo, hi, bits):
    scaled = parse_real(alpha).fixed(bits)
    mask_mod = (1 << bits) - 1
    half = 1 << (bits - 1)
    m = 0
    for n in range(lo, hi + 1):
        if (n * scaled) & mask_mod < half:
            m |= 1 << (n - lo)
    return m


def oracle_random_thick_syndetic(lo, hi, rng):
    width = hi - lo + 1
    gap = rng.randint(1, 6)
    phase = rng.randint(0, gap - 1)
    mask = 0
    pos = lo
    while pos <= hi:
        run = rng.randint(max(1, width // 20), max(2, width // 5))
        hole = rng.randint(0, max(1, width // 10))
        for n in range(pos, min(pos + run, hi + 1)):
            if n % gap == phase:
                mask |= 1 << (n - lo)
        pos += run + hole
    return mask


def oracle_transpose(rows, width):
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(width)]


# -- strategies ----------------------------------------------------------


@st.composite
def grids(draw):
    """Boxes up to 24 x 24; rows drawn from a few masks, so areas often tie."""
    m_width = draw(st.integers(1, 24))
    n_width = draw(st.integers(1, 24))
    mlo, nlo = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    full = bitops.mask_of(n_width)
    palette = draw(st.lists(st.integers(0, full), min_size=1, max_size=4)) + [0, full]
    rows = draw(st.lists(st.sampled_from(palette), min_size=m_width, max_size=m_width))
    return GridSet((mlo, mlo + m_width - 1, nlo, nlo + n_width - 1), rows)


# -- differential tests --------------------------------------------------


@given(grids())
@settings(max_examples=600, deadline=None)
def test_max_rectangle_matches_histogram(e):
    assert max_rectangle(e) == oracle_max_rectangle(e)


@pytest.mark.parametrize("m_width,n_width", [
    (1, 1), (1, 40), (40, 1), (3, 200), (200, 3), (300, 17), (17, 300), (33, 31),
])
@pytest.mark.parametrize("density", [0.0, 0.5, 0.9, 1.0])
def test_max_rectangle_shapes(m_width, n_width, density):
    """Empty and full grids, single rows and columns, tall and wide boxes."""
    rng = random.Random(m_width * 1000 + n_width)
    rows = [sum(1 << j for j in range(n_width) if rng.random() < density) for _ in range(m_width)]
    e = GridSet((-7, m_width - 8, 5, n_width + 4), rows)
    got = max_rectangle(e)
    assert got == oracle_max_rectangle(e)
    if density == 1.0:
        assert got == (m_width * n_width, (-7, 5, m_width, n_width))
    if density == 0.0:
        assert got == (0, None)


@given(grids())
@settings(max_examples=400, deadline=None)
def test_max_rectangle_cols_threshold(e):
    """With threshold t the column core gives the oracle's tuple when its area
    exceeds t and (0, None) otherwise: t = 0, one below the maximum, the
    maximum itself and one above it."""
    want = oracle_max_rectangle(e)
    cols = bitops.transpose(e.rows, e.n_width)
    for t in sorted({0, max(want[0] - 1, 0), want[0], want[0] + 1}):
        got = max_rectangle_cols(cols, e.box, t)
        assert got == (want if want[0] > t else (0, None)), t


def test_max_rectangle_tie_rule():
    """Equal areas go to the lowest bottom row, then the lowest right end,
    then the most rows."""
    # a 1x4 strip in row 0 and a 4x1 column in column 5 rows 0..3: the strip
    # ends lower
    e = GridSet.from_members((0, 3, 0, 5), [(0, n) for n in range(4)] + [(m, 5) for m in range(4)])
    assert max_rectangle(e) == (4, (0, 0, 1, 4))
    # both end on row 1; the 2x2 square ends further left than the 1x4 strip
    e = GridSet.from_members((0, 1, 0, 7), [(0, 0), (0, 1), (1, 0), (1, 1)]
                             + [(1, n) for n in range(4, 8)])
    assert max_rectangle(e) == (4, (0, 0, 2, 2))
    # same bottom row and right end: the 4x1 column beats the 2x2 square
    e = GridSet.from_members((0, 3, 0, 1), [(m, 1) for m in range(4)] + [(2, 0), (3, 0)])
    assert max_rectangle(e) == (4, (0, 1, 4, 1))


@pytest.mark.parametrize("nrows,width", [
    (0, 5), (5, 0), (1, 1), (1, 9), (9, 1), (3, 17), (17, 3), (8, 8), (7, 9), (9, 7),
    (15, 16), (16, 17), (31, 33), (32, 32), (33, 31), (64, 65), (63, 130), (130, 63),
])
def test_transpose_matches_per_bit(nrows, width):
    rng = random.Random(nrows * 1000 + width)
    rows = [rng.getrandbits(width) if width else 0 for _ in range(nrows)]
    cols = bitops.transpose(rows, width)
    assert cols == oracle_transpose(rows, width)
    if nrows:
        assert bitops.transpose(cols, nrows) == rows


@given(st.integers(0, 40).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, bitops.mask_of(w)), max_size=40))))
@settings(max_examples=300, deadline=None)
def test_transpose_random(case):
    width, rows = case
    assert bitops.transpose(rows, width) == oracle_transpose(rows, width)


@given(st.integers(1, 9).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, bitops.mask_of(w)), max_size=300))))
@settings(max_examples=300, deadline=None)
def test_narrow_transpose_matches_tiles(case):
    # rows of at most 8 bits are read as bytes; 9 bits is the first width left to the tiles
    width, rows = case
    assert bitops.transpose(rows, width) == bitops._transpose_tiles(rows, width)
    assert bitops.transpose(rows, width) == oracle_transpose(rows, width)


FAMILIES = [["n"], ["n^2"], ["n", "n^2"], ["-n", "2n", "n^2"], ["n^3+n"]]


@given(
    st.integers(-60, 20),
    st.integers(1, 120),
    st.floats(0.0, 1.0),
    st.sampled_from(FAMILIES),
    st.tuples(st.integers(-80, 80), st.integers(0, 30), st.integers(-15, 15), st.integers(0, 12)),
    st.integers(0, 2**32),
)
@settings(max_examples=300, deadline=None)
def test_combinatorial_set_2d_matches_per_cell_loop(lo, width, density, fam, box, seed):
    rng = random.Random(seed)
    s = WindowSet.from_predicate(lo, lo + width - 1, lambda n: rng.random() < density)
    mlo, m_span, nlo, n_span = box
    box = (mlo, mlo + m_span, nlo, nlo + n_span)
    family = PolyFamily.parse(fam)
    assert combinatorial_set_2d(s, family, box) == oracle_combinatorial_set_2d(s, family, box)


def test_combinatorial_set_2d_empty_validity():
    """Boxes whose every evaluation leaves the window give empty grids."""
    s = WindowSet.full(-10, 10)
    family = PolyFamily.parse(["n", "n^2"])
    for box in [(100, 120, -3, 3), (-5, 5, 20, 30), (-200, -150, -4, 4)]:
        members, validity = combinatorial_set_2d(s, family, box)
        assert validity.is_empty() and members.is_empty()
        assert (members, validity) == oracle_combinatorial_set_2d(s, family, box)


@given(st.integers(-300, 300), st.integers(0, 400), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_mask_builders_match_per_bit_loops(lo, span, seed):
    hi = lo + span
    rng = random.Random(seed)
    members = [n for n in range(lo, hi + 1) if rng.random() < 0.4]
    mask = oracle_from_members(lo, hi, members)
    rng.shuffle(members)
    assert WindowSet.from_members(lo, hi, iter(members + members[:3])).mask == mask
    assert WindowSet.from_predicate(lo, hi, set(members).__contains__).mask == mask
    for alpha, bits in [("golden", 128), ("sqrt2", 256), ("pi-1/3", 256)]:
        assert sturmian_window(alpha, lo, hi, bits).mask == oracle_sturmian_mask(alpha, lo, hi, bits)
    seed = rng.getrandbits(32)
    got = random_thick_syndetic(lo, hi, random.Random(seed))
    assert got.mask == oracle_random_thick_syndetic(lo, hi, random.Random(seed))


@given(st.integers(0, 2**70), st.integers(1, 70), st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_tile_mask_repeats_the_low_word(x, period, width):
    want = sum(1 << i for i in range(width) if (x >> (i % period)) & 1)
    assert bitops.tile_mask(x, period, width) == want


def test_from_members_names_the_first_member_outside():
    for members, bad in [([3, 11, -1], 11), ([3, -1, 11], -1), ([0, 11], 11), ([-1, 10], -1)]:
        with pytest.raises(ValueError, match=f"member {bad} outside window"):
            oracle_from_members(0, 10, members)
        with pytest.raises(ValueError, match=f"member {bad} outside window"):
            WindowSet.from_members(0, 10, members)
