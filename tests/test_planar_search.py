"""The column-mask planar witness searches against the row-space code they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
the names of what they call: ``dilate_2d`` rebuilds the box dilation from
the rows for every (b1, b2), ``_find_rect`` scans it row by row, the area
search takes one full ``max_rectangle`` of every masked dilation, and the
shape search binary-searches b2.  The searches in ``psynd`` must return the
same whole certificate, shift box and rectangle, on every input.
"""

import random
from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psynd import BadBoundError, GridSet, PwsCert2D, bitops, max_rectangle, pws_area_witness_2d
from psynd.returnsets import masked_dilation_2d
from psynd.windows import pws_witness_2d

# -- oracles: the row-space code the column search replaced ----------------


def oracle_dilate_2d(e: GridSet, b1: int, b2: int) -> GridSet:
    """Union of translates ``e - (i, j)``, (i, j) in [0,b1]x[0,b2], on the shrunk box."""
    if b1 < 0 or b2 < 0:
        raise BadBoundError("shift bounds must be >= 0")
    if b1 >= e.m_width or b2 >= e.n_width:
        raise BadBoundError("shift bounds exceed box")
    n_keep = bitops.mask_of(e.n_width - b2)
    smeared = [bitops.smear_down(r, b2) & n_keep for r in e.rows]
    rows = []
    nrows = len(smeared)
    for i in range(nrows - b1):
        acc = 0
        for j in range(b1 + 1):
            acc |= smeared[i + j]
        rows.append(acc)
    return GridSet((e.mlo, e.mhi - b1, e.nlo, e.nhi - b2), rows)


def oracle_find_rect(rows: Sequence[int], w: int, h: int) -> Optional[Tuple[int, int]]:
    """Lowest (row index, col index) where a w-row x h-col all-ones rect starts."""
    for i in range(len(rows) - w + 1):
        acc = rows[i]
        for j in range(1, w):
            acc &= rows[i + j]
            if not acc:
                break
        if acc:
            start = bitops.has_run(acc, h)
            if start is not None:
                return (i, start)
    return None


def oracle_pws_witness_2d(
    e: GridSet, b1_max: int, b2_max: int, w: int, h: int
) -> Optional[PwsCert2D]:
    if b1_max < 0 or b2_max < 0:
        raise BadBoundError("shift bounds must be >= 0")
    if w < 1 or h < 1:
        raise BadBoundError("rectangle sides must be >= 1")
    b1_cap = min(b1_max, e.m_width - w)
    b2_cap = min(b2_max, e.n_width - h)
    if b2_cap < 0:
        return None

    def attempt(b1: int, b2: int) -> Optional[Tuple[int, int]]:
        return oracle_find_rect(oracle_dilate_2d(e, b1, b2).rows, w, h)

    for b1 in range(0, b1_cap + 1):
        if attempt(b1, b2_cap) is None:
            continue
        lo_b, hi_b = 0, b2_cap
        while lo_b < hi_b:
            mid = (lo_b + hi_b) // 2
            if attempt(b1, mid) is not None:
                hi_b = mid
            else:
                lo_b = mid + 1
        pos = attempt(b1, lo_b)
        assert pos is not None
        return PwsCert2D(
            shift_box=(b1, lo_b),
            rect=(e.mlo + pos[0], e.nlo + pos[1], w, h),
        )
    return None


def oracle_masked_dilation_2d(members: GridSet, validity: GridSet, b1: int, b2: int) -> GridSet:
    d = oracle_dilate_2d(members, b1, b2)
    return GridSet(d.box, [a & b for a, b in zip(d.rows, validity.restrict(d.box).rows)])


def oracle_pws_area_witness_2d(
    members: GridSet, validity: GridSet, b1_max: int, b2_max: int, min_area: int
) -> Optional[PwsCert2D]:
    for b1 in range(0, min(b1_max, members.m_width - 1) + 1):
        for b2 in range(0, min(b2_max, members.n_width - 1) + 1):
            area, rect = max_rectangle(oracle_masked_dilation_2d(members, validity, b1, b2))
            if rect is not None and area >= min_area:
                return PwsCert2D(shift_box=(b1, b2), rect=rect)
    return None


# -- strategies ----------------------------------------------------------


@st.composite
def boxes(draw):
    """Boxes up to 12 x 12, single rows and single columns included."""
    m_width = draw(st.sampled_from([1, 1, 2, 3, 5, 8, 12]))
    n_width = draw(st.sampled_from([1, 1, 2, 3, 5, 8, 12]))
    mlo, nlo = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    return (mlo, mlo + m_width - 1, nlo, nlo + n_width - 1)


def rows_of(draw, box, density):
    n_width, m_width = box[3] - box[2] + 1, box[1] - box[0] + 1
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [
        sum(1 << j for j in range(n_width) if rng.random() < density) for _ in range(m_width)
    ]


@st.composite
def area_searches(draw):
    """(members, validity, b1_max, b2_max, min_area).  Validity is the whole box,
    a superset of the members or drawn on its own; bounds reach past the box
    sides; min_area runs from 1 past the box's cell count."""
    box = draw(boxes())
    members = GridSet(box, rows_of(draw, box, draw(st.sampled_from([0.1, 0.4, 0.7, 0.9]))))
    kind = draw(st.sampled_from(["full", "superset", "independent"]))
    if kind == "full":
        validity = GridSet.full(box)
    else:
        extra = rows_of(draw, box, draw(st.sampled_from([0.5, 0.8, 0.95])))
        if kind == "superset":
            extra = [a | b for a, b in zip(extra, members.rows)]
        validity = GridSet(box, extra)
    m_width, n_width = members.m_width, members.n_width
    b1_max = draw(st.integers(0, m_width + 2))
    b2_max = draw(st.integers(0, n_width + 2))
    cells = m_width * n_width
    min_area = draw(st.one_of(st.just(1), st.integers(1, cells), st.integers(cells + 1, cells + 5)))
    return members, validity, b1_max, b2_max, min_area


@st.composite
def shape_searches(draw):
    """(grid, b1_max, b2_max, w, h), with bounds and sides past the box sides."""
    box = draw(boxes())
    e = GridSet(box, rows_of(draw, box, draw(st.sampled_from([0.1, 0.4, 0.7, 0.9]))))
    return (
        e,
        draw(st.integers(0, e.m_width + 2)),
        draw(st.integers(0, e.n_width + 2)),
        draw(st.integers(1, e.m_width + 1)),
        draw(st.integers(1, e.n_width + 1)),
    )


# -- differential tests --------------------------------------------------


@given(area_searches())
@settings(max_examples=800, deadline=None)
def test_area_witness_matches_row_search(args):
    assert pws_area_witness_2d(*args) == oracle_pws_area_witness_2d(*args)


@given(shape_searches())
@settings(max_examples=800, deadline=None)
def test_shape_witness_matches_row_search(args):
    assert pws_witness_2d(*args) == oracle_pws_witness_2d(*args)


@given(area_searches(), st.data())
@settings(max_examples=300, deadline=None)
def test_masked_dilation_matches_row_dilation(args, data):
    members, validity = args[:2]
    b1 = data.draw(st.integers(0, members.m_width - 1))
    b2 = data.draw(st.integers(0, members.n_width - 1))
    assert masked_dilation_2d(members, validity, b1, b2) == oracle_masked_dilation_2d(
        members, validity, b1, b2
    )


@pytest.mark.parametrize("m_width,n_width", [(1, 1), (1, 40), (40, 1), (2, 30), (30, 2)])
def test_single_row_and_column_boxes(m_width, n_width):
    """Strips: every min_area up to past the box, every rect side up to past it."""
    rng = random.Random(m_width * 100 + n_width)
    box = (3, 2 + m_width, -4, n_width - 5)
    for density in (0.3, 0.6, 0.9):
        members = GridSet.from_predicate(box, lambda m, n: rng.random() < density)
        validity = GridSet.from_predicate(box, lambda m, n: rng.random() < 0.9)
        for min_area in range(1, m_width * n_width + 3, max(1, m_width * n_width // 12)):
            args = (members, validity, m_width + 1, n_width + 1, min_area)
            assert pws_area_witness_2d(*args) == oracle_pws_area_witness_2d(*args)
        for w in range(1, m_width + 2):
            for h in range(1, n_width + 2, max(1, n_width // 8)):
                args = (members, m_width, n_width, w, h)
                assert pws_witness_2d(*args) == oracle_pws_witness_2d(*args)

