"""Report text written from masks, against ``json.dumps`` of the member lists.

Sets go into reports as JSON text generated straight from their masks
(``WindowSet.to_json``, ``GridSet.to_json``, ``cli._dump_json``), and
into ``--format csv`` output the same way (``to_csv``); their members
come from ``bitops.iter_bits``.  Each is checked here against the plain
construction it replaces: ``json.dumps`` of ``to_json_obj()``, one
formatted line per member, and the byte-wise bit scan.  A ``GridSet``
writes its rows by 8-column string tables or bit by bit, by a cost rule
on its shape (``windows.TABLE_ROWS``); both sides are checked on every set.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psynd import bitops, windows
from psynd.cli import _dump_json
from psynd.generators import sturmian_window
from psynd.polynomials import PolyFamily
from psynd.returnsets import combinatorial_set_2d
from psynd.windows import GridSet, WindowSet


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def iter_bits_bytewise(x):
    """The former byte-wise ``iter_bits``, kept verbatim as the oracle."""
    if x == 0:
        return
    nbytes = (x.bit_length() + 7) // 8
    raw = x.to_bytes(nbytes, "little")
    base = 0
    for byte in raw:
        while byte:
            low = byte & -byte
            yield base + low.bit_length() - 1
            byte ^= low
        base += 8


# -- iter_bits ---------------------------------------------------------

EDGE_MASKS = [0, 1] + [
    v for k in (1, 2, 7, 8, 9, 31, 63, 64, 65, 1000, 4096) for v in (1 << k, (1 << k) - 1)
]


@pytest.mark.parametrize("x", EDGE_MASKS)
def test_iter_bits_matches_bytewise_scan_on_edges(x):
    assert list(bitops.iter_bits(x)) == list(iter_bits_bytewise(x))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iter_bits_matches_bytewise_scan_on_wide_masks(seed):
    rng = random.Random(seed)
    dense = rng.getrandbits(10**6)
    sparse = sum(1 << rng.randrange(10**6) for _ in range(50)) | 1 << (10**6 - 1)
    for x in (dense, sparse):
        assert list(bitops.iter_bits(x)) == list(iter_bits_bytewise(x))


@given(st.integers(0, (1 << 300) - 1), st.integers(-(10**6), 10**6))
@settings(max_examples=300, deadline=None)
def test_iter_bits_counts_from_start(x, start):
    assert list(bitops.iter_bits(x, start)) == [start + i for i in iter_bits_bytewise(x)]


# -- set text ----------------------------------------------------------


@st.composite
def row_masks(draw, width: int) -> int:
    full = (1 << width) - 1
    kind = draw(st.sampled_from(["empty", "full", "top", "sparse", "dense", "random"]))
    if kind == "empty":
        return 0
    if kind == "full":
        return full
    if kind == "top":
        return 1 << (width - 1)
    bits = sum(1 << i for i in draw(st.sets(st.integers(0, width - 1), max_size=3)))
    if kind == "sparse":
        return bits
    if kind == "dense":
        return full ^ bits
    return draw(st.integers(0, full))


@st.composite
def window_sets(draw) -> WindowSet:
    # windows fully negative, across 0 and positive, short or up to 3000 wide,
    # starting or ending near the text blocks' edges at +-999, +-1000, +-1001, +-2000
    width = draw(st.integers(1, 260) | st.integers(1, 3000))
    edge = draw(st.sampled_from([-2000, -1001, -1000, -999, 0, 999, 1000, 1001, 2000]))
    lo = draw(st.integers(-400, 200) | st.integers(edge - 3, edge + 3)
              | st.integers(edge - width - 2, edge - width + 4))
    return WindowSet(lo, lo + width - 1, draw(row_masks(width)))


@st.composite
def grid_sets(draw) -> GridSet:
    # n-ranges up to 25 chunks of 8 columns, starting anywhere, so that chunk
    # edges fall on any digit count and sign; rows drawn one by one, or all
    # ones, or all empty
    mlo = draw(st.integers(-30, 10))
    nlo = draw(st.integers(-250, 60) | st.integers(-(10**7), 10**7))
    m_width, n_width = draw(st.integers(1, 10)), draw(st.integers(1, 200))
    box = (mlo, mlo + m_width - 1, nlo, nlo + n_width - 1)
    kind = draw(st.sampled_from(["rows", "rows", "full", "empty"]))
    if kind != "rows":
        return GridSet.full(box) if kind == "full" else GridSet.empty(box)
    return GridSet(box, [draw(row_masks(n_width)) for _ in range(m_width)])


def csv_per_member(the_set) -> str:
    """The former CSV writer, one formatted line per member, kept as the oracle."""
    if isinstance(the_set, GridSet):
        rows = [f"{m},{n}" for m, n in the_set.members()]
    else:
        rows = list(map(str, the_set.members()))
    return "\n".join(rows) + ("\n" if rows else "")


def check_window(s: WindowSet) -> None:
    text = s.to_json()
    assert text == dumps(s.to_json_obj())
    assert WindowSet.from_json_obj(json.loads(text)) == s
    assert s.to_csv() == csv_per_member(s)


def check_grid(e: GridSet, table_rows=(0, 10**9)) -> None:
    """The texts of ``e`` under each TABLE_ROWS given; by default 0, which
    reads every row from string tables, and 10**9, which reads none."""
    text, csv = dumps(e.to_json_obj()), csv_per_member(e)
    for rows in table_rows:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(windows, "TABLE_ROWS", rows)
            assert e.to_json() == text
            assert e.to_csv() == csv
    assert GridSet.from_json_obj(json.loads(text)) == e


@given(window_sets())
@settings(max_examples=400, deadline=None)
def test_window_text_matches_json_dumps(s):
    check_window(s)


@given(grid_sets())
@settings(max_examples=400, deadline=None)
def test_grid_text_matches_json_dumps(e):
    check_grid(e)


@pytest.mark.parametrize("lo, hi", [(0, 0), (-1, -1), (-9, -2), (-3, 5), (7, 80), (-200, -137)])
def test_window_text_edge_cases(lo, hi):
    width = hi - lo + 1
    for mask in (0, (1 << width) - 1, 1 << (width - 1), 1, 0b101 & ((1 << width) - 1)):
        check_window(WindowSet(lo, hi, mask))


@pytest.mark.parametrize("box", [
    (0, 0, 0, 0),          # one cell
    (-4, -4, -70, 9),      # single row across 0
    (-5, 6, 3, 3),         # single column
    (-9, -2, -80, -1),     # fully negative
    (-3, 3, -64, 64),      # rows across a 64-bit word
    (0, 2, -8, 7),         # two whole chunks of 8 columns
    (0, 2, -9, 7),         # one column past them
])
def test_grid_text_edge_cases(box):
    width = box[3] - box[2] + 1
    rows = box[1] - box[0] + 1
    full, top = (1 << width) - 1, 1 << (width - 1)
    check_grid(GridSet.empty(box))
    check_grid(GridSet.full(box))
    check_grid(GridSet(box, [top] * rows))
    check_grid(GridSet(box, [(full, 0, top, 1)[i % 4] for i in range(rows)]))


def thma_golden() -> GridSet:
    """The benchmark's thma-golden set: golden Sturmian S on +-63000, family
    [n, n^2], box 3001 x 501 (the rule's tables)."""
    s = sturmian_window("golden", -63000, 63000)
    return combinatorial_set_2d(s, PolyFamily.parse(["n", "n^2"]), (-1500, 1500, -250, 250))[0]


def random_box(m_width: int, n_width: int) -> GridSet:
    """A random set on an m_width x n_width box."""
    rng = random.Random(m_width)
    box = (-3, m_width - 4, -(n_width // 2), n_width - 1 - n_width // 2)
    return GridSet(box, [rng.getrandbits(n_width) for _ in range(m_width)])


@pytest.mark.parametrize("make, tables", [
    (thma_golden, True),
    (lambda: random_box(1, 10**5), False),
    (lambda: random_box(8, 2 * 10**4), False),
    (lambda: random_box(512, 2001), False),  # 251 tables a row: the rule asks 1137 rows
], ids=["thma-golden 3001x501", "random 1x1e5", "random 8x2e4", "random 512x2001"])
def test_grid_text_on_pinned_shapes(monkeypatch, make, tables):
    """Pinned sets give the plain texts, and only the 3001-row box reads its
    rows from string tables: the others never hold 32 strings per column."""
    e, sizes, real = make(), set(), windows.getitem
    monkeypatch.setattr(windows, "getitem",
                        lambda table, byte: sizes.add(len(table)) or real(table, byte))
    check_grid(e, [windows.TABLE_ROWS])
    assert sizes == ({256, 1 << (e.n_width % 8 or 8)} if tables else set())


# -- whole reports -----------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def as_objects(report: dict) -> dict:
    return {k: v.to_json_obj() if isinstance(v, (WindowSet, GridSet)) else v
            for k, v in report.items()}


@given(
    st.dictionaries(st.text(max_size=6), json_values, max_size=6),
    window_sets() | grid_sets(),
)
@settings(max_examples=200, deadline=None)
def test_dump_json_writes_set_objects_as_their_json(extra, the_set):
    report = {**extra, "set": the_set}
    assert _dump_json(report) == dumps(as_objects(report)) + "\n"


def test_dump_json_report_shape():
    e = GridSet.from_members((-2, 1, -3, 4), [(-2, -3), (0, 4), (1, 0), (1, 1)])
    report = {
        "experiment": "thma",
        "seed": 0,
        "query": {"set_source": {"kind": "full", "window": [-9, 9]}, "box": [-2, 1, -3, 4]},
        "set": e,
        "results": {"member_count": e.count(), "pws2d": None, "note": "é\n"},
        "certificates": [{"type": "pws2d", "rect": [-2, -3, 1, 1]}],
    }
    assert _dump_json(report) == dumps(as_objects(report)) + "\n"
    assert json.loads(_dump_json(report))["set"]["members"] == [[-2, -3], [0, 4], [1, 0], [1, 1]]
