"""Finite truncations of the sequence systems induced by a polynomial family.

A :class:`Block` is the window ``n in [-K, K]`` of the doubly infinite
sequence of orbit tuples ``(T^{p_1(n)} x, ..., T^{p_d(n)} x)``: a head of
one point per linear slope and one row per n.  An ``orbit_block`` has no
head and keeps every member in its rows; a ``split_block`` of a normal-form
family keeps the linear members in the head, on which the index shift acts
through the product map ``T^{a_1} x ... x T^{a_s}``, and only the
degree->=2 members in its rows, on which it acts by recentering.

Two action modes exist deliberately:

* ``shift_block`` / ``apply_map`` trim -- they transform only the data the
  truncation honestly holds, so the radius shrinks under index shifts;
* ``recurrence_times`` recomputes -- the base point and family are
  known, so shifted blocks are rebuilt at full radius from provenance;
  each higher member is tabulated once per chunk by exact forward
  differences, and every row of the split block reads that one table.

Every block records its accumulated offsets and can be recomputed from
them (``recomputed``), which is the test hook for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Tuple

from .errors import NotNormalFormError, RadiusExhaustedError
from .polynomials import PolyFamily, reduce_to_normal_form
from .systems import PointLike, SystemSpec, TorusRotation, fold_period, mirror, scan
from .windows import WindowSet


@dataclass(frozen=True)
class Block:
    """Truncated orbit-tuple sequence with provenance bookkeeping.

    head[i]       = T^{a_i * applied_shift + applied_T} x, a_i the i-th linear
                    slope of a split block (an orbit block has no head);
    entries[K+n]  = tuple of T^{p(n + applied_shift) + applied_T} x over the
                    members p the head does not carry.
    """

    sys: SystemSpec
    x: PointLike
    family: PolyFamily
    radius: int
    split: bool
    head: Tuple[PointLike, ...]
    entries: Tuple[Tuple[PointLike, ...], ...]
    applied_shift: int = 0
    applied_T: int = 0

    @property
    def slopes(self) -> Tuple[int, ...]:
        return tuple(self.family.linear_slopes()) if self.split else ()

    def entry(self, n: int) -> Tuple[PointLike, ...]:
        if abs(n) > self.radius:
            raise RadiusExhaustedError(f"|{n}| > radius {self.radius}")
        return self.entries[self.radius + n]

    def same_entries(self, other: "Block") -> bool:
        return (self.radius, self.head, self.entries) == (other.radius, other.head, other.entries)

    def recomputed(self) -> "Block":
        """Fresh evaluation from provenance; equals self when bookkeeping is right."""
        return _build(self.sys, self.x, self.family, self.radius,
                      self.applied_shift, self.applied_T, self.split)

    def to_json_obj(self) -> dict:
        rows = [[self.sys.point_to_json(p) for p in row] for row in self.entries]
        if self.split:
            data = {"head": [self.sys.point_to_json(p) for p in self.head], "tail": rows}
        else:
            data = {"entries": rows}
        return {
            "kind": "split" if self.split else "orbit",
            "system": self.sys.to_json_obj(),
            "x": self.sys.point_to_json(self.x),
            "family": self.family.to_strs(),
            "radius": self.radius,
            "applied_shift": self.applied_shift,
            "applied_T": self.applied_T,
            **data,
        }


def _build(sys, x, family, radius, shift, t_power, split) -> Block:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    slopes = family.linear_slopes() if split else []
    members = [p for p in family.polys if not split or p.degree >= 2]
    head = tuple(sys.iterate(x, a * shift + t_power) for a in slopes)
    entries = tuple(
        tuple(sys.iterate(x, p.eval(n + shift) + t_power) for p in members)
        for n in range(-radius, radius + 1)
    )
    return Block(sys, x, family, radius, split, head, entries, shift, t_power)


def orbit_block(sys: SystemSpec, x: PointLike, family: PolyFamily, radius: int) -> Block:
    """Evaluate the orbit-tuple window around x."""
    return _build(sys, x, family, radius, 0, 0, split=False)


def split_block(sys: SystemSpec, x: PointLike, family: PolyFamily, radius: int) -> Block:
    """Head/tail window; the family must be in normal form."""
    covering = reduce_to_normal_form(family).covering
    if covering:
        raise NotNormalFormError(f"{family!r} not in normal form: (removed, kept, j) {covering}")
    return _build(sys, x, family, radius, 0, 0, split=True)


def shift_block(block: Block, n: int) -> Block:
    """Index shift: trims the radius to what the truncation supports."""
    if abs(n) > block.radius:
        raise RadiusExhaustedError(
            f"index shift by {n} exceeds block radius {block.radius}"
        )
    new_radius = block.radius - abs(n)
    return replace(
        block,
        radius=new_radius,
        head=tuple(block.sys.iterate(p, a * n) for p, a in zip(block.head, block.slopes)),
        entries=tuple(block.entry(j + n) for j in range(-new_radius, new_radius + 1)),
        applied_shift=block.applied_shift + n,
    )


def apply_map(block: Block, m: int) -> Block:
    """Apply T^m to every coordinate; the radius is preserved."""
    sys = block.sys
    return replace(
        block,
        head=tuple(sys.iterate(p, m) for p in block.head),
        entries=tuple(tuple(sys.iterate(p, m) for p in row) for row in block.entries),
        applied_T=block.applied_T + m,
    )


def block_distance(b1: Block, b2: Block, r: int):
    """Sup metric over the head coordinates and the rows |j| <= r."""
    if r > b1.radius or r > b2.radius:
        raise RadiusExhaustedError(f"radius {r} exceeds a block's truncation")
    sys = b1.sys
    dist = Fraction(0)
    window = range(-r, r + 1)
    for row1, row2 in zip((b1.head, *map(b1.entry, window)), (b2.head, *map(b2.entry, window))):
        for p, q in zip(row1, row2):
            dist = max(dist, sys.point_distance(p, q))
    return dist


def recurrence_times(
    sys: SystemSpec,
    x: PointLike,
    family: PolyFamily,
    radius: int,
    eps,
    n_bound: int,
) -> WindowSet:
    """{ n in [-N, N] : the block shifted by n, recomputed at full radius, lies
    within eps of the base block in the sup metric }.

    Recomputation (not trimming) keeps the comparison radius constant,
    which is what the infinite-sequence statement truncates to.  A window
    wider than its ``fold_period`` P tiles the mask of [-N, P - N).  Row j at -n
    is row -j at n (``systems.mirror``), for any point x: with every p even its center
    T^{p(j)} x and time p(j - n) = p(n - j) are row -j's; with every p even or odd,
    a rotation sees only the offsets p(j - n) - p(j) = -(p(n - j) - p(-j)) and -a n.
    """
    base = split_block(sys, x, family, radius)
    higher = [p for p in family.polys if p.degree >= 2]

    def conds(start, size):
        # the per-n checks in order; row j reads each table at offset j + radius
        for center, a in zip(base.head, base.slopes):
            yield center, range(a * start, a * (start + size), a)
        tables = [p.values(start - radius, size + 2 * radius) for p in higher]
        for off, row in enumerate(base.entries):
            for vals, center in zip(tables, row):
                yield center, vals[off : off + size]

    period = fold_period(sys, x, family)
    odd = isinstance(sys, TorusRotation)
    exact = not isinstance(x, WindowSet) and all(  # a coordinate point, not a subshift's word
        p.is_even() or odd and p.is_odd() for p in family.polys)
    return WindowSet(-n_bound, n_bound, mirror(
        lambda lo, hi: scan(sys, x, eps, conds, lo, hi, period), -n_bound, n_bound, period, exact))

@dataclass(frozen=True)
class PeriodicBlock:
    """Two-sided periodic sequence over an arbitrary finite word.

    entry(i) = word[(i + phase) mod len(word)], so phase k centers a word
    written as (x_{-k}, ..., x_k); shifting by the word length fixes the
    block exactly, whatever the requested radius.
    """

    word: Tuple
    phase: int = 0

    def __post_init__(self):
        if not self.word:
            raise ValueError("word must be nonempty")
        object.__setattr__(self, "phase", self.phase % len(self.word))

    @property
    def period(self) -> int:
        return len(self.word)

    def entry(self, i: int):
        return self.word[(i + self.phase) % len(self.word)]

    def shifted(self, n: int) -> "PeriodicBlock":
        return PeriodicBlock(self.word, self.phase + n)

    def materialize(self, radius: int) -> Tuple:
        return tuple(self.entry(i) for i in range(-radius, radius + 1))

