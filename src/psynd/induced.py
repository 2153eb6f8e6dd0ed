"""Finite truncations of the sequence systems induced by a polynomial family.

An :class:`OrbitBlock` is the window ``n in [-K, K]`` of the doubly
infinite sequence of orbit tuples ``(T^{p_1(n)} x, ..., T^{p_d(n)} x)``.
A :class:`SplitBlock` splits a normal-form family into a head carrying one
point per linear member and a tail over the degree->=2 members only;
the index shift then acts on the head through the product map
``T^{a_1} x ... x T^{a_s}`` and on the tail by recentering.

Two action modes exist deliberately:

* ``shift_block`` / ``apply_map`` trim -- they transform only the data the
  truncation honestly holds, so the radius shrinks under index shifts;
* ``recurrence_times`` recomputes -- the base point and family are
  known, so shifted blocks are rebuilt at full radius from provenance;
  each higher member is tabulated once per chunk by exact forward
  differences, and every row of the block reads that one table.

Every block records its accumulated offsets and can be recomputed from
them (``recomputed``), which is the test hook for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import NotNormalFormError, RadiusExhaustedError
from .polynomials import PolyFamily, check_normal_form
from .systems import PointLike, SystemSpec, fold_period, scan
from .windows import WindowSet


@dataclass(frozen=True)
class OrbitBlock:
    """Truncated orbit-tuple sequence with provenance bookkeeping.

    entries[K + n] = tuple of T^{p_i(n + applied_shift) + applied_T} x.
    """

    sys: SystemSpec
    x: PointLike
    family: PolyFamily
    radius: int
    entries: Tuple[Tuple[PointLike, ...], ...]
    applied_shift: int = 0
    applied_T: int = 0

    def entry(self, n: int) -> Tuple[PointLike, ...]:
        if abs(n) > self.radius:
            raise RadiusExhaustedError(f"|{n}| > radius {self.radius}")
        return self.entries[self.radius + n]

    def same_entries(self, other: "OrbitBlock") -> bool:
        return self.radius == other.radius and self.entries == other.entries

    def recomputed(self) -> "OrbitBlock":
        """Fresh evaluation from provenance; equals self when bookkeeping is right."""
        return orbit_block(
            self.sys,
            self.x,
            self.family,
            self.radius,
            shift=self.applied_shift,
            t_power=self.applied_T,
        )

    def to_json_obj(self) -> dict:
        return {
            "kind": "orbit",
            "system": self.sys.to_json_obj(),
            "x": self.sys.point_to_json(self.x),
            "family": self.family.to_strs(),
            "radius": self.radius,
            "applied_shift": self.applied_shift,
            "applied_T": self.applied_T,
            "entries": [
                [self.sys.point_to_json(p) for p in row] for row in self.entries
            ],
        }


@dataclass(frozen=True)
class SplitBlock:
    """Head/tail truncation for a normal-form family.

    head[i]    = T^{a_i * applied_shift + applied_T} x  (linear members),
    tail[K+n]  = tuple of T^{p_i(n + applied_shift) + applied_T} x over
                 the degree->=2 members.
    """

    sys: SystemSpec
    x: PointLike
    family: PolyFamily
    radius: int
    head: Tuple[PointLike, ...]
    tail: Tuple[Tuple[PointLike, ...], ...]
    applied_shift: int = 0
    applied_T: int = 0

    @property
    def slopes(self) -> Tuple[int, ...]:
        return tuple(self.family.linear_slopes())

    def tail_entry(self, n: int) -> Tuple[PointLike, ...]:
        if abs(n) > self.radius:
            raise RadiusExhaustedError(f"|{n}| > radius {self.radius}")
        return self.tail[self.radius + n]

    def same_entries(self, other: "SplitBlock") -> bool:
        return (
            self.radius == other.radius
            and self.head == other.head
            and self.tail == other.tail
        )

    def recomputed(self) -> "SplitBlock":
        return split_block(
            self.sys,
            self.x,
            self.family,
            self.radius,
            shift=self.applied_shift,
            t_power=self.applied_T,
        )

    def to_json_obj(self) -> dict:
        return {
            "kind": "split",
            "system": self.sys.to_json_obj(),
            "x": self.sys.point_to_json(self.x),
            "family": self.family.to_strs(),
            "radius": self.radius,
            "applied_shift": self.applied_shift,
            "applied_T": self.applied_T,
            "head": [self.sys.point_to_json(p) for p in self.head],
            "tail": [
                [self.sys.point_to_json(p) for p in row] for row in self.tail
            ],
        }


def orbit_block(
    sys: SystemSpec,
    x: PointLike,
    family: PolyFamily,
    radius: int,
    shift: int = 0,
    t_power: int = 0,
) -> OrbitBlock:
    """Evaluate the orbit-tuple window at the given accumulated offsets."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    entries = tuple(
        tuple(
            sys.iterate(x, p.eval(n + shift) + t_power) for p in family.polys
        )
        for n in range(-radius, radius + 1)
    )
    return OrbitBlock(sys, x, family, radius, entries, shift, t_power)


def split_block(
    sys: SystemSpec,
    x: PointLike,
    family: PolyFamily,
    radius: int,
    shift: int = 0,
    t_power: int = 0,
) -> SplitBlock:
    """Head/tail window; the family must be in normal form."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    violation = check_normal_form(family)
    if violation is not None:
        raise NotNormalFormError(f"family not in normal form: {violation}")
    slopes = family.linear_slopes()
    higher = [p for p in family.polys if p.degree >= 2]
    head = tuple(sys.iterate(x, a * shift + t_power) for a in slopes)
    tail = tuple(
        tuple(sys.iterate(x, p.eval(n + shift) + t_power) for p in higher)
        for n in range(-radius, radius + 1)
    )
    return SplitBlock(sys, x, family, radius, head, tail, shift, t_power)


def shift_block(block, n: int):
    """Index shift: trims the radius to what the truncation supports."""
    if abs(n) > block.radius:
        raise RadiusExhaustedError(
            f"index shift by {n} exceeds block radius {block.radius}"
        )
    new_radius = block.radius - abs(n)
    if isinstance(block, OrbitBlock):
        entries = tuple(
            block.entry(j + n) for j in range(-new_radius, new_radius + 1)
        )
        return replace(
            block,
            radius=new_radius,
            entries=entries,
            applied_shift=block.applied_shift + n,
        )
    if isinstance(block, SplitBlock):
        head = tuple(
            block.sys.iterate(p, a * n) for p, a in zip(block.head, block.slopes)
        )
        tail = tuple(
            block.tail_entry(j + n) for j in range(-new_radius, new_radius + 1)
        )
        return replace(
            block,
            radius=new_radius,
            head=head,
            tail=tail,
            applied_shift=block.applied_shift + n,
        )
    raise TypeError(f"not a block: {block!r}")


def apply_map(block, m: int):
    """Apply T^m to every coordinate; the radius is preserved."""
    sys = block.sys
    if isinstance(block, OrbitBlock):
        entries = tuple(
            tuple(sys.iterate(p, m) for p in row) for row in block.entries
        )
        return replace(block, entries=entries, applied_T=block.applied_T + m)
    if isinstance(block, SplitBlock):
        head = tuple(sys.iterate(p, m) for p in block.head)
        tail = tuple(
            tuple(sys.iterate(p, m) for p in row) for row in block.tail
        )
        return replace(block, head=head, tail=tail, applied_T=block.applied_T + m)
    raise TypeError(f"not a block: {block!r}")


def block_distance(b1, b2, r: int):
    """Sup metric over head coordinates and tail window |j| <= r."""
    if r > b1.radius or r > b2.radius:
        raise RadiusExhaustedError(f"radius {r} exceeds a block's truncation")
    sys = b1.sys
    dist = Fraction(0)
    if isinstance(b1, SplitBlock):
        for p, q in zip(b1.head, b2.head):
            dist = max(dist, sys.point_distance(p, q))
        rows1 = (b1.tail_entry(j) for j in range(-r, r + 1))
        rows2 = (b2.tail_entry(j) for j in range(-r, r + 1))
    else:
        rows1 = (b1.entry(j) for j in range(-r, r + 1))
        rows2 = (b2.entry(j) for j in range(-r, r + 1))
    for row1, row2 in zip(rows1, rows2):
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
    wider than its ``fold_period`` P tiles the mask of [-N, P - N).
    """
    violation = check_normal_form(family)
    if violation is not None:
        raise NotNormalFormError(f"family not in normal form: {violation}")
    slopes = family.linear_slopes()
    higher = [p for p in family.polys if p.degree >= 2]
    base_tail = [
        [sys.iterate(x, p.eval(j)) for p in higher]
        for j in range(-radius, radius + 1)
    ]

    def conds(start, size):
        # the per-n checks in order; row j reads each table at offset j + radius
        for a in slopes:
            yield x, range(a * start, a * (start + size), a)
        tables = [p.values(start - radius, size + 2 * radius) for p in higher]
        for off, row in enumerate(base_tail):
            for vals, center in zip(tables, row):
                yield center, vals[off : off + size]

    period = fold_period(sys, x, family)
    return WindowSet(-n_bound, n_bound, scan(sys, x, eps, conds, -n_bound, n_bound, period))


@dataclass(frozen=True)
class PeriodicBlock:
    """Two-sided periodic sequence over an arbitrary finite word.

    entry(i) = word[(i + phase) mod len(word)]; shifting by the word
    length fixes the block exactly, whatever the requested radius.
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


def periodic_extension(word: Sequence, center_offset: int = 0) -> PeriodicBlock:
    """Materializable two-sided periodic sequence of the given word.

    ``center_offset`` names the word position sitting at index 0; pass
    k for a word written as (x_{-k}, ..., x_k).
    """
    return PeriodicBlock(tuple(word), center_offset)
