"""Explicit dynamical systems with exact integer orbit arithmetic.

Four concrete system families, each with a closed-form n-th iterate:

* ``TorusRotation`` -- x -> x + alpha on the d-torus;
* ``SkewProduct``   -- (x, y) -> (x + alpha, x + y) on the 2-torus;
* ``HeisenbergNil`` -- left translation by tau = (alpha, beta, 0) on the
  Heisenberg nilmanifold, points reduced to the fundamental cube;
* ``IndicatorSubshift`` -- the left shift acting on windowed 0/1 words,
  each a ``WindowSet`` whose members are the letters 1.

A point of a coordinate system is a tuple of exact ``Fraction``s in
[0, 1).  Systems whose parameters are all rational hold them as they
are.  On a system with a named irrational parameter every value,
parameter and point alike, is the declared approximant
``floor(v * 2^bits) / 2^bits`` (default 256 bits), a multiple of 2^-bits.
``_value`` is the one place where a real becomes a value, and
``_modulus`` the one place where the scale of the arithmetic is chosen.

Both ``iterate`` and the ball predicate ``hit_indices(x, center, eps, times,
near)``, which gives the positions i of ``near`` (every position of ``times``
when None) with ``T^{times[i]} x in B(center, eps)``, scale the values to
integers at one modulus M and apply the same floored-product formulas
there: M is 2^bits on a named-constant system, and on a rational one the lcm
of the denominators of the parameters and of the points (its square for the
Heisenberg group, so that ``(u * v) // M`` is exact).  Every result is
therefore exact, and the same on every machine.  eps becomes one integer
half-width L, the largest integer below eps * M, so a circle test is
``((x - c + L) + t * s) % M <= 2 * L`` (``& (M - 1)`` when M = 2^bits), and
on a ``range`` of times the first one is walked hit by hit (``_walk``).
``arc_mask`` decides one arc over a whole window instead, as one mask tiled in
blocks of the rotation (the Sturmian sets of ``generators``).  Both stay, each
on the work where it wins: the walk costs one step per hit, the tiling about
sqrt(count) steps whatever the arc.  Measured in-process on a 2-vCPU VM, the
golden Sturmian half-circle on [0, 199999] takes 16 ms walked and 3 ms tiled,
while ``scan``'s 4096-time chunks of the sqrt2 rotation at eps 1/10 on
[-1e5, 1e5] take 6 ms walked and 23 ms tiled.  The
subshift builds, over the letters of x near the requested times, the mask of
the times whose letters agree with the center's out to the radius eps asks
for, and reads each time off it as one bit.  ``hit_indices`` is the one ball
predicate: positions in, the positions that hit out, down to ``_on_arc``.

``scan``, the one loop over return times, hands each (center, times) pair the
positions the pairs before it kept, and tiles one ``fold_period``; the 1D and
recurrence sets name the pairs, and the planar set the times its cells reach.
Its chunks are exact decisions, which ``_split`` shares with ``os.fork`` children,
one per CPU of ``os.sched_getaffinity`` (FORK_CHUNKS chunks each at least): the same
bits, and the first failing chunk's error, on any number of CPUs.  Serial on one
CPU (``taskset -c 0``), without ``os.fork``, beside a thread, or if a fork fails.

All system and point values are immutable; methods are pure functions.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain
from math import factorial, isqrt, lcm
from operator import xor
from typing import Callable, List, Optional, Sequence, Tuple, Union

from . import bitops
from .constants import DEFAULT_BITS, MIN_BITS, RealSpec, parse_real
from .errors import BadEpsilonError, ConfigError, EmptySetError, WindowExhaustedError, take
from .polynomials import PolyFamily
from .windows import WindowSet


@dataclass(frozen=True)
class Point:
    """Coordinate point: exact Fractions in [0, 1), one per axis."""

    coords: Tuple[Fraction, ...]

    def __repr__(self) -> str:
        return f"Point{self.coords}"


PointLike = Union[Point, WindowSet]


def _epsilon(eps) -> Fraction:
    e = Fraction(eps)
    if e <= 0:
        raise BadEpsilonError(f"epsilon must be > 0, got {eps}")
    return e


def _below(eps, scale: int) -> int:
    """Largest integer k with k < eps * scale, for eps > 0.

    A distance d counted at ``scale`` is below eps exactly when d <= k.
    """
    e = _epsilon(eps)
    return (e.numerator * scale - 1) // e.denominator


def _circle(d: int, m: int) -> int:
    """Distance from d to the nearest multiple of m."""
    d %= m
    return min(d, m - d)


def _unscaled(values, m: int) -> Point:
    """The point whose coordinates are the integers ``values`` at modulus m, mod 1."""
    return Point(tuple(Fraction(v % m, m) for v in values))


@lru_cache(maxsize=256)
def _gaps(step: int, width: int, m: int) -> Optional[Tuple[int, int, int, int]]:
    """(a, ua, b, ub): the least j >= 1 with j step mod m in [0, width], and that
    residue; the least with it in [m - width, m), and that residue minus m.
    None when either is not found by j = CHUNK."""
    a = b = v = 0
    for j in range(1, CHUNK + 1):
        v = (v + step) % m
        if not a and v <= width:
            a, ua = j, v
        elif not b and v >= m - width:
            b, ub = j, v - m
        if a and b:
            return a, ua, b, ub
    return None


def _walk(v0: int, step: int, width: int, m: int, count: int) -> Optional[List[int]]:
    """The j < count, in order, with (v0 + j step) mod m <= width, or None.

    The three-gap theorem (Slater, "Gaps and steps for the sequence n theta
    mod 1", 1967): for 2 width < m, a point v of the arc [0, width] next
    returns after a steps if v + ua <= width, else after b if v + ub >= 0,
    else after a + b (``_gaps``).  So the first hit, if any, is among the
    first a + b times.  None when 2 width >= m or ``_gaps`` is None.
    """
    step %= m
    gaps = _gaps(step, width, m) if 2 * width < m else None
    if gaps is None:
        return None
    a, ua, b, ub = gaps
    j = next((j for j in range(min(count, a + b)) if (v0 + j * step) % m <= width), count)
    v, out, top = (v0 + j * step) % m, [], width - ua
    while j < count:
        out.append(j)
        if v <= top:
            j, v = j + a, v + ua
        elif v + ub >= 0:
            j, v = j + b, v + ub
        else:
            j, v = j + a + b, v + ua + ub
    return out


def arc_mask(v0: int, step: int, width: int, m: int, count: int) -> int:
    """Mask of the j < count with (v0 + j step) mod m <= width, for 0 <= width < m.

    Block tiling of the rotation.  A block of q times drifts by
    d = q step mod m, taken in (-m/2, m/2]; q is the j <= 2 sqrt(count) + 1
    that minimises j + ceil(count / j) + count |d_j| / m, the residues, rows
    and turns walked below.  A convergent j of step / m has
    |d_j| < m / j' for the next convergent j' (Dirichlet), so the sum is
    about sqrt(count) unless a convergent below 2 sqrt(count) is followed by
    one just above it, and at most about count^(3/4) then.  Reflected by
    x -> width - x, which keeps the arc, the drift is d >= 0.  The times
    r + k q of residue r < q are then at v_r + k d, so their hits are one run
    of rows k per turn t, the k with v_r + k d in [t m, t m + width], found by
    division.  Each run toggles bit r at its first row and at the row after
    its last; the xor prefix of the toggles is the rows, q bits each, and the
    rows laid end to end are the mask.
    """
    step %= m

    def drift(j: int) -> int:
        dj = j * step % m
        return dj - m if 2 * dj > m else dj

    q = min(range(1, min(count, 2 * isqrt(count) + 1) + 1), default=1,
            key=lambda j: j + -(-count // j) + count * abs(drift(j)) // m)
    d = drift(q)
    if d < 0:
        v0, step, d = width - v0, -step, -d
    nrows = -(-count // q)
    toggles = [0] * (nrows + 1)
    v = v0 % m
    for r in range(q):
        last = (count - 1 - r) // q
        if not d:  # the residue stands still
            spans = ((0, last),) if v <= width else ()
        else:
            spans = ((max(0, -((v - t * m) // d)), min(last, (t * m + width - v) // d))
                     for t in range((v + last * d) // m + 1))
        for a, b in spans:
            if a <= b:
                toggles[a] ^= 1 << r
                toggles[b + 1] ^= 1 << r
        v = (v + step) % m
    rows = reversed(list(accumulate(toggles[:nrows], xor)))
    return int("".join(map(f"{{:0{q}b}}".format, rows)) or "0", 2)


def _on_arc(b: int, s: int, width: int, m: int, times: Sequence[int], near=None) -> List[int]:
    """The i of ``near``, or of all times, with (b + times[i] s) mod m <= width:
    walked on a whole range, else tested time by time, by & (m - 1) when m is
    a power of 2 (every named constant), which equals % m on every int."""
    if near is None:
        if isinstance(times, range):
            walked = _walk(b + times.start * s, times.step * s, width, m, len(times))
            if walked is not None:
                return walked
        near = range(len(times))
    if m & (m - 1):
        return [i for i in near if (b + times[i] * s) % m <= width]
    mask = m - 1
    return [i for i in near if (b + times[i] * s) & mask <= width]


class _System:
    """Shared plumbing for the coordinate systems, each declaring its reals as ``specs``."""

    bits: int
    dim: int
    specs: Tuple[RealSpec, ...]

    @cached_property
    def exact(self) -> bool:
        return all(a.is_rational for a in self.specs)

    @cached_property
    def _params(self) -> Tuple[Fraction, ...]:
        return tuple(self._value(a) for a in self.specs)

    def _value(self, spec: RealSpec) -> Fraction:
        """The value of ``spec`` mod 1: exact, or the 2^-bits approximant."""
        if self.exact:
            return spec.as_fraction() % 1
        return Fraction(spec.fixed(self.bits) % (1 << self.bits), 1 << self.bits)

    def _modulus(self, *points: Point) -> int:
        """The modulus M of the integer arithmetic (see the module docstring)."""
        if not self.exact:
            return 1 << self.bits
        return lcm(*(v.denominator for v in chain(self._params, *(p.coords for p in points))))

    @staticmethod
    def _scaled(values, m: int) -> list:
        """Values in [0, 1) as integers at the modulus m."""
        return [v.numerator * (m // v.denominator) for v in values]

    def base_point(self) -> Point:
        return Point((Fraction(0),) * self.dim)

    def make_point(self, values: Sequence) -> Point:
        """The point with one real per axis, each read mod 1 by ``_value``."""
        if not isinstance(values, (list, tuple)) or len(values) != self.dim:
            raise ValueError(f"a point of this system has {self.dim} coordinates, got {values!r}")
        return Point(tuple(self._value(parse_real(v)) for v in values))

    def point_to_json(self, x: Point) -> dict:
        if self.exact:
            return {"coords": [str(c) for c in x.coords]}
        fixed = self._scaled(x.coords, 1 << self.bits)
        return {"coords_fixed": [hex(c) for c in fixed], "bits": self.bits}

    def point_from_json(self, obj: dict, key: str = "point") -> Point:
        """``coords_fixed`` read mod 2^bits at the system's precision, or ``coords`` read mod 1;
        a point of the wrong length is refused by the config ``key`` and its strings."""
        fixed = "coords_fixed" in obj
        if fixed and (self.exact or obj.get("bits") != self.bits):
            raise ConfigError("fixed-point coordinates do not match system precision")
        got = take(obj, "coords_fixed" if fixed else "coords", [str])
        if len(got) != self.dim:
            raise ConfigError(f"bad {key} {got!r}: each point has {self.dim} coordinates")
        if fixed:
            return self.make_point([Fraction(int(c, 16), 1 << self.bits) for c in got])
        return self.make_point(take(obj, "coords", [str], parse=parse_real))

    def point_distance(self, a: Point, c: Point) -> Fraction:
        """Sup over the coordinates of the circle distance."""
        m = self._modulus(a, c)
        pairs = zip(self._scaled(a.coords, m), self._scaled(c.coords, m))
        return Fraction(max(_circle(u - v, m) for u, v in pairs), m)


@dataclass(frozen=True)
class TorusRotation(_System):
    """Rotation x -> x + alpha on the dim-torus; T^n x = x + n*alpha."""

    alphas: Tuple[RealSpec, ...]
    bits: int = DEFAULT_BITS

    specs = property(lambda self: self.alphas)

    @property
    def dim(self) -> int:
        return len(self.alphas)

    def iterate(self, x: Point, n: int) -> Point:
        m = self._modulus(x)
        scaled = zip(self._scaled(x.coords, m), self._scaled(self._params, m))
        return _unscaled([u + n * s for u, s in scaled], m)

    def hit_indices(self, x: Point, center: Point, eps, times: Sequence[int],
                    near=None) -> List[int]:
        """The i of ``near`` with T^{times[i]} x in B(center, eps), coordinate by coordinate."""
        m = self._modulus(x, center)
        half = _below(eps, m)
        for u, c, s in zip(
            self._scaled(x.coords, m), self._scaled(center.coords, m), self._scaled(self._params, m)
        ):
            near = _on_arc(u - c + half, s, 2 * half, m, times, near)
        return list(range(len(times))) if near is None else near

    def to_json_obj(self) -> dict:
        return {
            "type": "rotation",
            "alpha": [str(a) for a in self.alphas],
            "bits": self.bits,
        }


@dataclass(frozen=True)
class SkewProduct(_System):
    """Skew shift (x, y) -> (x + alpha, x + y) on the 2-torus.

    T^n (x, y) = (x + n alpha, y + n x + C(n,2) alpha).
    """

    alpha: RealSpec
    bits: int = DEFAULT_BITS

    dim = 2
    specs = property(lambda self: (self.alpha,))

    def iterate(self, p: Point, n: int) -> Point:
        m = self._modulus(p)
        x, y = self._scaled(p.coords, m)
        (a,) = self._scaled(self._params, m)
        return _unscaled([x + n * a, y + n * x + n * (n - 1) // 2 * a], m)

    def hit_indices(self, p: Point, center: Point, eps, times: Sequence[int],
                    near=None) -> List[int]:
        """The i of ``near`` with T^{times[i]} p in B(center, eps): x by ``_on_arc``, then y."""
        m = self._modulus(p, center)
        half = _below(eps, m)
        width = 2 * half
        x, y = self._scaled(p.coords, m)
        c1, c2 = self._scaled(center.coords, m)
        (a,) = self._scaled(self._params, m)
        b2, mask = y - c2 + half, m - 1
        ys = ((i, b2 + (t := times[i]) * x + t * (t - 1) // 2 * a)
              for i in _on_arc(x - c1 + half, a, width, m, times, near))
        if m & mask:
            return [i for i, v in ys if v % m <= width]
        return [i for i, v in ys if v & mask <= width]

    def to_json_obj(self) -> dict:
        return {"type": "skew", "alpha": str(self.alpha), "bits": self.bits}


@dataclass(frozen=True)
class HeisenbergNil(_System):
    """Left translation by tau = (alpha, beta, 0) on the Heisenberg nilmanifold.

    Group law (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'); the lattice
    is the integer triples.  tau^n = (n a, n b, C(n,2) a b), so
    tau^n (x,y,z) = (x + n a, y + n b, z + C(n,2) a b + n a y), reduced.

    Fundamental-domain convention: right-multiply by (-floor(x),
    -floor(y), *) and normalize z into [0,1); this canonical form is
    invariant under the lattice, so iteration commutes with reduction.
    """

    alpha: RealSpec
    beta: RealSpec
    bits: int = DEFAULT_BITS

    dim = 3
    specs = property(lambda self: (self.alpha, self.beta))

    def _modulus(self, *points: Point) -> int:
        m = super()._modulus(*points)
        return m * m if self.exact else m

    @staticmethod
    def _height(y: int, z: int, a: int, b: int, m: int) -> Callable[[int, int, int], int]:
        """(t, u, fl) -> the z of T^t (x, y, z) at the modulus m, not yet reduced
        mod m, given u = x + t a and fl = floor((y + t b) / m).

        The point and tau = (a, b, 0) come scaled to m.  The z of
        tau^t (x, y, z) is z + C(t,2) ab + t a y; the reduction to the
        fundamental cube subtracts (x + t a) floor(y + t b).  With
        a y = hi m + lo, floor(t a y / m) = t hi + floor(t lo / m) for
        either sign of t, so no product with y is taken per time.
        """
        ab = a * b // m
        ay_hi, ay_lo = divmod(a * y, m)
        return lambda t, u, fl: z + t * (t - 1) // 2 * ab + t * ay_hi + t * ay_lo // m - u * fl

    def iterate(self, p: Point, n: int) -> Point:
        m = self._modulus(p)
        (x, y, z), (a, b) = self._scaled(p.coords, m), self._scaled(self._params, m)
        u = x + n * a
        fl, v = divmod(y + n * b, m)
        return _unscaled([u, v, self._height(y, z, a, b, m)(n, u, fl)], m)

    @staticmethod
    def _fiber(y: int, z: int, c1: int, c2: int, c3: int, m: int) -> int:
        """min over q in {-1, 0, 1} and integers r of (y - c2 - q m)^2 + (z - c3 - q c1 - r m)^2.

        Plus the squared circle distance in x, this is the squared distance d^2
        to the nearest lattice translate (c1 + p, c2 + q, c3 + q c1 + r) of the
        center c, and B(c, eps) is the open neighbourhood d < eps of c (the
        lattice acts by a shear, so d is not claimed to be a metric).  r is the
        nearest integer; the best q has |dy|, |dz| <= m/2, so d^2 <= m^2/2,
        and |q| >= 2 gives dy^2 > m^2.  Every q but the one nearest in y has
        |dy| >= m/2, so for eps <= 1/2 ``hit_indices`` takes that q alone at
        m = 2^bits; this minimum serves larger eps, rational m and
        ``point_distance``.
        """
        h = m // 2
        dy, dz = y - c2, z - c3 + h  # q = -1 and q = 1 add m and c1, or subtract them
        return min((dy + m) ** 2 + ((dz + c1) % m - h) ** 2, dy * dy + (dz % m - h) ** 2,
                   (dy - m) ** 2 + ((dz - c1) % m - h) ** 2)

    def hit_indices(self, p: Point, center: Point, eps, times: Sequence[int],
                    near=None) -> List[int]:
        """The i of ``near`` with T^{times[i]} p in B(center, eps), ``_fiber``'s neighbourhood.

        The circle distances d1 in x and dy in y bound its distance from
        below, so the circle tests in x and then y (``_on_arc``) reject over
        the positions first.  For eps <= 1/2 (limit < (m/2)^2) only the
        translate q nearest in y can be in the ball, so at m = 2^bits each time
        left spends the budget limit - d1^2 - dy^2, is rejected when that is
        negative, and only then computes z: it hits when the squared
        nearest-r residual in z of translate q fits in the budget.  Otherwise
        each time left takes ``_fiber``'s minimum over three translates.
        """
        m = self._modulus(p, center)
        half = _below(eps, m)
        limit = _below(Fraction(eps) ** 2, m * m)
        x, y, z = self._scaled(p.coords, m)
        c1, c2, c3 = self._scaled(center.coords, m)
        a, b = self._scaled(self._params, m)
        near = _on_arc(x - c1 + half, a, 2 * half, m, times, near)
        near = _on_arc(y - c2 + half, b, 2 * half, m, times, near)
        height, h, out = self._height(y, z, a, b, m), m // 2, []
        if m & (m - 1) or limit >= h * h:
            for i in near:
                t = times[i]
                u = x + t * a
                fl, v = divmod(y + t * b, m)
                d1 = _circle(u - c1, m)
                if d1 * d1 + self._fiber(v, height(t, u, fl), c1, c2, c3, m) <= limit:
                    out.append(i)
            return out
        bits, mask = m.bit_length() - 1, m - 1
        for i in near:
            t = times[i]
            u, yy = x + t * a, y + t * b
            # past both arcs |d1|, |dy| <= half < m/2: the circle distances
            d1 = ((u - c1 + half) & mask) - half
            dy = ((yy - c2 + half) & mask) - half
            room = limit - d1 * d1 - dy * dy
            if room >= 0:
                q = ((yy & mask) - c2 - dy) >> bits  # the translate nearest in y
                dz = ((height(t, u, yy >> bits) - c3 - q * c1 + h) & mask) - h
                if dz * dz <= room:
                    out.append(i)
        return out

    def point_distance(self, a: Point, c: Point) -> float:
        """Distance to the nearest lattice translate of c (``_fiber``)."""
        m = self._modulus(a, c)
        a1, a2, a3 = self._scaled(a.coords, m)
        c1, c2, c3 = self._scaled(c.coords, m)
        d1 = _circle(a1 - c1, m)
        return ((d1 * d1 + self._fiber(a2, a3, c1, c2, c3, m)) / (m * m)) ** 0.5

    def to_json_obj(self) -> dict:
        return {
            "type": "heisenberg",
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "bits": self.bits,
        }


@dataclass(frozen=True)
class IndicatorSubshift:
    """Left shift on windowed 0/1 words, seeded by an indicator word.

    A point is a ``WindowSet``: the word whose letter i is 1 exactly at
    the members, known on the window only.  The metric is 1/(k+1) where
    k is the smallest |i| with a letter disagreement; windowed words only
    support decisions their letters can justify, otherwise
    WindowExhaustedError is raised.
    """

    base: WindowSet

    def base_point(self) -> WindowSet:
        """The indicator word of the base set on its own window, centered at 0."""
        if self.base.is_empty():
            raise EmptySetError("indicator point of an empty set")
        return self.base

    def point_to_json(self, w: WindowSet) -> dict:
        return {"word": format(w.mask, f"0{w.width}b")[::-1], "lo": w.lo, "hi": w.hi}

    def point_from_json(self, obj: dict, key: str = "point") -> WindowSet:
        """A word of 0/1 letters on [lo, hi] (``key`` names the point in a config)."""
        word, lo, hi = take(obj, "word", str), take(obj, "lo", int), take(obj, "hi", int)
        if set(word) - {"0", "1"} or len(word) != hi - lo + 1:
            raise ConfigError(f"bad word {word!r}: {hi - lo + 1} letters 0/1")
        return WindowSet(lo, hi, int("0" + word[::-1], 2))

    def iterate(self, w: WindowSet, n: int) -> WindowSet:
        if not w.lo <= n <= w.hi:
            raise WindowExhaustedError(
                f"shift by {n} loses the center letter (window [{w.lo},{w.hi}])"
            )
        return w.shift(-n)

    def hit_indices(self, x: WindowSet, center: WindowSet, eps, times: Sequence[int],
                    near=None) -> List[int]:
        """The i of ``near`` with T^{times[i]} x in B(center, eps), read off two masks
        over w, the letters of x within the radius R of all the times (those
        outside ``near`` widen w, but change no decision); letter i of T^t x is
        letter t + i of x.  Rank by rank, in the order 0, 1, -1, ..., R, -R,
        a time leaves ``agree`` where its letters at the rank differ, and moves
        to ``stuck`` where x or the center has no letter there before any
        disagreement.  ``agree`` after rank R is the ball.  The first time in
        ``near`` that lies outside x's window, or is stuck, raises.
        """
        e = _epsilon(eps)
        # largest R with 1/(R+1) >= eps, -1 when no disagreement refutes the ball
        radius = e.denominator // e.numerator - 1
        reach = max(radius, 0)
        first = min(max(min(times, default=x.lo) - reach, x.lo), x.hi)
        w = x.restrict(first, max(min(max(times, default=x.lo) + reach, x.hi), first))
        width, full = w.width, bitops.mask_of(w.width)
        agree, stuck = full, 0
        for k in range(radius + 1):
            for i in (k, -k) if k else (0,):
                covered = 0
                if center.lo <= i <= center.hi:  # the times t with t + i in w
                    covered = bitops.mask_of(max(0, width - abs(i))) << max(0, -i)
                differ = (w.mask >> i if i >= 0 else w.mask << -i) ^ (full if i in center else 0)
                stuck |= agree & ~covered
                agree &= covered & ~differ
            if not agree:
                break
        # one byte per time of w; the bit above it fixes the length
        top = 1 << width
        yes, short = bitops.bit_selectors(agree | top), bitops.bit_selectors(stuck | top)
        out = []
        for i in range(len(times)) if near is None else near:
            t = times[i]
            if not x.lo <= t <= x.hi:
                self.iterate(x, t)  # raises: T^t x has no letter at 0
            if short[t - w.lo]:
                raise WindowExhaustedError(
                    f"ball decision at eps={eps} needs letters to radius {radius}"
                )
            if yes[t - w.lo]:
                out.append(i)
        return out

    def point_distance(self, a: WindowSet, c: WindowSet) -> Fraction:
        """Exact metric value; requires agreement to be decidable over the
        full common coverage when no disagreement is found."""
        radius = 0
        while True:
            for i in (radius, -radius) if radius else (0,):
                if not (a.lo <= i <= a.hi and c.lo <= i <= c.hi):
                    if a == c:
                        return Fraction(0)
                    raise WindowExhaustedError(
                        "words agree over the whole common coverage; "
                        "distance is below resolution"
                    )
                if (i in a) != (i in c):
                    return Fraction(1, radius + 1)
            radius += 1

    def to_json_obj(self) -> dict:
        return {"type": "subshift", "base": self.base.to_json_obj()}


SystemSpec = Union[TorusRotation, SkewProduct, HeisenbergNil, IndicatorSubshift]


CHUNK = 4096  # times per chunk, one ``hit_indices`` call per pair; bounds a position list
FORK_CHUNKS = 4  # per forked worker, at least: a fork took 3-4 ms in 25 MiB, a chunk 0.5-1 ms
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _split(decide: Callable[[Sequence[int]], int], starts: Sequence[int]) -> int:
    """``decide`` ORed over k contiguous slices of ``starts`` (the module docstring)."""
    k = min(WORKERS, len(starts) // FORK_CHUNKS)
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return decide(starts)  # a fork beside a thread would copy the locks it holds
    cut = [len(starts) * i // k for i in range(k + 1)]
    parts, children = [starts[a:b] for a, b in zip(cut, cut[1:])], []  # [pid, read end]
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # this slice is decided here
                pid = None
            if pid == 0:  # the child leaves by os._exit only: 0 with its mask sent, else 1
                try:
                    with open(w, "wb") as out:
                        out.write(b"%x" % decide(part))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append([pid, r])
        mask = decide(parts[0])
        for child, part in zip(children, parts[1:]):
            got, (pid, r) = b"", child
            if pid is not None:
                got = b"".join(iter(partial(os.read, r, 1 << 16), b""))  # all, then the wait
                if os.waitpid(pid, 0)[1]:  # the child failed
                    got = b""
                child[0] = None  # reaped
            mask |= int(got, 16) if got else decide(part)  # in order: the serial error
        return mask
    finally:
        for pid, r in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(r)


def scan(sys: SystemSpec, x: PointLike, eps, conds, lo: int, hi: int, period=None,
         want=None) -> int:
    """Mask over [lo, hi]: bit n - lo is set when n is wanted (bit n - lo of
    ``want``, every n if None) and every (center, times) pair of
    ``conds(start, size)`` puts T^{times[n - start]} x in B(center, eps).

    Chunk by chunk ([start, start + size), at most CHUNK integers) each pair's
    ``hit_indices`` is handed the offsets still alive, and gives back those of
    them that hit: a pair is decided at n only when n is wanted and every
    earlier pair kept n.  None stands for every offset, so a pair asked about a
    whole chunk walks its ``range``.  With a period P <= hi - lo, only the
    residues wanted of [lo, lo + P) are decided, over the CPUs, and tiled.
    """
    tiled = period is not None and period <= hi - lo
    top = lo + period - 1 if tiled else hi
    while tiled and want is not None and want >> period:  # fold onto one period, halving
        half = (-(-want.bit_length() // period) + 1) // 2 * period
        want = (want & bitops.mask_of(half)) | (want >> half)
    def decide(starts: Sequence[int]) -> int:
        mask = 0
        for start in starts:
            size = min(CHUNK, top + 1 - start)
            full = bitops.mask_of(size)
            wanted = full if want is None else (want >> (start - lo)) & full
            alive = None if wanted == full else list(bitops.iter_bits(wanted))
            for center, times in conds(start, size) if wanted else ():
                alive = sys.hit_indices(x, center, eps, times, alive)
                if not alive:
                    break
            sel = bytearray(size)
            for i in range(size) if alive is None else alive:  # None: no pair was asked
                sel[i] = 1
            mask |= bitops.from_selectors(sel) << (start - lo)
        return mask

    mask = _split(decide, range(lo, top + 1, CHUNK))
    return bitops.tile_mask(mask, period, hi - lo + 1) if tiled else mask


def fold_period(sys: SystemSpec, x: PointLike, family: PolyFamily) -> Optional[int]:
    """P = Q d!, a period in n of the decisions about T^{p_i(n)} x (the lemma
    in ``returnsets``), Q the first candidate with T^Q x = x.  L, the lcm of the
    denominators of the parameters and of x, on a rotation; 2L for the C(t, 2)
    terms of the skew product and the Heisenberg group, then 2L^2 for the latter's
    t a y (15/2 at t = 2L = 80, a = 3/8, y = 1/4), at which every term is an
    integer.  None when no candidate passes, on a named constant or a subshift."""
    if isinstance(sys, IndicatorSubshift) or not sys.exact:
        return None
    q = lcm(*(v.denominator for v in chain(sys._params, x.coords)))
    candidates = (q,) if isinstance(sys, TorusRotation) else (2 * q, 2 * q * q)
    q = next((c for c in candidates if sys.iterate(x, c) == x), None)
    return None if q is None else q * factorial(max([0, *(p.degree for p in family.polys)]))


def system_from_json_obj(obj: dict) -> SystemSpec:
    """The system of a config object; ConfigError names a key of the wrong type."""
    kind = take(obj, "type", ("rotation", "skew", "heisenberg", "subshift"))
    bits = take(obj, "bits", int, DEFAULT_BITS, least=MIN_BITS)
    if kind == "subshift":
        return IndicatorSubshift(WindowSet.from_json_obj(take(obj, "base", dict)))
    if kind == "heisenberg":
        alpha, beta = (take(obj, k, str, parse=parse_real) for k in ("alpha", "beta"))
        return HeisenbergNil(alpha, beta, bits=bits)
    if kind == "skew":
        return SkewProduct(take(obj, "alpha", str, parse=parse_real), bits=bits)
    one = isinstance(obj.get("alpha"), str)  # a 1-torus may give its alpha bare
    alphas = take(obj, "alpha", str if one else [str], parse=parse_real)
    if not alphas:  # a 0-torus, on which every time would return
        raise ConfigError("bad alpha []: a string or a list of at least one string")
    return TorusRotation((alphas,) if one else tuple(alphas), bits=bits)
