"""Explicit dynamical systems with exact or fixed-point orbit evaluation.

Four concrete system families, each with a closed-form n-th iterate:

* ``TorusRotation`` -- x -> x + alpha on the d-torus;
* ``SkewProduct``   -- (x, y) -> (x + alpha, x + y) on the 2-torus;
* ``HeisenbergNil`` -- left translation by tau = (alpha, beta, 0) on the
  Heisenberg nilmanifold, points reduced to the fundamental cube;
* ``IndicatorSubshift`` -- the left shift acting on windowed 0/1 words.

Systems whose parameters are all rational hold exact ``Fraction`` points
and serve as oracles.  Systems with named irrational parameters hold
scaled-integer fixed-point points (default 256 bits): every membership
decision is then an exact integer comparison against the declared
approximant, so results are bit-reproducible.

Every system has one ball predicate, ``hits(x, center, eps, times)``,
which decides ``T^t x in B(center, eps)`` for a whole list of times t.
The coordinate systems decide it in integer arithmetic at one modulus
M: 2^bits on the fixed-point path; on the rational path the lcm of the
denominators of the parameters and of both points (its square for the
Heisenberg group, so that ``(u * v) // M`` is exact).  Both paths are
therefore exact.  eps becomes one integer half-width L, the largest
integer below eps * M, so a circle test is
``((x - c + L) + t * s) % M <= 2 * L``.  The subshift decides time by
time on its words.  ``in_ball`` is ``hits`` at the single time 0.

All system and point values are immutable; methods are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Iterator, List, Sequence, Tuple, Union

from .constants import DEFAULT_BITS, RealSpec, parse_real
from .errors import BadEpsilonError, EmptySetError, WindowExhaustedError
from .polynomials import IntegralPolynomial
from .windows import WindowSet


@dataclass(frozen=True)
class Point:
    """Coordinate point: Fractions (exact systems) or scaled ints (fixed)."""

    coords: Tuple

    def __repr__(self) -> str:
        return f"Point{self.coords}"


@dataclass(frozen=True)
class Word:
    """Windowed two-sided 0/1 word; letter i lives at mask bit i - lo."""

    mask: int
    lo: int
    hi: int

    def letter(self, i: int) -> int:
        if not self.lo <= i <= self.hi:
            raise WindowExhaustedError(f"letter {i} outside word window [{self.lo},{self.hi}]")
        return (self.mask >> (i - self.lo)) & 1

    def covers(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def recenter(self, n: int) -> "Word":
        return Word(self.mask, self.lo - n, self.hi - n)

    def to_string(self) -> str:
        return "".join(str((self.mask >> k) & 1) for k in range(self.hi - self.lo + 1))

    def __repr__(self) -> str:
        return f"Word({self.to_string()}, lo={self.lo})"


PointLike = Union[Point, Word]


def _c2(n: int) -> int:
    return n * (n - 1) // 2


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


class _System:
    """Shared plumbing for the coordinate systems."""

    exact: bool
    bits: int

    def _mod1(self, v):
        if self.exact:
            return v % 1
        return v & ((1 << self.bits) - 1)

    def _value(self, spec: RealSpec):
        if self.exact:
            return spec.as_fraction() % 1
        return spec.fixed(self.bits) & ((1 << self.bits) - 1)

    def make_point(self, values: Sequence) -> Point:
        return Point(tuple(self._value(parse_real(v)) for v in values))

    def point_to_json(self, x: PointLike) -> dict:
        if isinstance(x, Word):
            return {"word": x.to_string(), "lo": x.lo, "hi": x.hi}
        if self.exact:
            return {"coords": [str(c) for c in x.coords]}
        return {"coords_fixed": [hex(c) for c in x.coords], "bits": self.bits}

    def point_from_json(self, obj: dict) -> PointLike:
        if "word" in obj:
            mask = 0
            for k, ch in enumerate(obj["word"]):
                if ch == "1":
                    mask |= 1 << k
            return Word(mask, int(obj["lo"]), int(obj["hi"]))
        if "coords_fixed" in obj:
            if self.exact or obj["bits"] != self.bits:
                raise ValueError("fixed-point coordinates do not match system precision")
            return Point(tuple(int(c, 16) for c in obj["coords_fixed"]))
        return self.make_point(obj["coords"])

    def _modulus(self, *points: Point) -> int:
        """The modulus M of the integer ball test (see the module docstring)."""
        if not self.exact:
            return 1 << self.bits
        return lcm(*(v.denominator for v in chain(self._params, *(p.coords for p in points))))

    def _scaled(self, values, m: int) -> list:
        """Values in [0, 1) as integers at the modulus m."""
        if not self.exact:
            return list(values)
        return [v.numerator * (m // v.denominator) for v in values]

    def in_ball(self, a: PointLike, c: PointLike, eps) -> bool:
        """Strict ball test of one point: ``hits`` at time 0."""
        return self.hits(a, c, eps, [0])[0]

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

    @property
    def dim(self) -> int:
        return len(self.alphas)

    @cached_property
    def exact(self) -> bool:
        return all(a.is_rational for a in self.alphas)

    @cached_property
    def _params(self) -> Tuple:
        return tuple(self._value(a) for a in self.alphas)

    def base_point(self) -> Point:
        zero = Fraction(0) if self.exact else 0
        return Point((zero,) * self.dim)

    def iterate(self, x: Point, n: int) -> Point:
        return Point(
            tuple(self._mod1(c + n * s) for c, s in zip(x.coords, self._params))
        )

    def hits(self, x: Point, center: Point, eps, times: Sequence[int]) -> List[bool]:
        """[T^t x in B(center, eps) for t in times], coordinate by coordinate."""
        m = self._modulus(x, center)
        half = _below(eps, m)
        width = 2 * half
        ok = [True] * len(times)
        for u, c, s in zip(
            self._scaled(x.coords, m), self._scaled(center.coords, m), self._scaled(self._params, m)
        ):
            b = u - c + half
            ok = [o and (b + t * s) % m <= width for o, t in zip(ok, times)]
        return ok

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

    @cached_property
    def exact(self) -> bool:
        return self.alpha.is_rational

    @cached_property
    def _params(self) -> Tuple:
        return (self._value(self.alpha),)

    def base_point(self) -> Point:
        zero = Fraction(0) if self.exact else 0
        return Point((zero, zero))

    def iterate(self, p: Point, n: int) -> Point:
        (a,) = self._params
        x, y = p.coords
        return Point(
            (self._mod1(x + n * a), self._mod1(y + n * x + _c2(n) * a))
        )

    def hits(self, p: Point, center: Point, eps, times: Sequence[int]) -> List[bool]:
        """[T^t p in B(center, eps) for t in times]."""
        m = self._modulus(p, center)
        half = _below(eps, m)
        width = 2 * half
        x, y = self._scaled(p.coords, m)
        c1, c2 = self._scaled(center.coords, m)
        (a,) = self._scaled(self._params, m)
        b1, b2 = x - c1 + half, y - c2 + half
        return [
            (b1 + t * a) % m <= width and (b2 + t * x + t * (t - 1) // 2 * a) % m <= width
            for t in times
        ]

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

    @cached_property
    def exact(self) -> bool:
        return self.alpha.is_rational and self.beta.is_rational

    @cached_property
    def _ab(self) -> Tuple:
        a = self._value(self.alpha)
        b = self._value(self.beta)
        return a, b, self._mul(a, b)

    def base_point(self) -> Point:
        zero = Fraction(0) if self.exact else 0
        return Point((zero, zero, zero))

    def _floor(self, v) -> int:
        if self.exact:
            return v.numerator // v.denominator
        return v >> self.bits

    def _mul(self, u, v):
        if self.exact:
            return u * v
        return (u * v) >> self.bits

    def reduce(self, a, b, c) -> Point:
        x = self._mod1(a)
        y = self._mod1(b)
        # a * floor(b) is an int-by-value product: exact in both modes
        z = self._mod1(c - a * self._floor(b))
        return Point((x, y, z))

    def iterate(self, p: Point, n: int) -> Point:
        a, b, ab = self._ab
        x, y, z = p.coords
        return self.reduce(
            x + n * a,
            y + n * b,
            z + _c2(n) * ab + self._mul(n * a, y),
        )

    @property
    def _params(self) -> Tuple:
        return self._ab[:2]

    def _modulus(self, *points: Point) -> int:
        m = super()._modulus(*points)
        return m * m if self.exact else m

    @staticmethod
    def _fiber(y: int, z: int, c1: int, c2: int, c3: int, m: int) -> int:
        """min over q, r in {-1, 0, 1} of (y - c2 - q m)^2 + (z - c3 - q c1 - r m)^2.

        Plus the squared circle distance in x, this is the squared
        distance from (x, y, z) to the nearest of the 27 lattice
        translates (c1 + p, c2 + q, c3 + q c1 + r), p, q, r in {-1, 0, 1},
        of the center; only the z term depends on two of p, q, r, so the
        minimum splits by axis.  It approximates the quotient metric: a
        translate farther out can be nearer.
        """
        best = None
        for q in (-1, 0, 1):
            dy = y - c2 - q * m
            dz = z - c3 - q * c1
            if 2 * dz > m:
                dz -= m
            elif 2 * dz < -m:
                dz += m
            d2 = dy * dy + dz * dz
            if best is None or d2 < best:
                best = d2
        return best

    def hits(self, p: Point, center: Point, eps, times: Sequence[int]) -> List[bool]:
        """[T^t p in B(center, eps) for t in times].

        The ball is taken in the 27-translate distance of ``_fiber``.
        The circle distances in x and y bound it from below, so the
        circle tests in x and then y reject over the whole time list
        before z is computed for the times left.
        """
        m = self._modulus(p, center)
        half = _below(eps, m)
        width = 2 * half
        limit = _below(Fraction(eps) ** 2, m * m)
        x, y, z = self._scaled(p.coords, m)
        c1, c2, c3 = self._scaled(center.coords, m)
        a, b = self._scaled(self._params, m)
        ab = a * b // m
        b1, b2 = x - c1 + half, y - c2 + half
        near = [i for i, t in enumerate(times) if (b1 + t * a) % m <= width]
        near = [i for i in near if (b2 + times[i] * b) % m <= width]
        out = [False] * len(times)
        for i in near:
            t = times[i]
            u, v = x + t * a, y + t * b
            d1 = (u - c1) % m
            if m - d1 < d1:
                d1 = m - d1
            # iterate() at scale m: z + C(t,2) ab + t a y, then reduce()
            w = (z + t * (t - 1) // 2 * ab + t * a * y // m - u * (v // m)) % m
            out[i] = d1 * d1 + self._fiber(v % m, w, c1, c2, c3, m) <= limit
        return out

    def point_distance(self, a: Point, c: Point) -> float:
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
class IndicatorSubshift(_System):
    """Left shift on windowed 0/1 words, seeded by an indicator word.

    The metric is 1/(k+1) where k is the smallest |i| with a letter
    disagreement; windowed words only support decisions their letters
    can justify, otherwise WindowExhaustedError is raised.
    """

    base: WindowSet

    exact = True
    bits = 0

    def base_point(self) -> Word:
        return indicator_subshift_point(self.base)

    def iterate(self, w: Word, n: int) -> Word:
        if not w.covers(n):
            raise WindowExhaustedError(
                f"shift by {n} loses the center letter (window [{w.lo},{w.hi}])"
            )
        return w.recenter(n)

    @staticmethod
    def _refute_radius(eps) -> int:
        # largest k with 1/(k+1) >= eps, i.e. a disagreement at k <= this
        # refutes "distance < eps"; -1 when even k=0 cannot refute
        e = _epsilon(eps)
        return e.denominator // e.numerator - 1

    def hits(self, x: Word, center: Word, eps, times: Sequence[int]) -> List[bool]:
        """[T^t x in B(center, eps) for t in times], one shifted word at a time."""
        k_ref = self._refute_radius(eps)
        return [self._agrees(self.iterate(x, t), center, k_ref, eps) for t in times]

    @staticmethod
    def _agrees(a: Word, c: Word, k_ref: int, eps) -> bool:
        for k in range(0, k_ref + 1):
            for i in (k, -k) if k else (0,):
                if not (a.covers(i) and c.covers(i)):
                    raise WindowExhaustedError(
                        f"ball decision at eps={eps} needs letters to radius {k_ref}"
                    )
                if a.letter(i) != c.letter(i):
                    return False
        return True

    def point_distance(self, a: Word, c: Word) -> Fraction:
        """Exact metric value; requires agreement to be decidable over the
        full common coverage when no disagreement is found."""
        radius = 0
        while True:
            for i in (radius, -radius) if radius else (0,):
                if not (a.covers(i) and c.covers(i)):
                    if a.lo == c.lo and a.hi == c.hi and a.mask == c.mask:
                        return Fraction(0)
                    raise WindowExhaustedError(
                        "words agree over the whole common coverage; "
                        "distance is below resolution"
                    )
                if a.letter(i) != c.letter(i):
                    return Fraction(1, radius + 1)
            radius += 1

    def to_json_obj(self) -> dict:
        return {"type": "subshift", "base": self.base.to_json_obj()}


SystemSpec = Union[TorusRotation, SkewProduct, HeisenbergNil, IndicatorSubshift]


def indicator_subshift_point(s: WindowSet) -> Word:
    """The indicator word of the set on its own window, centered at 0."""
    if s.is_empty():
        raise EmptySetError("indicator point of an empty set")
    return Word(s.mask, s.lo, s.hi)


CHUNK = 4096  # times per ``hits`` call; bounds the memory of one batch


def chunks(lo: int, hi: int) -> Iterator[range]:
    """[lo, hi] as consecutive ranges of at most CHUNK integers."""
    return (range(s, min(s + CHUNK, hi + 1)) for s in range(lo, hi + 1, CHUNK))


def survivors(
    sys: SystemSpec, x: PointLike, center: PointLike, eps, alive: Sequence[int], times: Sequence[int]
) -> List[int]:
    """The entries of ``alive`` whose time t (same position in ``times``)
    puts T^t x in B(center, eps)."""
    return [n for n, hit in zip(alive, sys.hits(x, center, eps, times)) if hit]


def iterate(sys: SystemSpec, x: PointLike, n: int) -> PointLike:
    """T^n x in closed form."""
    return sys.iterate(x, n)


def poly_orbit(
    sys: SystemSpec, x: PointLike, p: IntegralPolynomial, n0: int, n1: int
) -> List[PointLike]:
    """[T^{p(n)} x for n in [n0, n1]], each via the closed-form iterate."""
    return [sys.iterate(x, p.eval(n)) for n in range(n0, n1 + 1)]


def in_ball(sys: SystemSpec, a: PointLike, c: PointLike, eps) -> bool:
    """Strict metric ball test; exact w.r.t. the declared arithmetic."""
    return sys.in_ball(a, c, eps)


def system_from_json_obj(obj: dict) -> SystemSpec:
    kind = obj["type"]
    bits = int(obj.get("bits", DEFAULT_BITS))
    if kind == "rotation":
        alphas = obj["alpha"]
        if isinstance(alphas, (str, int)):
            alphas = [alphas]
        return TorusRotation(tuple(parse_real(a) for a in alphas), bits=bits)
    if kind == "skew":
        return SkewProduct(parse_real(obj["alpha"]), bits=bits)
    if kind == "heisenberg":
        return HeisenbergNil(parse_real(obj["alpha"]), parse_real(obj["beta"]), bits=bits)
    if kind == "subshift":
        return IndicatorSubshift(WindowSet.from_json_obj(obj["base"]))
    raise ValueError(f"unknown system type {kind!r}")
