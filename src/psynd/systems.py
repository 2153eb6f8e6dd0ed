"""Explicit dynamical systems with exact or fixed-point orbit evaluation.

Four concrete system families, each with a closed-form n-th iterate:

* ``TorusRotation`` -- x -> x + alpha on the d-torus;
* ``SkewProduct``   -- (x, y) -> (x + alpha, x + y) on the 2-torus;
* ``HeisenbergNil`` -- left translation by tau = (alpha, beta, 0) on the
  Heisenberg nilmanifold, points reduced to the fundamental cube;
* ``IndicatorSubshift`` -- the left shift acting on windowed 0/1 words.

Systems whose parameters are all rational run on exact ``Fraction``
arithmetic and serve as oracles.  Systems with named irrational
parameters run on scaled-integer fixed point (default 256 bits): every
membership decision is then an exact integer comparison against the
declared approximant, so results are bit-reproducible.

All system and point values are immutable; methods are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Tuple, Union

from .constants import DEFAULT_BITS, RealSpec, parse_real
from .errors import BadEpsilonError, EmptySetError, WindowExhaustedError
from .polynomials import IntegralPolynomial, binom_int
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


def _as_eps(eps) -> Fraction:
    e = Fraction(eps)
    if e <= 0:
        raise BadEpsilonError(f"epsilon must be > 0, got {eps}")
    return e


def _c2(n: int) -> int:
    return binom_int(n, 2)


class _System:
    """Shared plumbing for the coordinate systems."""

    exact: bool
    bits: int

    def _mod1(self, v):
        if self.exact:
            return v % 1
        return v & ((1 << self.bits) - 1)

    def _circle_dist(self, a, c):
        if self.exact:
            d = (a - c) % 1
            return min(d, 1 - d)
        mask = (1 << self.bits) - 1
        d = (a - c) & mask
        return min(d, (1 << self.bits) - d)

    def _lt_eps(self, dist, eps: Fraction) -> bool:
        # strict comparison, exact in both modes
        if self.exact:
            return dist < eps
        return dist * eps.denominator < eps.numerator << self.bits

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
    def _steps(self) -> Tuple:
        return tuple(self._value(a) for a in self.alphas)

    def base_point(self) -> Point:
        zero = Fraction(0) if self.exact else 0
        return Point((zero,) * self.dim)

    def iterate(self, x: Point, n: int) -> Point:
        return Point(
            tuple(self._mod1(c + n * s) for c, s in zip(x.coords, self._steps))
        )

    def in_ball(self, a: Point, c: Point, eps) -> bool:
        e = _as_eps(eps)
        return all(
            self._lt_eps(self._circle_dist(u, v), e)
            for u, v in zip(a.coords, c.coords)
        )

    def point_distance(self, a: Point, c: Point) -> Fraction:
        dist = max(self._circle_dist(u, v) for u, v in zip(a.coords, c.coords))
        if self.exact:
            return dist
        return Fraction(dist, 1 << self.bits)

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
    def _a(self):
        return self._value(self.alpha)

    def base_point(self) -> Point:
        zero = Fraction(0) if self.exact else 0
        return Point((zero, zero))

    def iterate(self, p: Point, n: int) -> Point:
        a = self._a
        x, y = p.coords
        return Point(
            (self._mod1(x + n * a), self._mod1(y + n * x + _c2(n) * a))
        )

    def in_ball(self, a: Point, c: Point, eps) -> bool:
        e = _as_eps(eps)
        return all(
            self._lt_eps(self._circle_dist(u, v), e)
            for u, v in zip(a.coords, c.coords)
        )

    def point_distance(self, a: Point, c: Point) -> Fraction:
        dist = max(self._circle_dist(u, v) for u, v in zip(a.coords, c.coords))
        if self.exact:
            return dist
        return Fraction(dist, 1 << self.bits)

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

    def _translates(self, c: Point):
        c1, c2, c3 = c.coords
        one = Fraction(1) if self.exact else (1 << self.bits)
        for q in (-1, 0, 1):
            b2 = c2 + q * one
            zq = c3 + self._mul(c1, q * one)
            for p_ in (-1, 0, 1):
                b1 = c1 + p_ * one
                for r in (-1, 0, 1):
                    yield (b1, b2, zq + r * one)

    def in_ball(self, a: Point, c: Point, eps) -> bool:
        e = _as_eps(eps)
        # cheap rejection: each coordinate's circle distance bounds the
        # Euclidean quotient distance from below
        if not self._lt_eps(self._circle_dist(a.coords[0], c.coords[0]), e):
            return False
        if not self._lt_eps(self._circle_dist(a.coords[1], c.coords[1]), e):
            return False
        d2 = self._dist2(a, c)
        if self.exact:
            return d2 < e * e
        # d2 is at scale 2^(2*bits)
        return d2 * e.denominator ** 2 < (e.numerator ** 2) << (2 * self.bits)

    def _dist2(self, a: Point, c: Point):
        """Min over the 27 lattice-neighbor translates of squared Euclidean
        distance (quotient-metric approximation, adequate inside the cube)."""
        best = None
        a1, a2, a3 = a.coords
        for t1, t2, t3 in self._translates(c):
            d1 = a1 - t1
            d2_ = a2 - t2
            d3 = a3 - t3
            val = d1 * d1 + d2_ * d2_ + d3 * d3
            if best is None or val < best:
                best = val
        return best

    def point_distance(self, a: Point, c: Point) -> float:
        d2 = self._dist2(a, c)
        if self.exact:
            return float(d2) ** 0.5
        return (d2 / (1 << (2 * self.bits))) ** 0.5

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
    def _refute_radius(eps: Fraction) -> int:
        # largest k with 1/(k+1) >= eps, i.e. a disagreement at k <= this
        # refutes "distance < eps"; -1 when even k=0 cannot refute
        t = 1 / eps - 1
        return t.numerator // t.denominator

    def in_ball(self, a: Word, c: Word, eps) -> bool:
        e = _as_eps(eps)
        k_ref = self._refute_radius(e)
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

    def agreement_radius(self, a: Word, c: Word) -> int:
        """Largest k with letters agreeing for all |i| <= k (may raise)."""
        k = 0
        while True:
            for i in (k, -k) if k else (0,):
                if not (a.covers(i) and c.covers(i)):
                    raise WindowExhaustedError("coverage exhausted while agreeing")
                if a.letter(i) != c.letter(i):
                    return k - 1
            k += 1

    def to_json_obj(self) -> dict:
        return {"type": "subshift", "base": self.base.to_json_obj()}


SystemSpec = Union[TorusRotation, SkewProduct, HeisenbergNil, IndicatorSubshift]


def indicator_subshift_point(s: WindowSet) -> Word:
    """The indicator word of the set on its own window, centered at 0."""
    if s.is_empty():
        raise EmptySetError("indicator point of an empty set")
    return Word(s.mask, s.lo, s.hi)


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
