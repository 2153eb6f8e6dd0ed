"""Named real constants with declared provenance and fixed-point resolution.

Irrational rotation/translation parameters are pinned to a fixed
vocabulary: sqrt2, sqrt3, golden, e, pi, optionally offset by a
rational ("sqrt2-1", "golden+1/2"), or a plain rational ("1/4", "-3/7").

Irrational values are resolved to scaled integers ``round_down(x * 2^bits)``
so that all downstream arithmetic and comparisons are exact integer
operations on the declared approximant; results are bit-reproducible
for a given precision.  Quadratic irrationals use exact integer square
roots, e and pi go through mpmath once at resolution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

DEFAULT_BITS = 256
MIN_BITS = 128

_NAMES = ("sqrt2", "sqrt3", "golden", "e", "pi")


def _fixed_sqrt(radicand: int, bits: int) -> int:
    # floor(sqrt(radicand) * 2^bits) via one exact integer sqrt
    return isqrt(radicand << (2 * bits))


def _fixed_named(name: str, bits: int) -> int:
    if name == "sqrt2":
        return _fixed_sqrt(2, bits)
    if name == "sqrt3":
        return _fixed_sqrt(3, bits)
    if name == "golden":
        return ((1 << bits) + _fixed_sqrt(5, bits)) >> 1
    if name in ("e", "pi"):
        import mpmath

        with mpmath.workprec(bits + 32):
            value = mpmath.e if name == "e" else mpmath.pi
            return int(mpmath.floor(value * (1 << bits)))
    raise ValueError(f"unknown constant {name!r}")


@dataclass(frozen=True)
class RealSpec:
    """A real number: either exactly rational or a named irrational plus
    a rational offset."""

    name: Optional[str]  # None for plain rationals
    offset: Fraction

    @property
    def is_rational(self) -> bool:
        return self.name is None

    def as_fraction(self) -> Fraction:
        if self.name is not None:
            raise ValueError(f"{self} is irrational")
        return self.offset

    def fixed(self, bits: int = DEFAULT_BITS) -> int:
        """floor(value * 2^bits) as an exact integer."""
        if bits < MIN_BITS:
            raise ValueError(f"precision below {MIN_BITS} bits")
        off = (self.offset.numerator << bits) // self.offset.denominator
        if self.name is None:
            return off
        return _fixed_named(self.name, bits) + off

    def __str__(self) -> str:
        if self.name is None:
            return str(self.offset)
        if self.offset == 0:
            return self.name
        sign = "+" if self.offset > 0 else "-"
        return f"{self.name}{sign}{abs(self.offset)}"


def parse_real(text) -> RealSpec:
    """Parse "sqrt2-1", "golden", "1/4", "-3", "pi+1/7", or numbers.

    Integers and Fractions pass through as rationals; floats are
    rejected (declare the value exactly instead).
    """
    if isinstance(text, RealSpec):
        return text
    if isinstance(text, bool):
        raise ValueError("booleans are not numbers here")
    if isinstance(text, int):
        return RealSpec(None, Fraction(text))
    if isinstance(text, Fraction):
        return RealSpec(None, text)
    if isinstance(text, float):
        raise ValueError(
            "floats are ambiguous; use a rational string or a named constant"
        )
    s = str(text).strip().replace(" ", "")
    for name in _NAMES:
        if s == name:
            return RealSpec(name, Fraction(0))
        if s.startswith(name):
            rest = s[len(name):]
            if rest and rest[0] in "+-":
                return RealSpec(name, Fraction(rest))
            raise ValueError(f"cannot parse constant expression {text!r}")
    try:
        return RealSpec(None, Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse real constant {text!r}") from exc
