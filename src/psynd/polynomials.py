"""Exact arithmetic for integer-valued polynomials.

The canonical form is the binomial basis: ``p(n) = sum c_k * C(n, k)``
with integer ``c_k``.  A polynomial takes integer values on all of Z
exactly when its Newton forward differences at 0 are integers, so the
basis makes integrality structural instead of something to check at
every evaluation.  A monomial view with exact rational coefficients is
derived (and cached) for degree/leading-coefficient reasoning.

Everything here is immutable and exact; no floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import comb
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    DegreeTooLowError,
    NotIntegralError,
    NotVanishingError,
)


def binom_int(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0 (falling-factorial definition)."""
    if n < 0:
        return (-1) ** k * comb(k - n - 1, k)
    return comb(n, k)


class IntegralPolynomial:
    """Integer-valued polynomial, canonical in the binomial basis."""

    __slots__ = ("coeffs", "_monomial")

    def __init__(self, binom_coeffs: Iterable[int]):
        cs = [int(c) for c in binom_coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_monomial", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntegralPolynomial is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "IntegralPolynomial":
        return cls(())

    @classmethod
    def from_monomials(cls, monomial_coeffs: Sequence) -> "IntegralPolynomial":
        """Build from monomial coefficients a_0..a_D (ints or Fractions).

        Raises NotIntegralError when the polynomial is not integer-valued.
        """
        coeffs = [Fraction(a) for a in monomial_coeffs]
        deg = len(coeffs) - 1
        values = [
            sum(a * (n ** i) for i, a in enumerate(coeffs)) for n in range(deg + 1)
        ]
        table = values
        binom = []
        for _ in range(deg + 1):
            binom.append(table[0])
            table = [table[i + 1] - table[i] for i in range(len(table) - 1)]
        out = []
        for b in binom:
            if b.denominator != 1:
                raise NotIntegralError(
                    f"not integer-valued: forward difference {b} is fractional"
                )
            out.append(b.numerator)
        return cls(out)

    # -- views -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def monomial_view(self) -> Tuple[Fraction, ...]:
        """Exact rational monomial coefficients a_0..a_D (cached)."""
        cached = self._monomial
        if cached is not None:
            return cached
        acc = [Fraction(0)] * (len(self.coeffs) or 1)
        basis = [Fraction(1)]  # C(n,0)
        for k, c in enumerate(self.coeffs):
            if k > 0:
                # C(n,k) = C(n,k-1) * (n - k + 1) / k
                nxt = [Fraction(0)] * (len(basis) + 1)
                for i, b in enumerate(basis):
                    nxt[i + 1] += b / k
                    nxt[i] += b * Fraction(-(k - 1), k)
                basis = nxt
            if c:
                for i, b in enumerate(basis):
                    acc[i] += c * b
        view = tuple(acc)
        object.__setattr__(self, "_monomial", view)
        return view

    def leading(self) -> Fraction:
        if self.degree < 0:
            return Fraction(0)
        return self.monomial_view()[self.degree]

    def subleading(self) -> Fraction:
        if self.degree < 1:
            return Fraction(0)
        return self.monomial_view()[self.degree - 1]

    # -- arithmetic --------------------------------------------------

    def eval(self, n: int) -> int:
        """Exact value at integer n via the binomial basis."""
        total = 0
        binom = 1  # C(n, 0)
        for k, c in enumerate(self.coeffs):
            if k > 0:
                binom = binom * (n - k + 1) // k
            total += c * binom
        return total

    __call__ = eval

    def values(self, lo: int, count: int) -> List[int]:
        """[p(lo), ..., p(lo + count - 1)], exactly, with no interpreted step
        per value: deg p nested running sums over the constant top one of
        the forward differences Delta^j p(lo) = sum_k c_k C(lo, k - j)."""
        cs = self.coeffs
        diffs = [sum(c * binom_int(lo, k - j) for k, c in enumerate(cs[j:], j))
                 for j in range(len(cs))]
        seq = repeat(diffs.pop() if diffs else 0)
        for d in reversed(diffs):
            seq = accumulate(seq, initial=d)
        return list(islice(seq, count))

    def progression(self, lo: int, count: int) -> Sequence[int]:
        """``values(lo, count)``, as a ``range`` (which ``scan`` walks) when p is linear."""
        if self.degree != 1:
            return self.values(lo, count)
        c0, c1 = self.coeffs
        return range(c0 + c1 * lo, c0 + c1 * (lo + count), c1)

    def shift(self, j: int) -> "IntegralPolynomial":
        """The re-vanished shift ``n -> p(n + j) - p(j)``.

        Vandermonde: C(n+j, k) = sum_i C(j, k-i) C(n, i); dropping the
        i=0 column subtracts exactly p(j).
        """
        d = self.degree
        if d < 0:
            return self
        out = [0] * (d + 1)
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for i in range(1, k + 1):
                out[i] += c * binom_int(j, k - i)
        out[0] = 0
        return IntegralPolynomial(out)

    def vanishes_at_zero(self) -> bool:
        return not self.coeffs or self.coeffs[0] == 0

    def is_even(self) -> bool:
        """Whether p(-n) == p(n) for every integer n.

        Exact from deg p checks: p(-n) - p(n) has degree at most deg p and
        vanishes at n = 0, so zeros at 1..deg p make deg p + 1 of them.
        """
        return all(self.eval(-k) == self.eval(k) for k in range(1, self.degree + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegralPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntegralPolynomial({self.to_monomial_str()!r})"

    # -- text forms --------------------------------------------------

    def to_binomial_str(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def to_monomial_str(self) -> str:
        view = self.monomial_view()
        if all(a == 0 for a in view):
            return "0"
        parts = []
        for i in range(len(view) - 1, -1, -1):
            a = view[i]
            if a == 0:
                continue
            sign = "-" if a < 0 else "+"
            mag = abs(a)
            if i == 0:
                body = str(mag)
            else:
                coeff = "" if mag == 1 else str(mag)
                body = f"{coeff}n" if i == 1 else f"{coeff}n^{i}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text


_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?P<coeff>\d+(?:/\d+)?)?\s*
        (?P<var>n)?\s*
        (?:(?:\^|\*\*)\s*(?P<exp>\d+))?\s*""",
    re.VERBOSE,
)


def parse_polynomial(text: str) -> IntegralPolynomial:
    """Parse either a binomial list "[0,0,1]" or a monomial string "n^2+2n"."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated binomial list: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return IntegralPolynomial.zero()
        return IntegralPolynomial(int(tok) for tok in inner.split(","))

    coeffs: dict = {}
    pos = 0
    compact = s.replace(" ", "")
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {compact[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff_text = m.group("coeff")
        var = m.group("var")
        exp_text = m.group("exp")
        if coeff_text is None and var is None:
            raise ValueError(f"cannot parse polynomial near {compact[pos:]!r}")
        coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        if var is None:
            exp = 0
        elif exp_text is None:
            exp = 1
        else:
            exp = int(exp_text)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
        pos = m.end()
    deg = max(coeffs)
    mono = [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]
    return IntegralPolynomial.from_monomials(mono)


def essentially_distinct(p: IntegralPolynomial, q: IntegralPolynomial) -> bool:
    """True iff p - q is non-constant."""
    return p.coeffs[1:] != q.coeffs[1:]


def shift_coincidence(
    p: IntegralPolynomial, q: IntegralPolynomial
) -> Optional[int]:
    """Integer j with ``q = p.shift(j)``, if one exists.

    For degree d >= 2, Vandermonde makes the C(n, d-1) coefficient of
    p.shift(j) equal to c_{d-1} + j * c_d, strictly monotone in j, so it
    pins the one candidate; one exact comparison settles it.  For lower
    degrees every shift is p.shift(0) = p - p(0), so j = 0 stands for all.
    """
    d = p.degree
    if d != q.degree:
        return None
    if d <= 1:
        return 0 if p.shift(0) == q else None
    j, rem = divmod(q.coeffs[d - 1] - p.coeffs[d - 1], p.coeffs[d])
    return j if rem == 0 and p.shift(j) == q else None


@dataclass(frozen=True)
class NormalFormViolation:
    """Witness that the family is not in normal form: p_i^[k] == p_j^[t]."""

    i: int
    j: int
    k: int
    t: int
    reason: str


class PolyFamily:
    """Ordered family of integral polynomials, all vanishing at 0."""

    __slots__ = ("polys",)

    def __init__(self, polys: Iterable[IntegralPolynomial]):
        ps = tuple(polys)
        for idx, p in enumerate(ps):
            if not p.vanishes_at_zero():
                raise NotVanishingError(f"member {idx} has p(0) != 0")
        object.__setattr__(self, "polys", ps)

    def __setattr__(self, name, value):
        raise AttributeError("PolyFamily is immutable")

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "PolyFamily":
        return cls(parse_polynomial(t) for t in texts)

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __getitem__(self, i: int) -> IntegralPolynomial:
        return self.polys[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyFamily) and self.polys == other.polys

    def __hash__(self) -> int:
        return hash(self.polys)

    def __repr__(self) -> str:
        return "PolyFamily([" + ", ".join(p.to_monomial_str() for p in self.polys) + "])"

    def to_strs(self) -> List[str]:
        return [p.to_monomial_str() for p in self.polys]

    def linear_slopes(self) -> List[int]:
        """Slopes of the degree-1 members, in family order."""
        return [p.coeffs[1] for p in self.polys if p.degree == 1]


def _coincidences(family: PolyFamily) -> Iterator[Tuple[int, int, int]]:
    """``(removed, kept, j)`` with ``family[removed] == family[kept].shift(j)``.

    Each member, in index order, is compared with the earlier members kept
    so far (those that matched none); the first one it matches removes it.
    """
    kept: List[int] = []
    for idx, p in enumerate(family.polys):
        for k in kept:
            j = shift_coincidence(family.polys[k], p)
            if j is not None:
                yield idx, k, j
                break
        else:
            kept.append(idx)


def check_normal_form(family: PolyFamily) -> Optional[NormalFormViolation]:
    """Normal-form check: distinct nonzero linear slopes, all other members
    of degree >= 2 with no shift coincidence between any two of them.

    Returns None when the family is in normal form, otherwise a witness:
    the first constant member, or else the reduction's first removal.
    """
    for idx, p in enumerate(family.polys):
        if p.degree <= 0:
            return NormalFormViolation(idx, idx, 0, 0, "constant member")
    for removed, kept, j in _coincidences(family):
        # family[removed] == family[kept].shift(j), i.e. p_kept^[j] = p_removed^[0]
        linear = family.polys[removed].degree == 1
        return NormalFormViolation(kept, removed, j, 0,
                                   "duplicate slope" if linear else "shift coincidence")
    return None


@dataclass(frozen=True)
class NormalFormReduction:
    core: PolyFamily
    covering: Tuple[Tuple[int, int, int], ...]  # (removed index, kept index, shift j)


def reduce_to_normal_form(family: PolyFamily) -> NormalFormReduction:
    """Remove later-indexed shift-duplicates until the family is in normal form.

    Every removed member q satisfies ``q == kept.shift(j)``; the covering
    triples make that machine-checkable.  Deterministic: scanning is in
    index order and the later member of a coinciding pair is dropped.
    """
    for idx, p in enumerate(family.polys):
        if p.degree <= 0:
            raise NotVanishingError(f"member {idx} is constant")
    covering = list(_coincidences(family))
    removed = {rem for rem, _, _ in covering}
    kept = [idx for idx in range(len(family)) if idx not in removed]
    # the kept indices re-map positionally in the core family
    remap = {orig: new for new, orig in enumerate(kept)}
    return NormalFormReduction(
        core=PolyFamily(family.polys[idx] for idx in kept),
        covering=tuple((rem, remap[k], j) for rem, k, j in covering),
    )


def separation_constant(p: IntegralPolynomial, q: IntegralPolynomial) -> Fraction:
    """Shift-separation constant for two essentially distinct polynomials
    of degree >= 2.

    L = (1/|a| + 1/|b| + 1) * (|a'| + |b'| + 1) where a, b are the
    leading and a', b' the subleading monomial coefficients.  Whenever
    |k1 - k2| >= L the four re-vanished shifts of p and q at k1, k2 are
    pairwise essentially distinct.
    """
    if p.degree < 2 or q.degree < 2:
        raise DegreeTooLowError("both polynomials must have degree >= 2")
    if not essentially_distinct(p, q):
        raise ValueError("polynomials must be essentially distinct")
    a, b = abs(p.leading()), abs(q.leading())
    a_sub, b_sub = abs(p.subleading()), abs(q.subleading())
    return (1 / a + 1 / b + 1) * (a_sub + b_sub + 1)


def separation_holds(
    p: IntegralPolynomial, q: IntegralPolynomial, k1: int, k2: int
) -> bool:
    """Pairwise essential distinctness of the four shifts at k1, k2."""
    four = [p.shift(k1), p.shift(k2), q.shift(k1), q.shift(k2)]
    for x in range(4):
        for y in range(x + 1, 4):
            if not essentially_distinct(four[x], four[y]):
                return False
    return True
