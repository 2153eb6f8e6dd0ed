"""Exact arithmetic for integer-valued polynomials.

The canonical form is the binomial basis: ``p(n) = sum c_k * C(n, k)``
with integer ``c_k``.  A polynomial takes integer values on all of Z
exactly when its Newton forward differences at 0 are integers, so the
basis makes integrality structural instead of something to check at
every evaluation.  A monomial view with exact rational coefficients is
derived for degree/leading-coefficient reasoning, in integers over D!
(D the degree); monomial input is read back in integers too, through
forward differences scaled by the lcm of its denominators.

Everything here is immutable and exact; no floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import comb, factorial, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DegreeTooLowError, NotIntegralError, NotNormalFormError, NotVanishingError


def binom_int(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0 (falling-factorial definition)."""
    if n < 0:
        return (-1) ** k * comb(k - n - 1, k)
    return comb(n, k)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class IntegralPolynomial:
    """Integer-valued polynomial, canonical in the binomial basis."""

    coeffs: Tuple[int, ...]

    def __init__(self, binom_coeffs: Iterable[int]):
        cs = [int(c) for c in binom_coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "IntegralPolynomial":
        return cls(())

    @classmethod
    def from_monomials(cls, monomial_coeffs: Sequence) -> "IntegralPolynomial":
        """Build from monomial coefficients a_0..a_D (ints or Fractions).

        Scaled by the lcm L of their denominators, the values at n = 0..D
        are integers whose forward differences at 0 are L c_k.  Raises
        NotIntegralError when the polynomial is not integer-valued.
        """
        den = lcm(*(a.denominator for a in monomial_coeffs))
        scaled = [a.numerator * (den // a.denominator) for a in monomial_coeffs]
        table = [sum(a * n**i for i, a in enumerate(scaled)) for n in range(len(scaled))]
        out = []
        while table:
            c, rem = divmod(table[0], den)
            if rem:
                raise NotIntegralError("not integer-valued: forward difference "
                                       f"{Fraction(table[0], den)} is fractional")
            out.append(c)
            table = [b - a for a, b in zip(table, table[1:])]
        return cls(out)

    # -- views -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def monomial_view(self) -> Tuple[Fraction, ...]:
        """Exact rational monomial coefficients a_0..a_D, in integers over D!.

        With s(k, i) the coefficients of the falling factorial
        n(n-1)...(n-k+1) = k! C(n, k), D! a_i = sum_k c_k (D!/k!) s(k, i).
        """
        top = factorial(max(self.degree, 0))
        acc, falling, weight = [0] * (len(self.coeffs) or 1), [1], top
        for k, c in enumerate(self.coeffs):
            if k > 0:
                falling = [a - (k - 1) * b for a, b in zip([0, *falling], [*falling, 0])]
                weight //= k
            if c:
                for i, s in enumerate(falling):
                    acc[i] += c * weight * s
        return tuple(Fraction(a, top) for a in acc)

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

    def _differences(self, at: int) -> List[int]:
        """The forward differences [Delta^0 p(at), ..., Delta^d p(at)], d = deg p:
        Delta^i p(at) = sum_k c_k C(at, k - i)."""
        cs = self.coeffs
        return [sum(c * binom_int(at, k - i) for k, c in enumerate(cs[i:], i))
                for i in range(len(cs))]

    def values(self, lo: int, count: int) -> List[int]:
        """[p(lo), ..., p(lo + count - 1)], exactly, with no interpreted step
        per value: deg p nested running sums over the constant top one of
        the forward differences at lo."""
        diffs = self._differences(lo)
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

        Newton: p(n + j) = sum_i Delta^i p(j) C(n, i); dropping the i = 0
        term, p(j), leaves the forward differences at j from the first on.
        """
        return IntegralPolynomial([0, *self._differences(j)[1:]])

    def vanishes_at_zero(self) -> bool:
        return not self.coeffs or self.coeffs[0] == 0

    def is_even(self) -> bool:
        """Whether p(-n) == p(n) for every integer n.

        Exact from deg p checks: p(-n) - p(n) has degree at most deg p and
        vanishes at n = 0, so zeros at 1..deg p make deg p + 1 of them.
        """
        return all(self.eval(-k) == self.eval(k) for k in range(1, self.degree + 1))

    def is_odd(self) -> bool:
        """Whether p(-n) == -p(n) for every integer n, from p(-k) + p(k) at 0..deg p."""
        return all(self.eval(-k) == -self.eval(k) for k in range(self.degree + 1))

    def __repr__(self) -> str:
        return f"IntegralPolynomial({self.to_monomial_str()!r})"

    # -- text forms --------------------------------------------------

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


MAX_DEGREE = 64  # the highest degree a polynomial read from text may have

# one term: a sign, a coefficient a or a/b, and n with a power ^k or **k
_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(n(?:(?:\^|\*\*)(\d+))?)?")


def parse_polynomial(text: str) -> IntegralPolynomial:
    """Parse either a binomial list "[0,0,1]" or a monomial string "n^2+2n".

    Every term after the first starts with its sign and is matched whole;
    spaces may stand between tokens, not inside a number.  A degree above
    MAX_DEGREE is refused.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated binomial list: {text!r}")
        inner = s[1:-1].strip()
        p = IntegralPolynomial(map(int, inner.split(","))) if inner else IntegralPolynomial.zero()
        if p.degree > MAX_DEGREE:
            raise ValueError(f"degree {p.degree} above the bound {MAX_DEGREE}")
        return p
    if gap := re.search(r"[\d/]\s+[\d/]", s):
        raise ValueError(f"cannot parse polynomial near {gap.group()!r}")
    mono: list = []
    for term in re.split(r"(?<=.)(?=[+-])", "".join(s.split())):
        m = _TERM.fullmatch(term)
        if m is None or not (m[2] or m[3]):
            raise ValueError(f"cannot parse polynomial near {term!r}")
        sign, coeff, var, power = m.groups()
        if coeff and not int(coeff.partition("/")[2] or 1):
            raise ValueError(f"zero denominator in {term!r}")
        k = int(power or 1) if var else 0
        if k > MAX_DEGREE:
            raise ValueError(f"degree {k} above the bound {MAX_DEGREE}")
        mono += [0] * (k + 1 - len(mono))
        mono[k] += Fraction(sign + (coeff or "1"))
    return IntegralPolynomial.from_monomials(mono)


def essentially_distinct(p: IntegralPolynomial, q: IntegralPolynomial) -> bool:
    """True iff p - q is non-constant."""
    return p.coeffs[1:] != q.coeffs[1:]


def shift_coincidence(
    p: IntegralPolynomial, q: IntegralPolynomial
) -> Optional[int]:
    """Integer j with ``q = p.shift(j)``, if one exists.

    For degree d >= 2, the C(n, d-1) coefficient of p.shift(j) is
    Delta^{d-1} p(j) = c_{d-1} + j * c_d, strictly monotone in j, so it
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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PolyFamily:
    """Ordered family of integral polynomials, all vanishing at 0."""

    polys: Tuple[IntegralPolynomial, ...]

    def __init__(self, polys: Iterable[IntegralPolynomial]):
        ps = tuple(polys)
        for idx, p in enumerate(ps):
            if not p.vanishes_at_zero():
                raise NotVanishingError(f"member {idx} has p(0) != 0")
        object.__setattr__(self, "polys", ps)

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "PolyFamily":
        return cls(parse_polynomial(t) for t in texts)

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __getitem__(self, i: int) -> IntegralPolynomial:
        return self.polys[i]

    def __repr__(self) -> str:
        return "PolyFamily([" + ", ".join(p.to_monomial_str() for p in self.polys) + "])"

    def to_strs(self) -> List[str]:
        return [p.to_monomial_str() for p in self.polys]

    def linear_slopes(self) -> List[int]:
        """Slopes of the degree-1 members, in family order."""
        return [p.coeffs[1] for p in self.polys if p.degree == 1]


@dataclass(frozen=True)
class NormalFormReduction:
    core: PolyFamily
    covering: Tuple[Tuple[int, int, int], ...]  # (removed family index, kept core index, shift j)


def reduce_to_normal_form(family: PolyFamily) -> NormalFormReduction:
    """Remove later-indexed shift-duplicates until the family is in normal form:
    distinct nonzero linear slopes, and no shift coincidence between any two
    members of degree >= 2.  This is the one place that decides normal form.

    Every removed member q satisfies ``q == core[kept].shift(j)``; the covering
    triples make that machine-checkable.  Deterministic: scanning is in
    index order and the later member of a coinciding pair is dropped.  A zero
    member is in no normal form and raises NotNormalFormError.
    """
    kept: List[int] = []  # family indices of the core, in order
    covering = []
    for idx, p in enumerate(family.polys):
        if p.degree <= 0:
            raise NotNormalFormError(f"member {idx} is constant")
        # the first earlier core member that p is a shift of removes p
        for pos, k in enumerate(kept):
            j = shift_coincidence(family.polys[k], p)
            if j is not None:
                covering.append((idx, pos, j))
                break
        else:
            kept.append(idx)
    return NormalFormReduction(PolyFamily(family.polys[k] for k in kept), tuple(covering))


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
    p_view, q_view = p.monomial_view(), q.monomial_view()
    a, b = abs(p_view[-1]), abs(q_view[-1])
    a_sub, b_sub = abs(p_view[-2]), abs(q_view[-2])
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
