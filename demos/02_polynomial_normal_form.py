"""Exact integer-valued polynomials and the shift normal form.

Polynomials here live in the binomial basis, so integer-valuedness is
structural and all arithmetic is exact.  The interesting operation is
the re-vanished shift p^[j](n) = p(n+j) - p(j): families of
polynomials that are shifts of one another generate the same orbit
data, and the normal form keeps one representative per shift class.
`psynd induced` reduces its family this way and reports the covering.
"""

from psynd import (
    PolyFamily,
    essentially_distinct,
    parse_polynomial,
    reduce_to_normal_form,
    separation_constant,
    separation_holds,
)

p = parse_polynomial("n^2")
print(f"p = {p.to_monomial_str()}, binomial coefficients {list(p.coeffs)}")
print(f"p(7) = {p.eval(7)}, p(-7) = {p.eval(-7)}")

# Shifting re-vanishes at 0.
for j in (1, 3, -2):
    q = p.shift(j)
    print(f"p^[{j}] = {q.to_monomial_str()}   (q(0) = {q.eval(0)})")

# The family {n^2, n^2+2n, n^2+6n} looks diverse but is one shift class.
family = PolyFamily.parse(["n^2", "n^2+2n", "n^2+6n"])
reduction = reduce_to_normal_form(family)
print(f"\n{family} reduces to the core {reduction.core}")
print("covering (removed, kept, shift):", reduction.covering)
for removed, kept, j in reduction.covering:
    lhs = reduction.core[kept].shift(j).to_monomial_str()
    print(f"  member {removed} = core[{kept}]^[{j}] = {lhs}")

# Mixed families keep distinct linear slopes and distinct shift classes.
ok_family = PolyFamily.parse(["3n", "5n", "n^2", "n^3"])
print(f"\n{ok_family} is in normal form: {reduce_to_normal_form(ok_family).covering == ()}")

# Separation constant: how far apart two shift parameters must be so
# that all four shifted polynomials stay pairwise essentially distinct.
q = parse_polynomial("n^2+n")
l_const = separation_constant(p, q)
print(f"\nseparation constant for (n^2, n^2+n): {l_const}")
k = int(l_const) + 1
print(f"shifts at distance {k}: pairwise distinct = {separation_holds(p, q, 0, k)}")
print(f"sanity: p and q essentially distinct = {essentially_distinct(p, q)}")
