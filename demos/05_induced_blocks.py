"""Sequence blocks induced by a polynomial family.

The doubly infinite sequence n -> (T^{p_1(n)} x, ..., T^{p_d(n)} x)
carries two commuting actions: the index shift and the
simultaneous application of T in every coordinate (T^inf).  Finite
truncations of these sequences are blocks; shifting honestly trims their
radius, while recurrence search rebuilds shifted blocks at full radius
from provenance.
"""

from fractions import Fraction

from psynd import (
    IntegralPolynomial,
    PeriodicBlock,
    PolyFamily,
    TorusRotation,
    apply_map,
    shift_block,
    block_distance,
    orbit_block,
    parse_real,
    recurrence_times,
    split_block,
)

rot = TorusRotation((parse_real("3/11"),))
x = rot.base_point()

# Linear family: shifting the block is the same as re-basing the point.
fam_n = PolyFamily.parse(["n"])
block = orbit_block(rot, x, fam_n, radius=5)
shifted = shift_block(block, 2)
rebased = orbit_block(rot, rot.iterate(x, 2), fam_n, radius=3)
print("linear family: shift-by-2 block == block at T^2 x:", shifted.same_entries(rebased))

# Quadratic family: shifting by k equals applying the map to a *different*
# quadratic family's block -- shift classes at work.
sq = orbit_block(rot, x, PolyFamily.parse(["n^2"]), radius=6)
k = 2
other = PolyFamily([IntegralPolynomial.from_monomials([0, 2 * k, 1])])  # n^2 + 4n
rhs = apply_map(orbit_block(rot, x, other, radius=6 - k), k * k)
print(f"shift-by-{k} of the n^2 block == apply_map^{k * k} of the (n^2+{2*k}n) block:",
      shift_block(sq, k).entries == rhs.entries)

# Mixed family: the xi layout separates the linear head from the tail.
fam = PolyFamily.parse(["n", "n^2"])
xb = split_block(rot, x, fam, radius=3)
print("\nxi head (one point per linear slope):", xb.head)
print("xi tail row at j=2:", xb.entry(2))
print("actions commute:", apply_map(shift_block(xb, 1), 4) == shift_block(apply_map(xb, 4), 1))
print("provenance recomputes:", shift_block(xb, 1).recomputed() == shift_block(xb, 1))

# Block recurrence: times n at which the shifted sequence lines up with
# the original to radius K within eps.
rot_irr = TorusRotation((parse_real("sqrt2"),))
times = recurrence_times(rot_irr, rot_irr.base_point(), fam, radius=3, eps=Fraction("0.1"), n_bound=10**4)
near = sorted((n for n in times.members() if n != 0), key=abs)[:6]
print(f"\nrecurrence times (sqrt2, K=3, eps=0.1): {times.count()} hits, nearest {near}")

# Sup metric between a shifted block and the base block.
sq_fam = PolyFamily.parse(["n^2"])
shifted_sq = shift_block(orbit_block(rot_irr, rot_irr.base_point(), sq_fam, 4), 1)
base_sq = orbit_block(rot_irr, rot_irr.base_point(), sq_fam, 3)
d = block_distance(shifted_sq, base_sq, 3)
print(f"distance of the shifted n^2 block from base at radius 3: {float(d):.4f}")

# Periodic words are shift-periodic blocks of their own length.
word = ("a", "b", "c")
block = PeriodicBlock(word, 1)
print("\nperiodic word materialized to radius 4:", "".join(block.materialize(4)))
print("fixed by shifting by the period:", block.shifted(3) == block)
