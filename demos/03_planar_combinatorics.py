"""Planar structure from one-dimensional sets: the (m, n) picture.

Given a set S and polynomials p_1..p_d vanishing at 0, the planar set

    B = { (m, n) : m + p_1(n), ..., m + p_d(n) all in S }

inherits largeness from S.  On a finite window the library computes B
with explicit validity bookkeeping (pairs whose evaluations stay
inside S's window), then hunts for an all-ones rectangle in a small
dilation of B -- the planar analogue of the 1D run witness.
"""

from psynd import PolyFamily, grid_slice, pws_area_witness_2d, shift_cover_search
from psynd.generators import sturmian_window
from psynd.returnsets import combinatorial_set_2d, masked_dilation_2d
from psynd.check import verify_pws_2d
from psynd.windows import best_slice, max_rectangle

s = sturmian_window("golden", -5000, 5000)
family = PolyFamily.parse(["n", "n^2"])
box = (-300, 300, -70, 70)

members, validity = combinatorial_set_2d(s, family, box)
print(f"members: {members.count()} of {validity.count()} valid pairs in {box}")

# Sweep small shift boxes until a big rectangle appears in the dilation.
cert = pws_area_witness_2d(members, validity, b1_max=8, b2_max=8, min_area=400)
print(f"\nplanar witness: {cert}")
print(f"re-verifies against raw members: {verify_pws_2d(members, cert)}")

# How much of the box fills up as the shifts grow?
for b in range(0, 7, 2):
    area, rect = max_rectangle(masked_dilation_2d(members, validity, b, b))
    print(f"  dilation by ({b},{b}): max all-ones rectangle area {area}")

# Single rows of B are themselves interesting window sets: pick the
# strongest one and translate its patch back into S.
m_star, row_cert = best_slice(members, b_max=3, l_run=12)
print(f"\nstrongest row: m* = {m_star}, witness {row_cert}")
target = grid_slice(members, m_star)
for n_bound in (5, 10, 15, 20):
    a = shift_cover_search(s, family, target, n_bound)
    print(f"  shift covering the row patch in [-{n_bound},{n_bound}]: a = {a}")
