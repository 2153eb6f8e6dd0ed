"""Certifying structure in a windowed integer set.

A WindowSet is a finite slice of an integer set.  The library treats
three kinds of structure, each with a small re-checkable certificate:

* syndetic   -- bounded gaps (every length-N window meets the set),
* thick      -- long runs of consecutive members,
* piecewise syndetic -- a few shifted copies of the set union to
  something containing long runs.

The running example is the golden-ratio Sturmian set
S = { n : frac(n * phi) < 1/2 }, a classic syndetic, non-thick set.
"""

from psynd import (
    WindowSet,
    find_ap,
    gap_summary,
    longest_run,
    max_gap,
    pws_witness,
    syndetic_certificate,
    verify_pws,
    verify_syndetic,
)
from psynd.generators import sturmian_window

s = sturmian_window("golden", 0, 10_000)
print(f"Sturmian window: {s}")
print(f"density ~ {s.count() / s.width:.4f} (golden-ratio coding is half-ish)")

# Gaps: consecutive members are never more than 3 apart.
g = gap_summary(s)
print(f"\nmax gap between consecutive members: {g.max_gap}")
print(f"boundary lead-in/tail-out (gap lower bounds only): {g.lead_in}, {g.tail_out}")

# That makes every length-3 interior window hit the set ...
cert = syndetic_certificate(s, 3)
print(f"\nsyndetic certificate at N=3: {cert}")
print(f"  re-verified against the raw members: {verify_syndetic(s, cert)}")
# ... while N=2 is refuted, with the witnessing location.
print(f"refutation at N=2: {syndetic_certificate(s, 2)}")

# Thickness fails badly: runs never exceed two letters.
print(f"\nlongest run: {longest_run(s)}")

# Still, two shifts smear the set onto a full interval: piecewise
# syndetic structure, found as a dilation witness.
cert = pws_witness(s, b_max=4, l_run=2_000)
print(f"\npiecewise-syndetic witness for a 2000-run: {cert}")
print(f"  re-verified: {verify_pws(s, cert)}")

# Van der Waerden patterns: search in increasing stride order.
for k in (4, 6, 8):
    print(f"arithmetic progression of length {k}: {find_ap(s, k)}")

# Compare with a periodic block set: thick pieces, large gaps.
blocks = WindowSet.from_predicate(0, 10_000, lambda n: n % 100 <= 9)
print(f"\nperiodic blocks: runs of {longest_run(blocks).run_length}, max gap {max_gap(blocks)}")
print(f"b=90 merges the blocks: {pws_witness(blocks, 90, 100)}")
print(f"b=89 cannot: {pws_witness(blocks, 89, 100)}")
