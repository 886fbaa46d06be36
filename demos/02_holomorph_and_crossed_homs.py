#!/usr/bin/env python3
"""Regular subgroups of a holomorph via crossed homomorphisms.

The Klein group V4 has Hol(V4) isomorphic to S4, and its three regular
cyclic subgroups are exactly the bijective crossed homomorphisms C4 -> V4,
counted up to the |Aut(C4)| = 2 parametrizations each.
"""

from hgs import (
    build_holomorph,
    crossed_homomorphisms,
    derive_h,
    enumerate_homomorphisms,
    regular_subgroups_in_holomorph,
    resolve_spec,
)

V4 = resolve_spec("V4")
C4 = resolve_spec("C4")

hol = build_holomorph(V4)
print("Hol(V4) has order", hol.order, "(= 4 x |Aut(V4)| = 4 x 6)")

run = regular_subgroups_in_holomorph(V4, C4, collect_subgroups=True)
print("bijective crossed-homomorphism pairs:", run.pair_count)
print("distinct regular C4-subgroups of Hol(V4):", run.subgroup_count)

print("\nper-homomorphism breakdown (f: C4 -> Aut(V4)):")
for i, f in enumerate(enumerate_homomorphisms(C4, hol.aut.carrier)):
    found = list(crossed_homomorphisms(hol, f))
    print(f"  f #{i}: image order {f.image().size}, "
          f"{len(found)} bijective crossed homomorphisms")
    for c in found:
        h = derive_h(c)
        print(f"     g = {c.g.tolist()}  (companion map h has kernel of size "
              f"{h.kernel().size})")
