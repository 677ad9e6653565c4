"""Exhaustive automorphism enumeration and the central/inner classification.

Run:  python demos/02_automorphism_census.py
"""

from centauts import (
    all_automorphisms,
    autcent,
    aut_fixing_quotient,
    aut_fixing_subgroup,
    inner_automorphisms,
    is_central_automorphism,
)
from centauts.corpus import catalog

# ---------------------------------------------------------------------------
# all_automorphisms searches generator images exhaustively, so its result is
# the full automorphism group, not a sample.  autcent never looks at it: it
# builds the bijective maps x -> x f(x) from every f in Hom(G/[G,G], Z(G)).
# The |Aut^Z_Z| column is filtered from the full group instead; the test
# suite asserts that both routes give the same central automorphisms.
# ---------------------------------------------------------------------------

NAMES = ["D8", "Q8", "M16", "Heis3", "D8xC2", "D8xQ8"]
entries = catalog()

print(f"{'group':<8} {'|Aut|':>6} {'|Inn|':>6} {'|Autcent|':>10} {'|Aut^Z_Z|':>10}")
for name in NAMES:
    g = entries[name]()
    auts = all_automorphisms(g)
    inn = inner_automorphisms(g)
    ac = autcent(g)
    z = g.center()
    azz = aut_fixing_subgroup(g, z, aut_fixing_quotient(g, z, auts))
    print(f"{name:<8} {len(auts):>6} {len(inn):>6} {len(ac):>10} {len(azz):>10}")

# ---------------------------------------------------------------------------
# A closer look at Q8: the inner automorphisms are central (class 2), while
# the outer maps of order 3 rotating the three quaternion axes are not.
# ---------------------------------------------------------------------------

q8 = entries["Q8"]()
print("\nQ8 automorphisms, one line each (central? inner?):")
inner_tables = inner_automorphisms(q8).images_set
for a in all_automorphisms(q8):
    tags = []
    if is_central_automorphism(q8, a):
        tags.append("central")
    if a.images in inner_tables:
        tags.append("inner")
    print(f"  {a.images}  {' '.join(tags)}")
