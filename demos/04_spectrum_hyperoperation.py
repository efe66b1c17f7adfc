#!/usr/bin/env python3
"""The coproduct-induced hyperoperation on the spectrum.

Points of the spectrum are K-valued points; f*g collects every point whose
kernel contains the forced-zero ideal, the elements whose coproduct image in
the residue tensor has rank 0. Such a kernel never holds a rank-one
(forced-one) element, since rank-one tensors are units of that tensor.
Membership is read off the primitive idempotents: phi is in f*g iff the
coproduct image of e_phi, the idempotent outside Ker(phi), is nonzero, so
the forced-zero ideal is the intersection of the members' kernels and is
prime iff f*g has one member.
On split roots of unity this reproduces the group of units; on the additive
family genuine multi-valued entries appear.
"""

from itertools import product

from hyperspec import specops as ops
from hyperspec.gfarith import parse_poly
from hyperspec.hopfkernel import descent_ideal, parse_builtin

mu4 = parse_builtin("mu:5:4")
ae = parse_builtin("addetale:3:2")

print("== mu:5:4: the hyperoperation is the group mu_4(F_5) ==")
pts = ops.kpoints(mu4)
width = max(len(p.label) for p in pts)
for f in pts:
    row = "  ".join(",".join(ops.hyperop(mu4, f, g).labels()) for g in pts)
    print(f"  {f.label:<{width}} | {row}")
print("identity point:", ops.identity_point(mu4).label)

print("\n== addetale:3:2: multi-valued entries appear ==")
pts = ops.kpoints(ae)
for f in pts:
    cells = []
    for g in pts:
        labels = ops.hyperop(ae, f, g).labels()
        cells.append("{" + ",".join(labels) + "}" if len(labels) > 1 else labels[0])
    print(f"  {f.label:<12} | " + "  ".join(cells))

print("\nforced values explain membership: with f = g = (T^2+1),")
d = ops.point_by_label(ae, "(T^2+1)")
for text in ("T^3+T", "T", "T^2"):
    x = ae.algebra.element_from_poly(parse_poly(text, ae.algebra.field))
    print(f"  value of {text:<6} is forced to {ops.forced_value(ae, d, d, x).value}")
res = ops.hyperop(ae, d, d)
print(f"forced-zero ideal = ({res.forced_zero.generator_poly()}), prime: {len(res.members) == 1}")
print("  (a non-prime coproduct preimage: the intersection of the kernels of the", len(res.members), "members)")

print("\n== the statement suite, checked exhaustively ==")
for h in (mu4, ae):
    checks = {
        "identity law": ops.identity_law_check(h).ok,
        "antipode inverses": ops.inverse_law_check(h).ok,
        "reversibility": ops.reversibility_check(h).ok,
        "weak associativity": ops.weak_assoc_all(h).ok,
        "nonempty": ops.nonempty_check(h).ok,
        "descent": ops.descend_and_compare(h, descent_ideal(h)).ok,
        "classical comparison": ops.classical_comparison(h, h.algebra.field.p).ok,
    }
    print(f"{h.name}: " + ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in checks.items()))

print("\n== the presentation oracle validates the rank rule ==")
mu2 = parse_builtin("mu:3:2")
pts = ops.kpoints(mu2)
from hyperspec.linalg import enumerate_vectors

agree = 0
for x in enumerate_vectors(3, 2):
    for f, g in product(pts, repeat=2):
        ops.presentation_oracle(mu2, f, g, x, 5)  # raises on any disagreement
        agree += 1
print(f"all {agree} (x, f, g) cases on mu:3:2 agree with brute-force presentation enumeration")
