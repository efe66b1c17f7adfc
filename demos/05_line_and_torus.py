#!/usr/bin/env python3
"""Closed points of the affine line and torus: two engines, one answer.

The orbit engine adds or multiplies roots in a splitting field and takes
minimal polynomials. The definitional engine never sees a root: it works
with the coproduct image in the residue tensor, computes the forced-zero
ideal, and returns every irreducible factor of its generator. Their
agreement on every pair is checked degree by degree.
"""

from hyperspec.galoisline import (
    ADDITIVE,
    MULTIPLICATIVE,
    LinePoint,
    crosscheck,
    definitional_hyperop,
    galois_hyperop,
    line_antipode,
    line_identity,
)
from hyperspec.gfarith import PrimeField, parse_poly

F3 = PrimeField(3)

print("== the showcase pair: (T^2+1) * (T^2+1), additive law over F_3 ==")
pt = LinePoint(ADDITIVE, parse_poly("T^2+1", F3))
print("  orbit engine:        ", [q.label for q in galois_hyperop(3, ADDITIVE, pt, pt)])
print("  definitional engine: ", [q.label for q in definitional_hyperop(3, ADDITIVE, pt, pt)])
print("  (the roots are ±i; the sums are {0, ±2i} with minimal polynomials T and T^2+1)")

print("\n== the same polynomial under the torus law ==")
ptm = LinePoint(MULTIPLICATIVE, parse_poly("T^2+1", F3))
print("  products of roots {i·i, i·(-i)} = {-1, 1}: ",
      [q.label for q in galois_hyperop(3, MULTIPLICATIVE, ptm, ptm)])

print("\n== identities and antipodes ==")
print("  additive identity:      ", line_identity(3, ADDITIVE).label)
print("  multiplicative identity:", line_identity(3, MULTIPLICATIVE).label)
print("  antipode of (T-1), additive: ", line_antipode(LinePoint(ADDITIVE, parse_poly("T-1", F3))).label)
print("  antipode of (T-2), torus over F_5:",
      line_antipode(LinePoint(MULTIPLICATIVE, parse_poly("T-2", PrimeField(5)))).label)

print("\n== full cross-checks ==")
for p, law, d in [(3, ADDITIVE, 3), (3, MULTIPLICATIVE, 2), (5, ADDITIVE, 2)]:
    doc = crosscheck(p, law, d)
    laws = doc["laws"]
    print(f"  p={p} {law:<14} degree<={d}: {len(doc['pairs'])} pairs, "
          f"engines agree: {all(pair['agree'] for pair in doc['pairs'])}; "
          f"identity={laws['identity']} antipode={laws['antipode_inverse']} "
          f"reversibility={laws['reversibility']} "
          f"associativity checked={laws['associativity']['checked']} skipped={laws['associativity']['skipped']}")
