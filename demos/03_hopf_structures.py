#!/usr/bin/env python3
"""Hopf algebra structures, verified rather than trusted.

Two built-in families: roots of unity (group-like generator, Delta T = T⊗T)
and the etale additive family (primitive generator, Delta T = T⊗1 + 1⊗T).
Every axiom is an exact matrix identity; quotients by Hopf ideals inherit and
re-verify the whole structure.
"""

import numpy as np

from hyperspec.algkernel import IdealSubspace
from hyperspec.gfarith import parse_poly
from hyperspec.hopfkernel import (
    HopfData,
    descent_ideal,
    hopf_quotient,
    is_hopf_ideal,
    iterated_coproduct,
    parse_builtin,
    verify_hopf,
)

mu4 = parse_builtin("mu:5:4")
ae = parse_builtin("addetale:3:2")

print("== axiom verification ==")
for h in (mu4, ae):
    rep = verify_hopf(h)
    print(f"{h.name}: {'all axioms pass' if rep.ok else rep.failures()}")
    for name, c in rep.checks.items():
        print(f"   {name:<32} {'ok' if c.passed else 'FAIL'}")
    print()

print("== a broken antipode is caught with a witness ==")
bad = HopfData(mu4.algebra, mu4.delta, mu4.counit, np.eye(4, dtype=np.int64))
rep = verify_hopf(bad)
print("failures:", rep.failures())

print("\n== Hopf ideals ==")
f5 = mu4.algebra.field
for gen in ("T^2-1", "T-1"):
    ideal = IdealSubspace.from_poly(mu4.algebra, parse_poly(gen, f5))
    print(f"({gen}) in {mu4.name}: Hopf ideal = {is_hopf_ideal(mu4, ideal).ok}")
bad_ideal = IdealSubspace.from_poly(ae.algebra, parse_poly("T-1", ae.algebra.field))
chk = is_hopf_ideal(ae, bad_ideal)
print(f"(T-1) in {ae.name}: Hopf ideal = {chk.ok} (counit vanishes: {chk.checks['counit_vanishes'].passed})")

print("\n== quotients descend the whole structure ==")
quo, _ = hopf_quotient(mu4, IdealSubspace.from_poly(mu4.algebra, parse_poly("T^2-1", f5)))
print(f"{mu4.name} / (T^2-1): dim {quo.dim}, re-verified: {verify_hopf(quo).ok}")
ideal = descent_ideal(ae)
quo2, _ = hopf_quotient(ae, ideal)
print(f"{ae.name} / ({ideal.generator_poly()}): dim {quo2.dim}, re-verified: {verify_hopf(quo2).ok}")

print("\n== iterated coproduct ==")
h3 = iterated_coproduct(mu4)
col = h3[:, 1]
print("group-like T: image of T has a single coefficient at T⊗T⊗T:",
      col[(1 * 4 + 1) * 4 + 1] == 1 and col.sum() == 1)
h3 = iterated_coproduct(ae)
col = h3[:, 1]
print("primitive T: image of T is T⊗1⊗1 + 1⊗T⊗1 + 1⊗1⊗T:",
      sorted(np.nonzero(col)[0].tolist()) == [1, 9, 81])
