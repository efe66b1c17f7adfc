#!/usr/bin/env python3
"""Finite-dimensional commutative algebras over F_p and their spectra.

Every prime of such an algebra is maximal; the engine finds them all by
splitting the reduced quotient along its Frobenius fixed space, and each
point carries its residue field and the matrix of its quotient map.
"""

from hyperspec.algkernel import (
    IdealSubspace,
    is_algebra_hom,
    maximal_spectrum,
    monogenic_algebra,
    nilradical,
    quotient_algebra,
    tensor_algebra,
)
from hyperspec.gfarith import PrimeField, parse_poly

F3, F5 = PrimeField(3), PrimeField(5)

print("== spectra of polynomial quotient rings ==")
for p, field, mod in [(5, F5, "T^4-1"), (3, F3, "T^2+1"), (3, F3, "T^9-T")]:
    alg = monogenic_algebra(field, parse_poly(mod, field))
    pts = maximal_spectrum(alg)
    print(f"F_{p}[T]/({mod}):")
    for pt in pts:
        print(f"  {pt.label:<12} residue degree {pt.degree}")

print("\n== tensor products split into fields ==")
f9 = monogenic_algebra(F3, parse_poly("T^2+1", F3))
ten = tensor_algebra(f9, f9)
print(f"F_9 (x) F_9 over F_3: dim {ten.dim}, nilradical {nilradical(ten).dim},",
      f"{len(maximal_spectrum(ten))} maximal ideals of degrees",
      [pt.degree for pt in maximal_spectrum(ten)])

print("\n== quotients ==")
mu4 = monogenic_algebra(F5, parse_poly("T^4-1", F5))
ideal = IdealSubspace.from_poly(mu4, parse_poly("T^2-1", F5))
quo, pi = quotient_algebra(mu4, ideal)
print(f"F_5[T]/(T^4-1) mod (T^2-1): dim {quo.dim}, projection is an algebra hom:",
      is_algebra_hom(pi, mu4, quo))

print("\n== primality of ideals: the primes are the points of the spectrum ==")
big = monogenic_algebra(F3, parse_poly("T^9-T", F3))
primes = {pt.ideal for pt in maximal_spectrum(big)}
for gen in ("T", "T^2+1", "T^3+T"):
    ideal = IdealSubspace.from_poly(big, parse_poly(gen, F3))
    print(f"  ({gen}) in F_3[T]/(T^9-T): prime = {ideal in primes}")

print("\nnilpotents are found exactly: F_3[T]/(T^3) has nilradical of dimension",
      nilradical(monogenic_algebra(F3, parse_poly("T^3", F3))).dim)
