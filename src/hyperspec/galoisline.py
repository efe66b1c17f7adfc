"""Closed points of the affine line and the torus over F_p, with the
spectrum hyperoperation computed two independent ways.

The Galois-orbit engine adds (or multiplies) roots in a common splitting
field and collects minimal polynomials of the results. The definitional
engine works with the image s of the coproduct generator in the residue-field
tensor product: its minimal polynomial g_P generates the forced-zero ideal,
and f*g is every irreducible factor of g_P. No factor has to be filtered
out by the forced-one (rank-one) rule: (pi)/(g_P) is a proper ideal of the
subalgebra F_p[s] of K_f ⊗ K_g, and a rank-one tensor u⊗v = (u⊗1)(1⊗v) is a
unit there, so no element of it has a rank-one image. Agreement of the two
engines on every pair is the checkable content of the orbit description of
these spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import numpy as np

from .algkernel import SCAlgebra, field_algebra, field_roots, monogenic_algebra
from .gfarith import FpPoly, PrimeField, _first_monic_relation, factor, irreducibles_up_to, minimal_polynomial
from .linalg import matmul, npmod

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
LAWS = (ADDITIVE, MULTIPLICATIVE)


@dataclass(frozen=True)
class LinePoint:
    """A closed point: a monic irreducible polynomial. The multiplicative law
    lives on F_p[T, 1/T], so (T) is excluded there."""

    law: str
    poly: FpPoly

    def __post_init__(self) -> None:
        if self.law not in LAWS:
            raise ValueError(f"unknown law {self.law!r}")
        if not self.poly.is_monic() or self.poly.degree < 1:
            raise ValueError("line points are monic irreducible polynomials")
        if self.law == MULTIPLICATIVE and self.poly.coeffs[0] == 0:
            raise ValueError("(T) is invertible on the torus and is not a point there")
        # points key the engines' caches: one key decides equality, and its
        # hash is kept because the caches hash points far more often than
        # points are made
        key = (self.law, self.poly.field.p, self.poly.coeffs)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinePoint) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def label(self) -> str:
        return f"({self.poly})"

    def sort_key(self) -> tuple:
        return (self.poly.degree, self.poly.coeffs)

    def __repr__(self) -> str:
        return f"LinePoint{self.label}"


def line_points(p: int, law: str, max_degree: int) -> list[LinePoint]:
    PrimeField(p).require_odd()
    pts = []
    for q in irreducibles_up_to(p, max_degree):
        if law == MULTIPLICATIVE and q.coeffs[0] == 0:
            continue
        pts.append(LinePoint(law, q))
    return pts


def line_identity(p: int, law: str) -> LinePoint:
    field = PrimeField(p)
    if law == ADDITIVE:
        return LinePoint(law, FpPoly.x(field))
    return LinePoint(law, FpPoly.make(field, (-1, 1)))


def line_antipode(pt: LinePoint) -> LinePoint:
    """Roots a -> -a (additive) or a -> 1/a (multiplicative), normalized monic."""
    field = pt.poly.field
    if pt.law == ADDITIVE:
        minus_t = FpPoly.make(field, (0, -1))
        return LinePoint(pt.law, pt.poly.compose(minus_t).monic())
    return LinePoint(pt.law, FpPoly.make(field, tuple(reversed(pt.poly.coeffs))).monic())


@lru_cache(maxsize=None)
def _residue_algebra(poly: FpPoly) -> SCAlgebra:
    """F_p[T]/(poly) on its power basis, built once per polynomial."""
    return monogenic_algebra(poly.field, poly)


@lru_cache(maxsize=None)
def galois_hyperop(p: int, law: str, f: LinePoint, g: LinePoint) -> tuple[LinePoint, ...]:
    """Orbit-model hyperoperation: fix a root alpha of f, run over Frobenius
    conjugates beta_j = Frob^j(beta) of a root of g, and collect minimal
    polynomials of the sums (additive) or products (multiplicative).

    Only gcd(deg f, deg g) conjugates are needed. Frob^(deg f) fixes alpha and
    sends beta_j to beta_(j + deg f), so the values at j and j + deg f are
    conjugate and share a minimal polynomial: the minimal polynomials are
    constant on the cosets of the subgroup generated by deg f in Z/(deg g),
    which is generated by gcd(deg f, deg g) and has the representatives
    0, ..., gcd - 1."""
    m = lcm(f.degree, g.degree)
    fq, frob = field_algebra(p, m)
    alpha = field_roots(f.poly, m)[0]
    conj = field_roots(g.poly, m)[0]
    out = set()
    for _ in range(gcd(f.degree, g.degree)):
        val = npmod(alpha + conj, p) if law == ADDITIVE else fq.mul_vec(alpha, conj)
        out.add(LinePoint(law, minimal_polynomial(val, fq)))
        conj = matmul(frob, conj, p)
    return tuple(sorted(out, key=LinePoint.sort_key))


def forced_zero_generator(p: int, law: str, f: LinePoint, g: LinePoint) -> FpPoly:
    """g_P, the minimal polynomial of the coproduct-generator image s in
    K_f ⊗ K_g: s = t_f⊗1 + 1⊗t_g (additive) or t_f⊗t_g (multiplicative).

    An element of K_f ⊗ K_g is the deg f x deg g matrix V of its coordinates
    on the power bases, and with the companion matrices L_f, L_g of
    multiplication by t_f and t_g, multiplication by s is the Kronecker
    operator V -> L_f V + V L_g^T or V -> L_f V L_g^T. The powers of s are the
    Krylov sequence of 1⊗1 under it, and g_P is their first monic relation."""
    PrimeField(p).require_odd()
    kf = _residue_algebra(f.poly)
    kg = _residue_algebra(g.poly)
    lf = kf.left_mul_matrix(kf.generator)
    lg_t = kg.left_mul_matrix(kg.generator).T
    v = np.outer(kf.unit, kg.unit)
    powers = [v]
    for _ in range(v.size):
        v = npmod(lf @ v + v @ lg_t, p) if law == ADDITIVE else matmul(matmul(lf, v, p), lg_t, p)
        powers.append(v)
    return _first_monic_relation(np.array(powers).reshape(len(powers), -1), kf.field)


@lru_cache(maxsize=None)
def definitional_hyperop(p: int, law: str, f: LinePoint, g: LinePoint) -> tuple[LinePoint, ...]:
    """Membership-condition hyperoperation, computed in the residue tensor:
    the forced-zero ideal is generated by g_P (forced_zero_generator), and
    f*g is every irreducible factor of g_P (no element of (pi)/(g_P) has a
    rank-one image; see the module docstring). On the torus s = t_f⊗t_g is a
    unit, so T never divides g_P."""
    g_p = forced_zero_generator(p, law, f, g)
    return tuple(sorted((LinePoint(law, pi) for pi, _mult in factor(g_p)), key=LinePoint.sort_key))


@dataclass
class PairRecord:
    f: LinePoint
    g: LinePoint
    galois: tuple[LinePoint, ...]
    definitional: tuple[LinePoint, ...]

    @property
    def agree(self) -> bool:
        return self.galois == self.definitional

    def to_json(self) -> dict:
        return {
            "f": self.f.poly.to_list(),
            "g": self.g.poly.to_list(),
            "galois": [q.poly.to_list() for q in self.galois],
            "definitional": [q.poly.to_list() for q in self.definitional],
            "agree": self.agree,
        }


@dataclass
class CrosscheckReport:
    p: int
    law: str
    max_degree: int
    pairs: list[PairRecord]
    identity_ok: bool
    antipode_ok: bool
    reversibility_ok: bool
    commutativity_ok: bool
    associativity_checked: int
    associativity_skipped: int
    associativity_ok: bool
    degree_bound_ok: bool

    @property
    def agree_all(self) -> bool:
        return all(r.agree for r in self.pairs)

    @property
    def ok(self) -> bool:
        return (
            self.agree_all
            and self.identity_ok
            and self.antipode_ok
            and self.reversibility_ok
            and self.commutativity_ok
            and self.associativity_ok
            and self.degree_bound_ok
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "law": self.law,
            "max_degree": self.max_degree,
            "pairs": [r.to_json() for r in self.pairs],
            "laws": {
                "identity": self.identity_ok,
                "antipode_inverse": self.antipode_ok,
                "reversibility": self.reversibility_ok,
                "commutativity": self.commutativity_ok,
                "associativity": {
                    "checked": self.associativity_checked,
                    "skipped": self.associativity_skipped,
                    "pass": self.associativity_ok,
                },
            },
            "degree_bound": self.degree_bound_ok,
            "agree": self.ok,
        }


def crosscheck(p: int, law: str, max_degree: int) -> CrosscheckReport:
    """Run both engines on every pair of points of degree <= max_degree and
    check the hypergroup laws on the fragment. Associativity triples whose
    intermediate or final computations would need degrees beyond
    max_degree^2 are skipped and counted, never silently dropped."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    pts = line_points(p, law, max_degree)
    e = line_identity(p, law)

    pairs = []
    degree_ok = True
    for f, g in product(pts, repeat=2):
        gal = galois_hyperop(p, law, f, g)
        de = definitional_hyperop(p, law, f, g)
        pairs.append(PairRecord(f, g, gal, de))
        if any(lcm(f.degree, g.degree) % q.degree for q in gal):
            degree_ok = False

    identity_ok = all(
        galois_hyperop(p, law, e, f) == (f,) and galois_hyperop(p, law, f, e) == (f,) for f in pts
    )

    anti = {x: line_antipode(x) for x in {*pts, *(x for r in pairs for x in r.galois)}}
    antipode_ok = all(
        e in galois_hyperop(p, law, f, anti[f]) and e in galois_hyperop(p, law, anti[f], f) for f in pts
    )

    reversibility_ok = True
    for r in pairs:
        rev = galois_hyperop(p, law, anti[r.g], anti[r.f])
        if tuple(sorted((anti[x] for x in r.galois), key=LinePoint.sort_key)) != rev:
            reversibility_ok = False
            break

    commutativity_ok = all(
        galois_hyperop(p, law, f, g) == galois_hyperop(p, law, g, f) for f, g in product(pts, repeat=2)
    )

    # A triple needs s*k for s in f*g and f*s for s in g*k. Both unions depend
    # on a member tuple and one point only, so they are formed once per
    # (tuple, point); the triples then cost lookups. lcm is symmetric, so one
    # table of the largest degree a tuple needs against a point serves both.
    bound = max_degree * max_degree
    n = len(pts)
    tuple_ids: dict[tuple[LinePoint, ...], int] = {}
    pair_ids = [tuple_ids.setdefault(r.galois, len(tuple_ids)) for r in pairs]  # (f, g) at f * n + g
    members = list(tuple_ids)
    needed = [[max(lcm(s.degree, x.degree) for s in m) for x in pts] for m in members]
    left: dict[tuple[int, int], frozenset[LinePoint]] = {}
    right: dict[tuple[int, int], frozenset[LinePoint]] = {}
    checked = skipped = 0
    associativity_ok = True
    for i, j, l in product(range(n), repeat=3):
        fg, gk = pair_ids[i * n + j], pair_ids[j * n + l]
        if needed[fg][l] > bound or needed[gk][i] > bound:
            skipped += 1
            continue
        if (fg, l) not in left:
            left[fg, l] = frozenset(x for s in members[fg] for x in galois_hyperop(p, law, s, pts[l]))
        if (i, gk) not in right:
            right[i, gk] = frozenset(x for s in members[gk] for x in galois_hyperop(p, law, pts[i], s))
        checked += 1
        if left[fg, l] != right[i, gk]:
            associativity_ok = False
            break

    return CrosscheckReport(
        p,
        law,
        max_degree,
        pairs,
        identity_ok,
        antipode_ok,
        reversibility_ok,
        commutativity_ok,
        checked,
        skipped,
        associativity_ok,
        degree_ok,
    )
