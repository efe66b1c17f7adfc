"""Hopf-algebra structure on a structure-constant algebra.

Coproduct, counit, and antipode are supplied as matrices and verified, never
inferred. Only the commutative case is representable; the antipode is
required to be an algebra map and an involution, which the commutative case
guarantees and the reversibility check exploits.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

import numpy as np

from .algkernel import (
    IdealSubspace,
    SCAlgebra,
    algebra_generators,
    hom_witness,
    json_residues,
    monogenic_algebra,
    quotient_algebra,
)
from .gfarith import FpPoly, PrimeField
from .hyperkernel import LawReport, _first
from .linalg import matmul, npmod, reduce_rows, rref, two_sided


class HopfData:
    """A commutative Hopf algebra: algebra plus coproduct (n^2 x n matrix),
    counit (1 x n), antipode (n x n), columns = images of basis vectors."""

    def __init__(self, algebra: SCAlgebra, delta, counit, antipode, name: str | None = None,
                 descent_ideal_poly: FpPoly | None = None):
        p = algebra.field.require_odd().p
        n = algebra.dim
        self.algebra = algebra
        self.delta = npmod(delta, p)
        self.counit = npmod(np.reshape(counit, (1, n)), p)
        self.antipode = npmod(antipode, p)
        self.name = name
        self.descent_ideal_poly = descent_ideal_poly
        if self.delta.shape != (n * n, n) or self.antipode.shape != (n, n):
            raise ValueError("coproduct/antipode dimensions are inconsistent with the algebra")
        for m in (self.delta, self.counit, self.antipode):
            m.setflags(write=False)
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def hopf_report(self) -> LawReport:
        """The verify_hopf verdict, computed once per object."""
        return verify_hopf(self)

    def ensure_verified(self) -> None:
        if not self.hopf_report.ok:
            raise ValueError("Hopf axioms fail; run verify_hopf for the witness")

    def to_json(self) -> dict:
        doc = self.algebra.to_json()
        doc["delta"] = self.delta.T.tolist()
        doc["counit"] = self.counit[0].tolist()
        doc["antipode"] = self.antipode.T.tolist()
        if self.name:
            doc["name"] = self.name
        return doc

    @staticmethod
    def from_json(doc: dict) -> "HopfData":
        """The Hopf data of a document as to_json writes it: the algebra's
        keys, then delta (n x n^2), counit (n) and antipode (n x n), and an
        optional string name. Raises ValueError naming the first fault."""
        alg = SCAlgebra.from_json(doc)
        n, p = alg.dim, alg.field.p
        delta = json_residues(doc, "delta", (n, n * n), p).T
        counit = json_residues(doc, "counit", (n,), p)
        antipode = json_residues(doc, "antipode", (n, n), p).T
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"algebra JSON 'name' must be a string, got {name!r}")
        return HopfData(alg, delta, counit, antipode, name=name)

    def __repr__(self) -> str:
        return f"HopfData({self.name or self.algebra.basis})"


def _square_mul_by(alg: SCAlgebra, u: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """u times each row of vs in A⊗A, elements in kron order. One rref splits
    u as an n x n matrix U = U[:, pivots] R = sum_k x_k⊗y_k, so each product
    is sum_k L_{x_k} V L_{y_k}^T (two_sided): 1 or 2 terms for Delta of a
    builtin's generator."""
    n, p = alg.dim, alg.field.p
    w = u.reshape(n, n)
    r, pivots = rref(w, p)
    legs = alg.mul_matrices(np.vstack([w[:, pivots].T, r])).transpose(0, 2, 1)[:, None]  # L_{x_k}, then L_{y_k}
    return npmod(two_sided(legs[: len(r)], vs.reshape(-1, n, n), legs[len(r) :], p).sum(axis=0), p).reshape(vs.shape)


def verify_hopf(h: HopfData) -> LawReport:
    """Exact matrix verification of every Hopf axiom used downstream, each
    decided on algebra generators: the three hom axioms by hom_witness, the
    others once those pass. Every map on the legs of Delta is one two_sided
    product."""
    alg = h.algebra
    p = alg.field.p
    n = alg.dim
    eye = np.eye(n, dtype=np.int64)
    rep = LawReport()

    for name, mat, mul_by, unit in (
        ("coproduct_algebra_hom", h.delta, lambda u, vs: _square_mul_by(alg, u, vs), np.kron(alg.unit, alg.unit) % p),
        ("counit_algebra_hom", h.counit, lambda u, vs: u * vs % p, np.ones(1, dtype=np.int64)),
        ("antipode_algebra_hom", h.antipode, alg.mul_by, alg.unit),
    ):
        witness = hom_witness(mat, alg, mul_by, unit)
        rep.add(name, not witness, witness)

    # Once the three hom entries pass, both sides of every other axiom are
    # algebra maps out of A (m: A⊗A -> A is one, A being commutative), and
    # algebra maps that agree on generators agree everywhere; else every
    # basis vector is a generator. Column s of each side is its value at
    # generator s, and d[s] is Delta(s) as an n x n matrix.
    at = (algebra_generators(alg) if rep.ok else eye).T
    d = matmul(h.delta, at, p).T.reshape(-1, n, n)
    # (Delta⊗id)∘Delta and (id⊗Delta)∘Delta, row (a*n + b)*n + c
    left, right = (two_sided(a, d, b, p).reshape(-1, n**3).T for a, b in ((h.delta, eye), (eye, h.delta)))
    _compare(rep, "coassociativity", left, right)

    lhs, rhs = (two_sided(a, d, b, p).reshape(-1, n).T for a, b in ((h.counit, eye), (eye, h.counit)))
    _compare(rep, "counit_law", lhs, at, extra_ok=bool((rhs == at).all()))

    target = np.outer(alg.unit, matmul(h.counit, at, p)[0]) % p
    mulmat = alg.mul.reshape(n * n, n).T  # m: A⊗A -> A, column i*n+j is e_i e_j
    for name, a, b in (("antipode_law", h.antipode, eye), ("antipode_law_right", eye, h.antipode)):
        _compare(rep, name, matmul(mulmat, two_sided(a, d, b, p).reshape(-1, n * n).T, p), target)

    anti = matmul(h.antipode, at, p)  # S(s)
    _compare(rep, "antipode_involution", matmul(h.antipode, anti, p), at)

    # (S⊗S)∘Delta with its legs swapped, row b*n + a
    twisted = two_sided(h.antipode, d, h.antipode, p).transpose(2, 1, 0)
    _compare(rep, "antipode_anticohomomorphism", matmul(h.delta, anti, p), twisted.reshape(n * n, -1))
    return rep


def _compare(rep: LawReport, name: str, a: np.ndarray, b: np.ndarray, extra_ok: bool = True) -> None:
    bad = _first(a != b)
    if not extra_ok:
        rep.add(name, False, ("unit/counit image mismatch",))
    else:
        rep.add(name, bad is None, () if bad is None else (bad, int(a[bad]), int(b[bad])))


def is_hopf_ideal(h: HopfData, ideal: IdealSubspace) -> LawReport:
    """Delta(I) in I⊗A + A⊗I, eps(I) = 0, S(I) in I, as the entries
    coproduct_containment, counit_vanishes and antipode_stability; each
    failing entry carries the first offending basis vector.

    With pi: A -> A/I the ideal's projection, I⊗A + A⊗I = Ker(pi⊗pi), so
    Delta(v) lies in it iff (pi⊗pi)(Delta v) = 0. For the unit ideal pi has
    no rows and the coproduct test passes."""
    alg = h.algebra
    p = alg.field.p
    if not ideal.is_absorbing():
        raise ValueError("subspace is not an ideal")
    pi, _ = ideal.projection()
    images = matmul(ideal.basis, h.delta.T, p).reshape(-1, h.dim, h.dim)  # Delta(v) as n x n matrices
    outside = two_sided(pi, images, pi, p).any(axis=(1, 2))
    eps = matmul(h.counit, ideal.basis.T, p)[0]
    unstable = reduce_rows(matmul(ideal.basis, h.antipode.T, p), ideal.basis, ideal.pivots, p).any(axis=1)
    rep = LawReport()
    for name, bad in (("coproduct_containment", outside), ("counit_vanishes", eps != 0), ("antipode_stability", unstable)):
        i = _first(bad)
        extra = (int(eps[i[0]]),) if i and name == "counit_vanishes" else ()
        rep.add(name, i is None, () if i is None else (ideal.basis[i[0]].tolist(), *extra))
    return rep


def hopf_quotient(h: HopfData, ideal: IdealSubspace) -> tuple[HopfData, np.ndarray]:
    """Induced Hopf structure on A/I for a verified Hopf ideal, with the
    projection matrix pi; asserts (pi⊗pi)∘Delta = Delta_quo∘pi and that the
    quotient passes verify_hopf. The structure maps are read on the lifts
    of the quotient basis, the free coordinates of pi, on which pi is the
    identity."""
    check = is_hopf_ideal(h, ideal)
    if not check.ok:
        raise ValueError(f"not a Hopf ideal: {check.to_json()}")
    alg = h.algebra
    p = alg.field.p
    quo, pi = quotient_algebra(alg, ideal)
    free = ideal.projection()[1]
    image = two_sided(pi, h.delta.T.reshape(-1, h.dim, h.dim), pi, p).reshape(h.dim, -1).T
    delta_q = image[:, free]
    counit_q = h.counit[:, free]
    antipode_q = matmul(pi, h.antipode[:, free], p)
    out = HopfData(quo, delta_q, counit_q, antipode_q, name=f"{h.name}/I" if h.name else None)
    if not (matmul(delta_q, pi, p) == image).all():
        raise RuntimeError("quotient coproduct does not commute with the projection")
    if not out.hopf_report.ok:
        raise RuntimeError(f"quotient of a Hopf ideal failed verification: {out.hopf_report.failures()}")
    return out, pi


def iterated_coproduct(h: HopfData) -> np.ndarray:
    """H = (Delta⊗id)∘Delta = (id⊗Delta)∘Delta, as an (n^3 x n) matrix, row
    (a*n + b)*n + c; ValueError unless verify_hopf found Delta coassociative."""
    if not h.hopf_report.checks["coassociativity"].passed:
        raise ValueError("coassociativity violation: iterated coproduct is ill-defined")
    n, eye = h.dim, np.eye(h.dim, dtype=np.int64)
    return two_sided(h.delta, h.delta.T.reshape(n, n, n), eye, h.algebra.field.p).reshape(n, n**3).T


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


MAX_BUILTIN_DIM = 512  # past it, the n^3 int64 structure tensor alone passes 1 GiB


def mu_hopf(p: int, n: int) -> HopfData:
    """Roots of unity: F_p[T]/(T^n - 1) with group-like T.

    n | p-1 gives the split case; other n are allowed and simply produce
    higher-degree spectrum points. On the power basis e_j = t^j,
    Delta(e_j) = e_j⊗e_j, eps(e_j) = 1 and S(e_j) = t^(-j) = e_(-j mod n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    field = PrimeField(p).require_odd()
    modulus = FpPoly.make(field, [-1] + [0] * (n - 1) + [1]) if n > 1 else FpPoly.make(field, [-1, 1])
    alg = monogenic_algebra(field, modulus)
    j = np.arange(n)
    delta = np.zeros((n * n, n), dtype=np.int64)
    delta[j * n + j, j] = 1
    counit = np.ones((1, n), dtype=np.int64)
    antipode = np.eye(n, dtype=np.int64)[-j % n]  # an involution's permutation matrix
    descent = None
    if n > 1:
        spf = min(q for q in range(2, n + 1) if n % q == 0)
        dd = n // spf
        descent = FpPoly.make(field, [-1] + [0] * (dd - 1) + [1])
    return HopfData(alg, delta, counit, antipode, name=f"mu:{p}:{n}", descent_ideal_poly=descent)


def additive_etale_hopf(p: int, k: int) -> HopfData:
    """The etale additive family: F_p[T]/(T^(p^k) - T) with primitive T. On
    the power basis e_j = t^j, S(e_j) = (-t)^j = (-1)^j e_j."""
    if k < 1:
        raise ValueError("k must be >= 1")
    field = PrimeField(p).require_odd()
    n = p**k
    modulus = FpPoly.make(field, [0, -1] + [0] * (n - 2) + [1])
    alg = monogenic_algebra(field, modulus)
    delta = np.zeros((n * n, n), dtype=np.int64)
    for j in range(n):
        for i in range(j + 1):  # Delta(t^j) = (t⊗1 + 1⊗t)^j = sum_i C(j, i) t^i ⊗ t^(j-i)
            delta[i * n + j - i, j] = comb(j, i) % p
    counit = np.eye(1, n, dtype=np.int64)
    antipode = np.diag(npmod((-1) ** np.arange(n), p))
    descent = None
    if k >= 2:
        m = p ** (k - 1)
        descent = FpPoly.make(field, [0, -1] + [0] * (m - 2) + [1])
    return HopfData(alg, delta, counit, antipode, name=f"addetale:{p}:{k}", descent_ideal_poly=descent)


def parse_builtin(spec: str) -> HopfData:
    """Parse "mu:p:n" / "addetale:p:k" algebra descriptors."""
    parts = spec.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"cannot parse algebra spec {spec!r}: expected kind:p:n")
    kind, ps, ns = parts
    try:
        p, n = int(ps), int(ns)
    except ValueError:
        raise ValueError(f"cannot parse algebra spec {spec!r}: p and n must be integers")
    if kind == "mu":
        too_big, dim = n > MAX_BUILTIN_DIM, f"{n}"
    elif kind == "addetale":
        # p^k > MAX_BUILTIN_DIM once k reaches its bit length, so a huge k
        # never forms p^k
        too_big, dim = p >= 2 and p ** min(n, MAX_BUILTIN_DIM.bit_length()) > MAX_BUILTIN_DIM, f"{p}^{n}"
    else:
        raise ValueError(f"unknown builtin kind {kind!r} (expected mu or addetale)")
    if too_big:
        raise ValueError(f"algebra spec {spec!r} has dimension {dim}, above the builtin bound {MAX_BUILTIN_DIM}")
    return mu_hopf(p, n) if kind == "mu" else additive_etale_hopf(p, n)


def descent_ideal(h: HopfData) -> IdealSubspace:
    """Canonical Hopf ideal used by the descent checks: the designated
    polynomial for builtins, the zero ideal otherwise."""
    if h.descent_ideal_poly is None:
        return IdealSubspace(h.algebra, np.zeros((0, h.dim), dtype=np.int64))
    return IdealSubspace.from_poly(h.algebra, h.descent_ideal_poly)
