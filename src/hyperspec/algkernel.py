"""Finite-dimensional commutative algebras over F_p by structure constants.

Ideals are echelonized subspaces, so equality of ideals is equality of stored
bases. Primes of a finite-dimensional algebra are exactly the maximal ideals;
the spectrum is enumerated by splitting the algebra's Frobenius fixed space,
which the primitive idempotents span, so each point comes with its own
idempotent; this is exact in characteristic p.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from math import gcd
from typing import Callable

import numpy as np

from .gfarith import FpPoly, PrimeField, _first_monic_relation, find_irreducible, power_basis_tensor
from .hyperkernel import _first
from .linalg import (
    enumerate_vectors,
    in_span,
    matmul,
    npmod,
    nullspace,
    reduce_rows,
    require_int64_sum,
    rref,
)


class SCAlgebra:
    """Commutative associative unital algebra over F_p, given by an
    n x n x n structure tensor: e_i * e_j = sum_k mul[i,j,k] e_k.

    Commutativity and the unit are verified on the basis at construction,
    associativity on algebra_generators (n^4 work per generator), and a
    stored generator must generate. Products are formed as int64 sums of
    dim products of two residues, so every product raises ValueError unless
    dim * (p-1)^2 < 2^63.
    """

    def __init__(self, field: PrimeField, basis: list[str], mul, unit, generator=None):
        self.field = field
        self.basis = tuple(str(b) for b in basis)
        self.dim = len(self.basis)
        self.mul = npmod(mul, field.p)
        self.unit = npmod(unit, field.p)
        self.generator = None if generator is None else npmod(generator, field.p)
        if self.mul.shape != (self.dim, self.dim, self.dim) or self.unit.shape != (self.dim,):
            raise ValueError("structure tensor / unit dimensions are inconsistent")
        self._spectrum: list[PrimePoint] | None = None
        self._validate()
        self.mul.setflags(write=False)
        self.unit.setflags(write=False)

    def _validate(self) -> None:
        """Commutativity, the unit, associativity on algebra_generators, then
        the stored generator. The middle nucleus {s : (xs)z = x(sz) for all
        x, z} is a subalgebra that holds 1, by the Teichmüller identity, so it
        holds the closure's words once it holds the generators; s lies in it
        iff (e_i s) e_j is symmetric in (i, j), else fails at some e_k in its support."""
        if not (self.mul == self.mul.transpose(1, 0, 2)).all():
            raise ValueError("multiplication is not commutative")
        n, p, mul = self.dim, self.field.p, self.mul
        if not (self.left_mul_matrix(self.unit) == np.eye(n, dtype=np.int64)).all():
            raise ValueError("declared unit is not a multiplicative identity")
        gens, mats = self.closure[:2]
        for s, ls in zip(gens, mats):
            x = self.mul_matrices(ls)  # [i, j]: (e_i s) e_j
            if (bad := _first((x != x.transpose(1, 0, 2)).any(axis=2))) is not None:
                i, j = bad  # row k below: (e_i e_k) e_j != e_i (e_k e_j)
                k = _first((s != 0) & (matmul(mul[i], mul[:, j], p) != matmul(mul[:, j], mul[i], p)).any(axis=1))[0]
                raise ValueError(f"multiplication is not associative at basis triple ({i},{k},{j})")
        if self.generator is not None and (d := self.closure[4]) < n:
            raise ValueError(f"algebra 'generator' does not generate the algebra: its powers span {d} of {n} dimensions")

    def mul_matrices(self, u: np.ndarray) -> np.ndarray:
        """The multiplication matrices of a stack of reduced elements, one per
        row: entry [b, j, k] is the e_k coefficient of u[b] * e_j. Every
        product in this class goes through here."""
        p = self.field.p
        require_int64_sum(self.dim, 2, p, "algebra product")
        return npmod(u @ self.mul.reshape(self.dim, -1), p).reshape(len(u), self.dim, self.dim)

    def mul_by(self, u: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """u times each row of the stack vs, for one reduced element u."""
        return matmul(vs, self.mul_matrices(u[None])[0], self.field.p)

    def powers(self, v: np.ndarray, start: np.ndarray, k: int) -> np.ndarray:
        """The k rows start * v^j for j < k, for reduced v and start: the
        Krylov sequence of start under the multiplication matrix of v."""
        return self.krylov(self.mul_matrices(v[None])[0], start, k)

    def krylov(self, lmat: np.ndarray, start, k: int) -> np.ndarray:
        """The k rows start @ lmat^j for j < k: start reduced, lmat the matrix
        of x -> v*x (x @ lmat), mul_matrices(v) or mul[j] at v = e_j, whose
        sums _validate has bounded."""
        p = self.field.p
        out = np.zeros((k, self.dim), dtype=np.int64)
        for j in range(k):
            out[j] = out[j - 1] @ lmat % p if j else start
        return out

    def left_mul_matrix(self, v: np.ndarray) -> np.ndarray:
        """Matrix of x -> v*x, for one reduced element v."""
        return self.mul_matrices(v[None])[0].T

    @cached_property
    def closure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int] | None], int]:
        """(gens, mats, words, steps, reach). The candidates are the stored
        generator, if any, then e_0, ..., e_(n-1); one outside the span of
        the words joins gens, and its multiplication matrix joins mats. The
        words start at the unit; when s joins, each earlier word runs its
        chain word·s, (word·s)·s, ..., a product kept while outside the span
        of the earlier words: word k > 0 is words[parent]·gens[t], (parent,
        t) = steps[k]. For associative A their span is the subalgebra of the
        generators so far. reach is the span's dimension after the first
        candidate: on g stored, its powers'."""
        p, n = self.field.p, self.dim
        basis, pivots = np.zeros((n, n), dtype=np.int64), []  # an RREF basis of the words' span
        words, steps, gens, mats, reach = [], [], [], [], 0

        def fresh(v, step) -> bool:  # whether v lies outside the span; if so, it joins the words
            r = reduce_rows(v, basis[: len(pivots)], pivots, p)[0]
            if r.any():
                c = int(np.flatnonzero(r)[0])
                basis[len(pivots)] = r = r * self.field.inv(int(r[c])) % p
                basis[: len(pivots)] = npmod(basis[: len(pivots)] - np.outer(basis[: len(pivots), c], r), p)
                pivots.append(c)
                words.append(v)
                steps.append(step)
            return bool(r.any())

        fresh(self.unit, None)
        for c in ([] if self.generator is None else [self.generator]) + list(np.eye(n, dtype=np.int64)):
            if len(words) < n and not in_span(basis[: len(pivots)], pivots, c, p):
                gens.append(c)
                mats.append(self.mul_matrices(c[None])[0])
                for k in range(len(words)):
                    parent = k
                    while fresh(words[parent] @ mats[-1] % p, (parent, len(gens) - 1)):
                        parent = len(words) - 1
            reach = reach or len(words)
        gens, mats = np.array(gens, dtype=np.int64).reshape(-1, n), np.array(mats, dtype=np.int64).reshape(-1, n, n)
        gens.setflags(write=False)
        mats.setflags(write=False)
        return gens, mats, np.array(words), steps, reach

    @cached_property
    def gen_powers(self) -> np.ndarray:
        """[t, j] = gens[t]^j for j <= dim: the Krylov sequence of the unit
        under each of the closure's mats[t], formed once per algebra."""
        pows = np.array([self.krylov(ls, self.unit, self.dim + 1) for ls in self.closure[1]], dtype=np.int64)
        pows = pows.reshape(-1, self.dim + 1, self.dim)
        pows.setflags(write=False)
        return pows

    @cached_property
    def generator_powers(self) -> np.ndarray:
        """The rows 1, g, ..., g^dim of the stored generator g: gen_powers[0]
        when g is the closure's first generator, as it is unless g is a
        scalar, as in dimension 1, which joins no generating set."""
        if self.generator is None:
            raise ValueError("algebra has no designated generator")
        gens = self.closure[0]
        if len(gens) and (gens[0] == self.generator).all():
            return self.gen_powers[0]
        pows = self.powers(self.generator, self.unit, self.dim + 1)
        pows.setflags(write=False)
        return pows

    @cached_property
    def frobenius(self) -> np.ndarray:
        """Matrix of x -> x^p along the closure's words: word k =
        words[parent]·s goes to Frob(words[parent])·r(s), s^p = r(s) for r =
        T^p mod the minimal polynomial of s, read off gen_powers, and one
        echelon form of [words | images] gives column i, e_i^p."""
        p, n = self.field.p, self.dim
        _, _, words, steps, _ = self.closure

        def frob_of(pows):
            r = FpPoly.x(self.field).pow_mod(p, _first_monic_relation(pows, self.field)).coeffs
            return matmul(np.array(r, dtype=np.int64), pows[: len(r)], p)

        mats = self.mul_matrices(np.array([frob_of(pows) for pows in self.gen_powers], dtype=np.int64).reshape(-1, n))
        images = [self.unit]
        for parent, t in steps[1:]:
            images.append(images[parent] @ mats[t] % p)
        frob = np.ascontiguousarray(rref(np.hstack([words, images]), p)[0][:, n:].T)
        frob.setflags(write=False)
        return frob

    @cached_property
    def nil_frobenius(self) -> np.ndarray:
        """Matrix of x -> x^(p^m) for the least m >= 1 with p^m >= dim, whose
        kernel is the nilradical: a nilpotent x has x^dim = 0. Composed with
        multiplication by a primitive idempotent e, its kernel is the
        maximal ideal of the point outside which e lies."""
        p = self.field.p
        total, m = self.frobenius, 1
        while p**m < self.dim:
            total = matmul(self.frobenius, total, p)
            m += 1
        total.setflags(write=False)
        return total

    def element_from_poly(self, poly: FpPoly) -> np.ndarray:
        """poly(g) for the stored generator g: poly is first reduced modulo
        the minimal polynomial of g, read off generator_powers, so at most
        dim of them are summed, whatever deg poly is."""
        pows = self.generator_powers
        rem = poly % _first_monic_relation(pows, self.field)
        return matmul(np.array(rem.coeffs, dtype=np.int64), pows[: len(rem.coeffs)], self.field.p)

    def to_json(self) -> dict:
        doc = {
            "p": self.field.p,
            "dim": self.dim,
            "basis": list(self.basis),
            "mul": self.mul.tolist(),
            "unit": self.unit.tolist(),
        }
        if self.generator is not None:
            doc["generator"] = self.generator.tolist()
        return doc

    @staticmethod
    def from_json(doc: dict) -> "SCAlgebra":
        """The algebra of a document as to_json writes it. Raises ValueError
        naming the first fault: a document that is not an object, a missing
        key, a p that is not an integer prime, a basis that is not a
        nonempty list of strings, or a mul, unit or generator of the wrong
        shape or with a non-integer entry."""
        if not isinstance(doc, dict):
            raise ValueError(f"algebra JSON must be an object, got {type(doc).__name__}")
        for key in ("p", "basis", "mul", "unit"):
            if key not in doc:
                raise ValueError(f"algebra JSON has no {key!r} key")
        p, basis = doc["p"], doc["basis"]
        if type(p) is not int:
            raise ValueError(f"algebra JSON 'p' must be an integer, got {p!r}")
        field = PrimeField(p)
        if not (isinstance(basis, list) and basis and all(isinstance(b, str) for b in basis)):
            raise ValueError(f"algebra JSON 'basis' must be a nonempty list of strings, got {basis!r}")
        n = len(basis)
        gen = None if doc.get("generator") is None else json_residues(doc, "generator", (n,), p)
        return SCAlgebra(
            field, basis, json_residues(doc, "mul", (n, n, n), p), json_residues(doc, "unit", (n,), p), generator=gen
        )


def json_residues(doc: dict, key: str, shape: tuple[int, ...], p: int) -> np.ndarray:
    """doc[key], nested lists of integers of the given shape, reduced mod p
    as Python ints before they become int64. Raises ValueError naming the
    key when it is missing, has another shape or holds a non-integer (a
    bool, float, string, list or object where an integer belongs)."""
    if key not in doc:
        raise ValueError(f"algebra JSON has no {key!r} key")
    try:
        arr = np.array(doc[key], dtype=object)
    except ValueError:  # ragged lists, for some numpy versions
        arr = None
    if arr is None or arr.shape != shape:
        raise ValueError(f"algebra JSON {key!r} must be a {' x '.join(map(str, shape))} array of integers")
    for v in arr.flat:
        if type(v) is not int:
            raise ValueError(f"algebra JSON {key!r} entries must be integers, got {v!r}")
    return np.array([v % p for v in arr.flat], dtype=np.int64).reshape(shape)


def monogenic_algebra(field: PrimeField, modulus: FpPoly) -> SCAlgebra:
    """F_p[T]/(modulus) on the power basis 1, t, ..., t^(d-1)."""
    mul = power_basis_tensor(modulus)
    d = modulus.degree
    unit = np.zeros(d, dtype=np.int64)
    unit[0] = 1
    gen = np.zeros(d, dtype=np.int64)
    if d == 1:
        gen[0] = (-modulus.coeffs[0]) % field.p
    else:
        gen[1] = 1
    names = ["1" if k == 0 else ("t" if k == 1 else f"t{k}") for k in range(d)]
    return SCAlgebra(field, names, mul, unit, generator=gen)


def algebra_generators(alg: SCAlgebra) -> np.ndarray:
    """The greedy generating set of SCAlgebra.closure: the stored generator,
    if any, then each basis vector outside the earlier rows' subalgebra."""
    return alg.closure[0]


def hom_witness(mat: np.ndarray, src: SCAlgebra, mul_by, unit) -> tuple:
    """() when the reduced mat, acting as mat @ v, is a unital algebra map
    from src to an algebra with unit `unit`; mul_by(u, vs) is that algebra's
    product of one reduced element u with each row of a reduced stack vs, in
    a stack of vs's shape. Else the unit-mismatch witness, or ((K, s, j),
    lhs, rhs) at the first K, generator row s and basis vector j where
    mat(s e_j) != mat(s) mat(e_j). Generators suffice: once mat(1) = 1, the
    y with mat(yx) = mat(y) mat(x) for all x form a subalgebra. mat(s e_j)
    reads the closure's multiplication matrix of s."""
    p = src.field.p
    if not (matmul(mat, src.unit, p) == unit).all():
        return ("unit/counit image mismatch",)
    gens, mats = src.closure[:2]
    images = mat.T  # row j is mat(e_j)
    lhs = matmul(mats, images, p)  # [s, j, K]
    rhs = np.array([mul_by(u, images) for u in matmul(gens, images, p)]).reshape(lhs.shape)
    lhs, rhs = (side.transpose(2, 0, 1) for side in (lhs, rhs))
    bad = _first(lhs != rhs)
    return () if bad is None else (bad, int(lhs[bad]), int(rhs[bad]))


def is_algebra_hom(mat: np.ndarray, src: SCAlgebra, dst: SCAlgebra) -> bool:
    """Whether the (dst dim x src dim) matrix mat, acting as mat @ v, is a
    unital algebra map (hom_witness)."""
    return not hom_witness(npmod(mat, src.field.p), src, dst.mul_by, dst.unit)


class IdealSubspace:
    """An ideal of an SCAlgebra stored as a reduced-row-echelon basis, so two
    equal ideals have identical stored bases."""

    def __init__(self, algebra: SCAlgebra, vectors):
        self.algebra = algebra
        vecs = npmod(np.reshape(vectors, (-1, algebra.dim)), algebra.field.p)
        self.basis, self.pivots = rref(vecs, algebra.field.p)
        self.basis.setflags(write=False)
        self._absorbing: bool | None = None
        self._projection: tuple[np.ndarray, list[int]] | None = None

    @staticmethod
    def from_generators(algebra: SCAlgebra, gens) -> "IdealSubspace":
        gens = npmod(np.reshape(gens, (-1, algebra.dim)), algebra.field.p)
        return IdealSubspace(algebra, algebra.mul_matrices(gens).reshape(-1, algebra.dim))

    @staticmethod
    def from_poly(algebra: SCAlgebra, poly: FpPoly) -> "IdealSubspace":
        return IdealSubspace.from_generators(algebra, [algebra.element_from_poly(poly)])

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_unit_ideal(self) -> bool:
        return self.contains_vector(self.algebra.unit)

    def is_absorbing(self) -> bool:
        """Whether I·s lies in I for every row s of algebra_generators (by the
        closure's L_s), hence I·A in I; decided once: the basis is immutable."""
        if self._absorbing is None:
            alg = self.algebra
            prods = matmul(self.basis, alg.closure[1], alg.field.p).reshape(-1, alg.dim)
            self._absorbing = not reduce_rows(prods, self.basis, self.pivots, alg.field.p).any()
        return self._absorbing

    def contains_vector(self, v) -> bool:
        return in_span(self.basis, self.pivots, v, self.algebra.field.p)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IdealSubspace)
            and self.basis.shape == other.basis.shape
            and bool((self.basis == other.basis).all())
        )

    def __hash__(self) -> int:
        return hash((self.basis.shape, self.basis.tobytes()))

    def sort_key(self) -> tuple:
        return (self.dim, tuple(self.basis.ravel().tolist()))

    def projection(self) -> tuple[np.ndarray, list[int]]:
        """(pi, free): the projection A -> A/I onto the free (non-pivot)
        coordinates of the RREF basis, as a (len(free), dim) matrix, and
        those coordinates. pi(x) is the residual of x against the basis read
        on the free positions, so Ker pi = I: e_j maps to e_j for a free j,
        and e_pivots[i] to -basis[i] read on the free positions. Built once,
        read-only: the basis is immutable."""
        if self._projection is None:
            free = [c for c in range(self.algebra.dim) if c not in self.pivots]
            pi = np.zeros((len(free), self.algebra.dim), dtype=np.int64)
            pi[:, free] = np.eye(len(free), dtype=np.int64)
            pi[:, self.pivots] = npmod(-self.basis[:, free].T, self.algebra.field.p)
            pi.setflags(write=False)
            self._projection = (pi, free)
        return self._projection

    @cached_property
    def polynomial(self) -> FpPoly:
        """The monic h with I = (h(g)), g the algebra's stored generator:
        A/I = F_p[T]/(h) by T -> g, so h is the minimal polynomial of g
        modulo I, the first monic relation among the projections pi(g^j),
        j <= dim A/I, of generator_powers; 1 for the unit ideal, A/I = 0.
        Needs A = F_p[g] and an ideal."""
        alg, pi = self.algebra, self.projection()[0]
        return _first_monic_relation(matmul(alg.generator_powers[: len(pi) + 1], pi.T, alg.field.p), alg.field)

    def generator_poly(self) -> FpPoly | None:
        """The polynomial of this ideal when the algebra's basis is the
        power basis of its stored generator, e_k = g^k, else None; decided
        once per ideal, as the basis is immutable."""
        return self._generator_poly

    @cached_property
    def _generator_poly(self) -> FpPoly | None:
        alg = self.algebra
        if alg.generator is None or not np.array_equal(alg.generator_powers[:-1], np.eye(alg.dim, dtype=np.int64)):
            return None
        return self.polynomial

    def to_json(self) -> list:
        return self.basis.tolist()


def tensor_algebra(a: SCAlgebra, b: SCAlgebra) -> SCAlgebra:
    """A (x) B with basis pairs ordered (i,j) -> i*dim(B)+j, matching kron."""
    if a.field.p != b.field.p:
        raise ValueError("tensor factors must share the base field")
    n, m = a.dim, b.dim
    mul = npmod(np.einsum("ikr,jls->ijklrs", a.mul, b.mul), a.field.p).reshape(n * m, n * m, n * m)
    unit = np.kron(a.unit, b.unit) % a.field.p
    names = [f"{x}|{y}" for x in a.basis for y in b.basis]
    return SCAlgebra(a.field, names, mul, unit)


def quotient_algebra(alg: SCAlgebra, ideal: IdealSubspace) -> tuple[SCAlgebra, np.ndarray]:
    """A/I on the free coordinates, with pi = IdealSubspace.projection; for
    Hopf quotients only: a point's residue field is its resmap, no algebra."""
    p = alg.field.p
    if ideal.is_unit_ideal():
        raise ValueError("unit ideal: quotient would be the zero ring")
    if not ideal.is_absorbing():
        raise ValueError("subspace is not an ideal")
    pi, free = ideal.projection()
    d = len(free)
    # e_free[i] * e_free[j], projected
    mul = matmul(alg.mul[free][:, free].reshape(d * d, alg.dim), pi.T, p).reshape(d, d, d)
    unit = matmul(pi, alg.unit, p)
    gen = None if alg.generator is None else matmul(pi, alg.generator, p)
    names = [alg.basis[c] for c in free]
    quo = SCAlgebra(alg.field, names, mul, unit, generator=gen)
    return quo, pi


@lru_cache(maxsize=None)
def field_algebra(p: int, m: int) -> tuple[SCAlgebra, np.ndarray]:
    """F_{p^m} = F_p[T]/(find_irreducible(p, m)) on its power basis, with the
    matrix of its Frobenius x -> x^p. Elements of F_{p^m} are coordinate
    vectors in this algebra."""
    fq = monogenic_algebra(PrimeField(p), find_irreducible(p, m))
    return fq, fq.frobenius


@lru_cache(maxsize=None)
def _subfield(p: int, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The elements of Ker(Frob^d - 1) in field_algebra(p, m), F_{p^d} when d
    divides m, one per row in lexicographic order of their coordinates, with
    their multiplication matrices: row j of mats[b] is elems[b] * e_j."""
    fq, frob = field_algebra(p, m)
    frob_d = np.eye(m, dtype=np.int64)
    for _ in range(d):
        frob_d = matmul(frob, frob_d, p)
    basis = nullspace(npmod(frob_d - np.eye(m, dtype=np.int64), p), p)
    elems = matmul(enumerate_vectors(p, basis.shape[0]), basis, p)
    elems = elems[np.lexsort(elems.T[::-1])]
    mats = fq.mul_matrices(elems)
    elems.setflags(write=False)
    mats.setflags(write=False)
    return elems, mats


@lru_cache(maxsize=None)
def field_roots(poly: FpPoly, m: int) -> np.ndarray:
    """The d = deg(poly) roots of an irreducible poly in field_algebra(p, m),
    one per row in lexicographic order of their coordinates. They lie in the
    subfield F_{p^d}, so poly is evaluated by batched Horner on its p^d
    elements only, when d > 1. ValueError unless d divides m and the roots
    are the d Frobenius conjugates of one element, as they are for an
    irreducible poly."""
    p, d = poly.field.p, poly.degree
    if d < 1 or m % d:
        raise ValueError(f"{poly} has no roots in F_{p ** m}: its degree must divide {m}")
    fq, frob = field_algebra(p, m)
    if d == 1:  # c_0 + c_1 T has the one root -c_0 / c_1, read off with no scan of F_p
        roots = (-poly.coeffs[0] * poly.field.inv(poly.coeffs[1]) % p * fq.unit)[None]
    else:
        elems, mats = _subfield(p, m, d)
        acc = np.zeros_like(elems)
        for c in reversed(poly.coeffs):
            acc = npmod(np.einsum("bj,bjk->bk", acc, mats) + c * fq.unit, p)
        roots = elems[~acc.any(axis=1)]
    if len(roots) != d:
        raise ValueError(f"{poly} has {len(roots)} roots in F_{p ** d}, not {d}: it is not irreducible")
    conj = roots[0]
    for _ in range(d - 1):
        conj = matmul(frob, conj, p)
        if (conj == roots[0]).all():
            raise ValueError(f"{poly} is not irreducible: its roots lie in a proper subfield of F_{p ** d}")
    roots.setflags(write=False)
    return roots


class OrbitClassifier:
    """The Galois-orbit engine in one field F_{p^N}: points of a law over
    F_{p^N}, classified into Frobenius orbits. A value is an int64 array
    whose last axis holds coordinates in field_algebra(p, N): a root on the
    line, a hom A -> F_{p^N} (one row per basis vector) for Hopf data.
    Frobenius acts as value @ frob^T whatever the shape. carry(pt) gives an
    input point its carried value, law(a, bs) combines a value with a stack
    of values, and a value outside every known orbit is the new point
    namer(value), which carries it, or with no namer stays unclassified
    (None). A dict maps the bytes of every conjugate of a carried value to
    its point, so each orbit costs one namer call.

    f*g is the orbits of a⋆Frob^j(b), a and b the carried values, for j <
    gcd(deg f, deg g). Frob(a⋆b) = Frob(a)⋆Frob(b) and [Frob c] = [c], and
    Frob^(deg f) fixes a and moves Frob^j(b) to Frob^(j + deg f)(b), so
    these meet the orbit of a'⋆b' for every conjugate a' of a and b' of b."""

    def __init__(self, p: int, n: int, law: Callable, carry: Callable, namer: Callable | None = None):
        self.p, self.frob = p, field_algebra(p, n)[1]
        self.law, self.carry, self.namer = law, carry, namer
        self.points: list = []
        self.conjugates: list[np.ndarray] = []  # [k][j] = Frob^j of point k's carried value
        self.index: dict = {}
        self.by_value: dict[bytes, int] = {}
        self._keys: list[tuple] = []

    def register(self, pt, value: np.ndarray) -> int:
        if pt in self.index:
            raise RuntimeError(f"{pt} is registered, but not at the conjugates of {value.tolist()}")
        conj = [value]
        for _ in range(pt.degree - 1):
            conj.append(matmul(conj[-1], self.frob.T, self.p))
        k = len(self.points)
        self.points.append(pt)
        self.conjugates.append(np.array(conj))
        self._keys.append(pt.sort_key())
        self.index[pt] = k
        self.by_value.update((c.tobytes(), k) for c in conj)
        return k

    def point_index(self, pt) -> int:
        k = self.index.get(pt)
        return self.register(pt, self.carry(pt)) if k is None else k

    def row(self, i: int, js) -> list[tuple[int, ...] | None]:
        """f*g for the point f at index i and each point g at an index in js,
        as point indices in sort_key order; None where a value stays
        unclassified. No product is kept: one law call takes the carried
        value of f against the stacked conjugates of every g, whose values
        are then classified in turn, so a new orbit is named once."""
        if not js:
            return []
        counts = [gcd(self.points[i].degree, self.points[j].degree) for j in js]
        stack = np.concatenate([self.conjugates[j][:c] for j, c in zip(js, counts)])
        ks = []
        for val in self.law(self.conjugates[i][0], stack):
            k = self.by_value.get(val.tobytes())
            ks.append(self.register(self.namer(val), val) if k is None and self.namer is not None else k)
        sets = [set(ks[end - c : end]) for c, end in zip(counts, np.cumsum(counts))]
        return [None if None in found else tuple(sorted(found, key=self._keys.__getitem__)) for found in sets]


def nilradical(alg: SCAlgebra) -> IdealSubspace:
    """Kernel of the F_p-linear map x -> x^(p^m) with p^m >= dim."""
    return IdealSubspace(alg, nullspace(alg.nil_frobenius, alg.field.p))


@dataclass(eq=False)
class PrimePoint:
    """A maximal (= prime) ideal with its residue-field data: the K-valued
    point of the spectrum, with resmap the (degree x dim) matrix of the
    residue map, the ideal's projection: no residue algebra is built. And
    idempotent is the primitive idempotent of A outside the ideal, the unit
    of A's local factor here: the ideal is the x with idempotent * x
    nilpotent. Points compare by identity; one object per point."""

    ideal: IdealSubspace
    degree: int
    resmap: np.ndarray
    idempotent: np.ndarray
    label: str
    index: int = dc_field(default=-1)

    def k_value(self, x):
        """The K-value at x, 0 iff x lies in the kernel, else 1; for a stack
        of elements, one per row, the values as a bool array from one product
        with the residue map."""
        hit = matmul(npmod(np.atleast_2d(x), self.ideal.algebra.field.p), self.resmap.T, self.ideal.algebra.field.p).any(axis=1)
        return hit if np.ndim(x) == 2 else int(hit[0])

    def sort_key(self) -> tuple:
        return (self.degree,) + self.ideal.sort_key()

    def __repr__(self) -> str:
        return f"PrimePoint({self.label}, deg={self.degree})"


def maximal_spectrum(alg: SCAlgebra) -> list[PrimePoint]:
    """All maximal ideals with residue data, ordered by
    (residue degree, lexicographic echelon basis), resmap the projection.

    Ker(x -> x^p - x) is spanned by the primitive idempotents of A: in a
    local factor, x^p = x makes x = a + n with a in F_p and n nilpotent, and
    then n^p = n forces n = 0. So splitting that space returns each e_phi
    itself, and m_phi = {x : e_phi x nilpotent} is the kernel of
    x -> e_phi x^(p^m) = (e_phi x)^(p^m), that is of L_(e_phi) @ nil_frobenius.

    Two shortcuts keep the split exact and take at most r - 1 minimal
    polynomials for r points. The fixed part eF of an idempotent e is
    F_p^k, k the number of primitive idempotents under e, so u·e is either
    c·e, whose minimal polynomial x - c splits nothing, or has at least two
    roots and splits e; c = (u·e)_j / e_j at e's first nonzero coordinate j.
    And r orthogonal nonzero idempotents in F = F_p^r are the primitive
    ones, so the split stops once it has dim F of them. Each visited fixed
    vector u forms one multiplication matrix L_u, which gives u·e for every
    current e. A split of e reads everything off the r + 1 Krylov rows
    e·(ue)^j (k <= r roots, so they are dependent): the minimal polynomial
    m of ue in eA, and for each root a the primitive idempotent
    q_a(ue)·e / q_a(a), q_a = m / (T - a), one product of q_a's coefficient
    row with the rows."""
    if alg._spectrum is not None:
        return alg._spectrum
    p = alg.field.p
    fixed = nullspace(npmod(alg.frobenius - np.eye(alg.dim, dtype=np.int64), p), p)
    r = fixed.shape[0]

    idems = [alg.unit.copy()]
    for u in fixed:
        if len(idems) == r:
            break
        lu = alg.mul_matrices(u[None])[0]  # x @ lu = u * x
        refined = []
        for e, ue in zip(idems, matmul(np.array(idems), lu, p)):
            j = np.flatnonzero(e)[0]
            c = int(ue[j]) * alg.field.inv(int(e[j])) % p
            if not npmod(ue - c * e, p).any():
                refined.append(e)
                continue
            pows = alg.powers(ue, e, r + 1)
            m = _first_monic_relation(pows, alg.field)
            roots = [a for a in range(p) if m.eval(a) == 0]
            if len(roots) != m.degree:
                raise RuntimeError("Frobenius-fixed element has a non-split minimal polynomial")
            for a in roots:
                q = m // FpPoly.make(alg.field, (-a, 1))
                refined.append(matmul(np.array(q.coeffs), pows[: m.degree], p) * alg.field.inv(q.eval(a)) % p)
        idems = refined
    if len(idems) != r:
        raise RuntimeError("idempotent splitting did not reach the full fixed space")

    points = []
    for e in idems:
        e.setflags(write=False)
        m_ideal = IdealSubspace(alg, nullspace(matmul(alg.left_mul_matrix(e), alg.nil_frobenius, p), p))
        if m_ideal.is_unit_ideal() or not m_ideal.is_absorbing():
            raise RuntimeError("the kernel at a primitive idempotent is not a proper ideal")
        if alg.generator is not None:
            label = f"({m_ideal.polynomial})"
        else:
            label = "(ker:" + ";".join(",".join(map(str, row)) for row in m_ideal.basis.tolist()) + ")"
        points.append(PrimePoint(m_ideal, alg.dim - m_ideal.dim, m_ideal.projection()[0], e, label))
    points.sort(key=PrimePoint.sort_key)
    for i, pt in enumerate(points):
        pt.index = i
    alg._spectrum = points
    return points
