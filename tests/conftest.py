import operator
import random
import sys
from functools import lru_cache
from itertools import permutations, product
from math import gcd, lcm
from unittest import mock

import numpy as np
import pytest

from hyperspec import linalg, specops as ops
from hyperspec.algkernel import (
    IdealSubspace,
    PrimePoint,
    SCAlgebra,
    field_algebra,
    field_roots,
    maximal_spectrum,
    nilradical,
    quotient_algebra,
    tensor_algebra,
)
from hyperspec.galoisline import (
    ADDITIVE,
    LinePoint,
    definitional_hyperop,
    line_antipode,
    line_identity,
    line_points,
    require_line_size,
)
from hyperspec.gfarith import FpPoly, PrimeField, _first_monic_relation, minimal_polynomial, prime_power
from hyperspec.hopfkernel import HopfData, hopf_quotient, parse_builtin
from hyperspec.hyperkernel import CheckResult, LawReport, check_hypergroup, check_hyperring
from hyperspec.linalg import (
    enumerate_vectors,
    matmul,
    npmod,
    nullspace,
    reduce_rows,
    require_int64_sum,
    rref,
)


def unvalidated_algebra(field, basis, mul, unit, generator=None):
    """An SCAlgebra built with SCAlgebra._validate patched out: for the
    tests that need an algebra its checks would reject or overflow on."""
    with mock.patch.object(SCAlgebra, "_validate", lambda self: None):
        return SCAlgebra(field, basis, mul, unit, generator)


def power(alg, v, e):
    """v^e by square-and-multiply, one SCAlgebra.mul_by per step: the
    oracle for SCAlgebra.powers and the Frobenius, whose exponents run
    through Krylov sequences and FpPoly.pow_mod instead."""
    base, out = npmod(v, alg.field.p), alg.unit.copy()
    while e:
        if e & 1:
            out = alg.mul_by(base, out[None])[0]
        e >>= 1
        if e:
            base = alg.mul_by(base, base[None])[0]
    return out


def associator_by_basis_triples(mul, p):
    """[i, j, k]: whether (e_i e_j) e_k != e_i (e_j e_k), over every basis
    triple by the n^5 contraction SCAlgebra._validate made before it
    checked associativity on algebra generators; kept as its oracle."""
    mul = npmod(mul, p)
    left = np.einsum("ijl,lkm->ijkm", mul, mul)
    right = np.einsum("jkl,ilm->ijkm", mul, mul)
    return npmod(left - right, p).any(axis=3)


def validation_error_by_basis_triples(field, mul, unit, generator=None):
    """The ValueError message SCAlgebra's construction checks give when
    each is made on every basis vector and triple, in _validate's order
    (commutativity, the unit, associativity, the generator), or None. The
    associativity message names the first failing triple in index order;
    the generator's span is the rank of its powers 1, g, ..., g^(n-1)."""
    p = field.p
    mul, unit = npmod(mul, p), npmod(unit, p)
    n = len(unit)
    if (mul != mul.transpose(1, 0, 2)).any():
        return "multiplication is not commutative"
    if (npmod(np.einsum("i,ijk->jk", unit, mul), p) != np.eye(n, dtype=np.int64)).any():
        return "declared unit is not a multiplicative identity"
    bad = np.argwhere(associator_by_basis_triples(mul, p))
    if len(bad):
        return "multiplication is not associative at basis triple ({},{},{})".format(*bad[0])
    if generator is not None:
        pows = [unit]
        for _ in range(n - 1):
            pows.append(npmod(np.einsum("i,j,ijk->k", pows[-1], npmod(generator, p), mul), p))
        d = len(rref(np.array(pows), p)[1])
        if d < n:
            return f"algebra 'generator' does not generate the algebra: its powers span {d} of {n} dimensions"
    return None


def rref_rowloop(mat, p):
    """The numpy row-loop RREF that linalg.rref replaced, kept as its oracle:
    two numpy calls per (pivot, nonzero row) pair, in int64."""
    a = npmod(np.atleast_2d(np.asarray(mat, dtype=np.int64)).copy(), p)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = npmod(a[r] * pow(int(a[r, c]), p - 2, p), p)
        other = np.nonzero(a[:, c])[0]
        for j in other:
            if j != r:
                a[j] = npmod(a[j] - a[j, c] * a[r], p)
        pivots.append(c)
        r += 1
    return a[:r].copy(), pivots


def batch_tensor_rank_class(t, p):
    """Classify each (a x b) matrix in a batch: 0 zero, 1 rank one, 2 rank >= 2.

    t has shape (N, a, b). Only the 0 / 1 / >=2 trichotomy is decided, by
    the 2x2 minor criterion: the oracle of specops.forced_value, which
    counts RREF pivots instead.
    """
    t = npmod(t, p)
    n, a, b = t.shape
    out = np.zeros(n, dtype=np.int64)
    nonzero = t.reshape(n, -1).any(axis=1)
    out[nonzero] = 1
    if a >= 2 and b >= 2:
        ge2 = np.zeros(n, dtype=bool)
        for r1 in range(a):
            for r2 in range(r1 + 1, a):
                for c1 in range(b):
                    for c2 in range(c1 + 1, b):
                        det = npmod(t[:, r1, c1] * t[:, r2, c2] - t[:, r1, c2] * t[:, r2, c1], p)
                        ge2 |= det != 0
        out[ge2 & nonzero] = 2
    return out


def span_rank_classes(span, a, b, p):
    """Every combination c·span of k independent rows of F_p^(a*b), each read
    as an a x b matrix: the rank scan the lemma f*g = V(Ker Q_fg) makes
    unnecessary in the library, kept as its oracle.

    Returns (coeffs, cls): all c in F_p^k in enumerate_vectors order, and the
    rank class of c·span as batch_tensor_rank_class gives it. Raises
    RuntimeError unless c = 0 is the only combination of rank 0, which is
    the independence the callers' spans must have.
    """
    coeffs = enumerate_vectors(p, span.shape[0])
    cls = batch_tensor_rank_class(matmul(coeffs, span, p).reshape(-1, a, b), p)
    if int((cls == 0).sum()) != 1:
        raise RuntimeError("rank-0 combinations beyond c = 0: the spanning rows are dependent")
    return coeffs, cls


def nullspace_twopass(mat, p):
    """The two-elimination nullspace that linalg.nullspace replaced, kept as
    its oracle: one basis vector per free column of rref(mat), then a second
    rref to bring those vectors into canonical form."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    n = a.shape[1]
    r, pivots = rref(a, p)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return np.zeros((0, n), dtype=np.int64)
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(r[i, c])) % p
    return rref(basis, p)[0]


def preimage(mat, sub_basis, p):
    """RREF basis of {x : mat @ x in rowspan(sub_basis)}: the kernel of the
    checks of the subspace composed with mat."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    checks = nullspace(sub_basis, p) if sub_basis.shape[0] else np.eye(a.shape[0], dtype=np.int64)
    if checks.shape[0] == 0:
        return rref(np.eye(a.shape[1], dtype=np.int64), p)[0]
    return nullspace(matmul(checks, a, p), p)


def point_by_ideal(h, ideal_basis):
    """The spectrum point whose kernel is the span of ideal_basis, found by
    comparing echelon bases with every point's: the ideal-based lookup that
    specops' idempotent reading replaced (specops._field_points), kept as
    its oracle. Raises ValueError if no point has that kernel."""
    target = rref(ideal_basis, h.algebra.field.p)[0]
    for kp in ops.kpoints(h):
        if kp.ideal.basis.shape == target.shape and (kp.ideal.basis == target).all():
            return kp
    raise ValueError("no spectrum point has the given kernel")


def identity_point_by_ideal(h):
    """The point whose kernel is Ker(counit), by the ideal-based lookup."""
    return point_by_ideal(h, nullspace(h.counit, h.algebra.field.p))


def antipode_permutation_by_ideal(h):
    """The index of the point with kernel S(Ker f) for each point f, by the
    ideal-based lookup over the images of f's kernel basis under S."""
    p = h.algebra.field.p
    return [point_by_ideal(h, matmul(f.ideal.basis, h.antipode.T, p)).index for f in ops.kpoints(h)]


def tilde_by_preimage(h, hq, pi):
    """descend_and_compare's tilde map, psi -> pi^(-1)(Ker psi), as the
    index of that point of A for each point psi of the quotient hq."""
    p = h.algebra.field.p
    return [point_by_ideal(h, preimage(pi, psi.ideal.basis, p)).index for psi in ops.kpoints(hq)]


def carried_homs(h, e):
    """The orbit engine's carried homs A -> F_{p^e}, one per point whose
    degree divides e, each as its (e, dim) matrix."""
    return [conj[0].T for conj in ops._orbit_fill(h, e)[0].conjugates]


def point_maps(h):
    """The point maps specops reads off the idempotents: the identity point,
    the antipode permutation, and the point of each carried hom at q = p,
    the kernel map of classical_comparison."""
    homs = carried_homs(h, 1)
    return {
        "identity": ops.identity_point(h).index,
        "antipode": list(ops.antipode_permutation(h)),
        "classical": ops._field_points(h, np.vstack(homs), np.arange(len(homs))).tolist(),
    }


def point_maps_by_ideal(h):
    """point_maps by the ideal-based lookup, from kernel and image bases."""
    p = h.algebra.field.p
    return {
        "identity": identity_point_by_ideal(h).index,
        "antipode": antipode_permutation_by_ideal(h),
        "classical": [point_by_ideal(h, nullspace(hom, p)).index for hom in carried_homs(h, 1)],
    }


def ideal_is_prime_by_quotient(alg, ideal):
    """The quotient-algebra primality test, the oracle for spectrum
    membership and for the verdict |f*g| = 1: build A/I, then I is prime iff
    A/I is nonzero, its nilradical is zero and its Frobenius-fixed space is
    a line."""
    if ideal.is_unit_ideal():
        return False
    quo, _ = quotient_algebra(alg, ideal)
    if nilradical(quo).dim != 0:
        return False
    p = alg.field.p
    return nullspace_twopass(npmod(quo.frobenius - np.eye(quo.dim, dtype=np.int64), p), p).shape[0] == 1


def maximal_spectrum_by_reduced_quotient(alg):
    """maximal_spectrum as it was before it split A itself, kept as its
    oracle: split the reduced quotient A_red along its Frobenius fixed
    space, take each maximal ideal as the preimage of one of A_red, and lift
    each idempotent e of A_red to nil_frobenius @ x, x any preimage of e.
    Returns fresh points and leaves alg's cached spectrum alone."""
    p = alg.field.p
    nil = nilradical(alg)
    red, pi_red = quotient_algebra(alg, nil)
    fixed = nullspace(npmod(red.frobenius - np.eye(red.dim, dtype=np.int64), p), p)

    idems = [red.unit.copy()]
    for u in fixed:
        refined = []
        for e in idems:
            ue = red.mul_by(u, e[None])[0]
            m = _first_monic_relation(red.powers(ue, e, red.dim + 1), red.field)
            roots = [a for a in range(p) if m.eval(a) == 0]
            assert len(roots) == m.degree, "Frobenius-fixed element has a non-split minimal polynomial"
            if len(roots) <= 1:
                refined.append(e)
                continue
            for a in roots:
                f = e.copy()
                for b in roots:
                    if b == a:
                        continue
                    f = red.mul_by(npmod(ue - b * e, p), f[None])[0]
                    f = npmod(f * alg.field.inv(a - b), p)
                refined.append(f)
        idems = refined
    assert len(idems) == fixed.shape[0], "idempotent splitting did not reach the full fixed space"

    lifts = np.zeros((len(idems), alg.dim), dtype=np.int64)
    lifts[:, nil.projection()[1]] = idems  # pi_red is the identity on the free coordinates
    lifts = matmul(lifts, alg.nil_frobenius.T, p)
    points = []
    for e, lift in zip(idems, lifts):
        mbar = rref(red.left_mul_matrix(npmod(red.unit - e, p)).T, p)[0]
        m_ideal = IdealSubspace(alg, preimage(pi_red, mbar, p))
        residue, resmap = quotient_algebra(alg, m_ideal)
        points.append(PrimePoint(m_ideal, residue.dim, resmap, lift, label_by_residue(residue, m_ideal)))
    points.sort(key=PrimePoint.sort_key)
    for i, pt in enumerate(points):
        pt.index = i
    return points


def residue_field(pt):
    """A point's residue field A/m as its own algebra, built by
    quotient_algebra: the library reads it only through pt.resmap, a
    projection of A, so a test that needs the field's structure tensor,
    unit or generator builds it here."""
    return quotient_algebra(pt.ideal.algebra, pt.ideal)[0]


def count_algebra_constructions(monkeypatch):
    """A one-entry list that counts every SCAlgebra constructed from here
    on, for the rest of the test."""
    built = [0]
    init = SCAlgebra.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SCAlgebra, "__init__", counted)
    return built


def generator_less(h):
    """h with the same structure maps on an algebra that stores no
    generator."""
    alg = h.algebra
    return HopfData(SCAlgebra(alg.field, alg.basis, alg.mul, alg.unit), h.delta, h.counit, h.antipode)


def label_by_residue(residue, ideal):
    """A point's label as it was read before IdealSubspace.polynomial, kept
    as its oracle: the minimal polynomial of the residue field's own
    generator, in that separately built algebra, else the ideal's
    coordinates."""
    if residue.generator is not None:
        return f"({minimal_polynomial(residue.generator, residue)})"
    return "(ker:" + ";".join(",".join(str(int(c)) for c in row) for row in ideal.basis) + ")"


def gcd_cascade(ideal):
    """generator_poly as it was read before IdealSubspace.polynomial, with
    no early stop, kept as its oracle on power bases: the gcd of the modulus,
    read from g * e_(n-1), with every basis row taken as a polynomial."""
    alg = ideal.algebra
    top = alg.mul_by(alg.generator, np.eye(alg.dim, dtype=np.int64)[alg.dim - 1 :])[0]
    g = FpPoly.make(alg.field, [(-int(c)) % alg.field.p for c in top] + [1])
    for row in ideal.basis:
        g = g.gcd(FpPoly.make(alg.field, [int(c) for c in row]))
    return g.monic()


def spectrum_fields(points):
    """Every field of each point, in point order, as plain data."""
    return [
        (pt.index, pt.label, pt.degree, pt.ideal.to_json(), pt.resmap.tolist(), pt.idempotent.tolist())
        for pt in points
    ]


# the default verify suite, F_3^{S_3}, the hyperop algebras of the
# benchmark's small-queries workload, and non-reduced algebras, where the
# primitive idempotent e_phi is not the only preimage of its image in A_red
LEMMA_ALGEBRAS = ["mu:3:2", "mu:5:4", "addetale:3:1", "addetale:3:2", "fs3", "mu:7:6", "mu:3:8", "mu:5:8", "mu:3:10"]
NON_REDUCED = ["mu:3:6", "mu:3:9", "mu:3:12", "mu:5:10", "mu:7:14", "mu:3:24", "mu:7:28"]
LEMMA_ALGEBRAS += NON_REDUCED


def assoc_sides_einsum(cube):
    """(a*b)*c and a*(b*c) as dense n^4 boolean cubes [a, b, c, d], by
    uint16 einsum contractions: the associativity kernel that the packed
    member-set unions of hyperkernel replaced, kept as their oracle."""
    u = cube.astype(np.uint16)
    left = np.einsum("abx,xcd->abcd", u, u) > 0
    right = np.einsum("bcx,axd->abcd", u, u) > 0
    return left, right


def members_by_argsort(cube):
    """M[a, b, r], the r-th member of a*b in a bool cube [a, b, x], or
    cube.shape[2] past its last member, with max(1, largest |a*b|) slots,
    by a stable argsort of each negated cell: the construction that
    hyperkernel._members' one np.nonzero replaced, kept as its oracle."""
    n = cube.shape[2]
    counts = cube.sum(axis=2)
    m = max(1, int(counts.max()))
    order = np.argsort(~cube, axis=2, kind="stable")[:, :, :m]
    return np.where(np.arange(m) < counts[:, :, None], order, n)


def member_cube(cells, xs, shape):
    """The bool cube of the given shape [a, b, x] that is true at the
    members xs[k] of the flat cells a * shape[1] + b = cells[k], by one
    scatter: the cubes that hyperkernel._packed_members packs without
    forming, kept as its oracle through hyperkernel._packed."""
    cube = np.zeros(shape[0] * shape[1] * shape[2], dtype=bool)
    cube[cells * shape[2] + xs] = True
    return cube.reshape(shape)


def distributivity_cubes_einsum(r):
    """(a*(b+c), a*b + a*c, (a+b)*c, a*c + b*c) as dense n^4 boolean cubes
    [a, b, c, d], the left sides by einsum with the one-hot cube of the
    multiplication: the distributivity kernel hyperkernel replaced."""
    n = len(r.carrier)
    mu = r.mul
    addc = r.add.cube
    u = addc.astype(np.uint16)
    monehot = np.zeros((n, n, n), dtype=np.uint16)
    ar = np.arange(n)
    for a in range(n):
        monehot[a, ar, mu[a]] = 1
    lhs_left = np.einsum("bcx,axd->abcd", u, monehot) > 0
    rhs_left = addc[np.broadcast_to(mu[:, :, None], (n, n, n)), np.broadcast_to(mu[:, None, :], (n, n, n))]
    lhs_right = np.einsum("abx,xcd->abcd", u, monehot) > 0
    rhs_right = addc[np.broadcast_to(mu[:, None, :], (n, n, n)), np.broadcast_to(mu[None, :, :], (n, n, n))]
    return lhs_left, rhs_left, lhs_right, rhs_right


def hypergroup_report_by_einsum(t, mode):
    """check_hypergroup's report with its associativity entry decided, and
    its witness built, from the einsum cubes as the library did before."""
    names = t.carrier
    left, right = assoc_sides_einsum(t.cube)
    rep = check_hypergroup(t, mode)
    if (left == right).all():
        entry = CheckResult(True)
    else:
        a, b, c = (int(v) for v in np.argwhere((left != right).any(axis=3))[0])
        entry = CheckResult(False, (
            names[a],
            names[b],
            names[c],
            sorted(names[i] for i in np.nonzero(left[a, b, c])[0]),
            sorted(names[i] for i in np.nonzero(right[a, b, c])[0]),
        ))
    rep.checks["associativity"] = entry
    return rep


def hyperring_report_by_einsum(r):
    """check_hyperring's report with its distributivity entry decided from
    the einsum cubes. Its additive entry reads only the canonical
    hypergroup report, which hypergroup_report_by_einsum covers."""
    names = r.carrier
    lhs_left, rhs_left, lhs_right, rhs_right = distributivity_cubes_einsum(r)
    rep = check_hyperring(r)
    entry = CheckResult(True)
    for lhs, rhs, side in ((lhs_left, rhs_left, "left"), (lhs_right, rhs_right, "right")):
        if not (lhs == rhs).all():
            a, b, c = (int(v) for v in np.argwhere((lhs != rhs).any(axis=3))[0])
            entry = CheckResult(False, (names[a], names[b], names[c], side))
            break
    rep.checks["distributivity"] = entry
    return rep


def triple_sides(h, f, g, k):
    """(f*g)*k and f*(g*k) as member index sets, straight from hyperop."""
    left = frozenset(m.index for s in ops.hyperop(h, f, g).members for m in ops.hyperop(h, s, k).members)
    right = frozenset(m.index for s in ops.hyperop(h, g, k).members for m in ops.hyperop(h, f, s).members)
    return left, right


def triple_ideal_points_by_rowspan(res):
    """The points killing the triple forced-zero ideal Ker T of a
    weak_assoc_check result, as WeakAssocResult.triple_ideal_points first
    decided them, kept as its oracle: phi kills Ker T iff the rows of pi_phi
    lie in the row space of T, so one echelon form of T decides every point."""
    p = res.h.algebra.field.p
    basis, pivots = rref(res.triple_map, p)
    return tuple(kp for kp in ops.kpoints(res.h) if not reduce_rows(kp.resmap, basis, pivots, p).any())


def weak_assoc_by_triples(h):
    """The per-triple loop that specops.weak_assoc_all replaced, kept as its
    oracle: both sides of every triple from hyperop, with no memo."""
    rep = LawReport()
    pts = ops.kpoints(h)
    bad = None
    fully_associative = True
    for f, g, k in product(pts, repeat=3):
        left, right = triple_sides(h, f, g, k)
        if not left & right:
            bad = (f.label, g.label, k.label)
            break
        if left != right:
            fully_associative = False
    rep.add("weak_associativity", bad is None, bad or (f"{len(pts) ** 3} triples",))
    rep.add("fully_associative", fully_associative, (), report_only=True)
    return rep


def member_indices(h, f, g):
    return frozenset(m.index for m in ops.hyperop(h, f, g).members)


def nonempty_by_pairs(h):
    """The per-pair loop that specops.nonempty_check replaced, kept as its
    oracle, as are the three loops below: each reads hyperop directly."""
    rep = LawReport()
    bad = None
    count = 0
    for f, g in product(ops.kpoints(h), repeat=2):
        count += 1
        if not ops.hyperop(h, f, g).members:
            bad = (f.label, g.label)
            break
    rep.add("nonempty", bad is None, bad or (f"{count} pairs",))
    return rep


def identity_law_by_points(h):
    rep = LawReport()
    e = identity_point_by_ideal(h)
    bad = None
    for f in ops.kpoints(h):
        left = ops.hyperop(h, e, f)
        right = ops.hyperop(h, f, e)
        if [m.index for m in left.members] != [f.index] or [m.index for m in right.members] != [f.index]:
            bad = (f.label, left.labels(), right.labels())
            break
    rep.add("identity_law", bad is None, bad or ())
    return rep


def inverse_law_by_points(h):
    rep = LawReport()
    e = identity_point_by_ideal(h)
    pts = ops.kpoints(h)
    perm = antipode_permutation_by_ideal(h)
    bad = None
    for f in pts:
        ft = pts[perm[f.index]]
        if e.index not in member_indices(h, f, ft) or e.index not in member_indices(h, ft, f):
            bad = (f.label, ft.label)
            break
    rep.add("inverse_law", bad is None, bad or ())
    return rep


def reversibility_by_triples(h):
    rep = LawReport()
    pts = ops.kpoints(h)
    perm = antipode_permutation_by_ideal(h)
    bad = None
    checked = 0
    for f, g in product(pts, repeat=2):
        fwd = member_indices(h, f, g)
        rev = member_indices(h, pts[perm[g.index]], pts[perm[f.index]])
        for phi in pts:
            checked += 1
            if (phi.index in fwd) != (perm[phi.index] in rev):
                bad = (f.label, g.label, phi.label)
                break
        if bad:
            break
    rep.add("reversibility", bad is None, bad or (f"{checked} membership pairs",))
    return rep


def descent_by_pairs(h, ideal):
    """descend_and_compare's report with its tilde map from the ideal-based
    lookup, its fixed locus from the residue maps, and its
    fixed_locus_closed and descent_equality entries from the per-pair loops
    over hyperop that its cube reads replaced."""
    rep = LawReport()
    hq, pi = hopf_quotient(h, ideal)
    p = h.algebra.field.p
    fixed = [kp for kp in ops.kpoints(h) if not (ideal.dim and npmod(kp.resmap @ ideal.basis.T, p).any())]
    fixed_ids = frozenset(kp.index for kp in fixed)
    pts = ops.kpoints(h)
    images = tilde_by_preimage(h, hq, pi)
    tilde = [pts[i] for i in images]
    rep.add("tilde_injective", len(set(images)) == len(images), tuple(sorted(images)))
    rep.add("tilde_into_fixed_locus", set(images) <= fixed_ids, tuple(sorted(set(images) - fixed_ids)))
    rep.add("tilde_bijective_onto_fixed_locus", set(images) == fixed_ids, (len(images), len(fixed_ids)))
    bad = None
    for f, g in product(fixed, repeat=2):
        if not member_indices(h, f, g) <= fixed_ids:
            bad = (f.label, g.label)
            break
    rep.add("fixed_locus_closed", bad is None, bad or ())
    bad = None
    pts_b = ops.kpoints(hq)
    for f, g in product(pts_b, repeat=2):
        lifted = frozenset(tilde[m.index].index for m in ops.hyperop(hq, f, g).members)
        up = member_indices(h, tilde[f.index], tilde[g.index])
        if lifted != up:
            bad = (f.label, g.label, sorted(lifted), sorted(up))
            break
    rep.add("descent_equality", bad is None, bad or (f"{len(pts_b) ** 2} pairs",))
    return rep


# each spectrum law that reads the hyperoperation cube, with its oracle
LAW_ORACLES = (
    (ops.nonempty_check, nonempty_by_pairs),
    (ops.identity_law_check, identity_law_by_points),
    (ops.inverse_law_check, inverse_law_by_points),
    (ops.reversibility_check, reversibility_by_triples),
    (ops.weak_assoc_all, weak_assoc_by_triples),
)


def solve(mat, rhs, p):
    """One solution of mat @ x = rhs over F_p, or None."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    b = npmod(np.asarray(rhs, dtype=np.int64).reshape(-1, 1), p)
    aug, pivots = rref(np.hstack([npmod(a, p), b]), p)
    n = a.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = aug[i, -1]
    return x


def charpoly(mat, p):
    """Characteristic polynomial of a square matrix over F_p, lowest degree first.

    Hessenberg reduction then the standard recurrence; exact over any prime field.
    """
    h = npmod(np.array(mat, dtype=np.int64, copy=True), p)
    n = h.shape[0]
    if n == 0:
        return [1]
    for c in range(n - 1):
        piv = None
        for r in range(c + 1, n):
            if h[r, c] % p:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            h[[c + 1, piv]] = h[[piv, c + 1]]
            h[:, [c + 1, piv]] = h[:, [piv, c + 1]]
        inv = pow(int(h[c + 1, c]), p - 2, p)
        for r in range(c + 2, n):
            f = int(h[r, c]) * inv % p
            if f:
                h[r] = npmod(h[r] - f * h[c + 1], p)
                h[:, c + 1] = npmod(h[:, c + 1] + f * h[:, r], p)
    # charpoly of leading k x k Hessenberg block, coefficients lowest-first
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        term = [(-int(h[k - 1, k - 1])) % p * c % p for c in polys[k - 1]]
        poly = [0] + polys[k - 1]
        poly = [(poly[i] + (term[i] if i < len(term) else 0)) % p for i in range(len(poly))]
        minor = 1
        for i in range(k - 2, -1, -1):
            minor = minor * int(h[i + 1, i]) % p
            coeff = (-int(h[i, k - 1])) % p * minor % p
            for j, c in enumerate(polys[i]):
                poly[j] = (poly[j] + coeff * c) % p
        polys.append(poly)
    return polys[n]


def presentation_value_sets_naive(h, f, g, x, r):
    """Literal enumeration of all r-term presentations of Delta(x); returns the
    set of per-presentation K-value sets. Only viable for tiny algebras."""
    alg = h.algebra
    p = alg.field.p
    n = alg.dim
    target = tuple(int(v) for v in matmul(h.delta, np.asarray(x, dtype=np.int64), p))
    elems = enumerate_vectors(p, n)
    fv = [f.k_value(u) for u in elems]
    gv = [g.k_value(u) for u in elems]
    tensors = [tuple(int(t) for t in np.kron(u, v) % p) for u in elems for v in elems]
    bits = [fv[i] & gv[j] for i in range(len(elems)) for j in range(len(elems))]
    found: set[frozenset[int]] = set()
    m = len(elems) * len(elems)
    for combo in product(range(m), repeat=r):
        total = [0] * (n * n)
        cnt = 0
        for c in combo:
            t = tensors[c]
            for i in range(n * n):
                total[i] = (total[i] + t[i]) % p
            cnt += bits[c]
        if tuple(total) == target:
            found.add(frozenset({0} if cnt == 0 else ({1} if cnt == 1 else {0, 1})))
    return found


@lru_cache(maxsize=None)
def galois_hyperop_scanned(p, law, f, g):
    """The Galois engine that galoisline.OrbitClassifier replaced, kept as its
    oracle: each pair works in its own field F_{p^m}, m = lcm(deg f, deg g),
    scans that field's subfields for a root of f and of g, and takes one
    minimal polynomial per value of gcd(deg f, deg g) conjugates."""
    m = lcm(f.degree, g.degree)
    fq, frob = field_algebra(p, m)
    alpha = field_roots(f.poly, m)[0]
    conj = field_roots(g.poly, m)[0]
    out = set()
    for _ in range(gcd(f.degree, g.degree)):
        val = npmod(alpha + conj, p) if law == ADDITIVE else fq.mul_by(alpha, conj[None])[0]
        out.add(LinePoint(law, minimal_polynomial(val, fq)))
        conj = matmul(frob, conj, p)
    return tuple(sorted(out, key=LinePoint.sort_key))


def crosscheck_by_triples(p, law, max_degree):
    """galoisline.crosscheck as it was before its ambient field, kept as its
    oracle: galois_hyperop_scanned on every pair, the laws by per-pair calls,
    and associativity by a loop over triples with frozenset unions memoized
    per (member tuple, point), skipping and counting triples whose unions
    would need a field beyond F_{p^(max_degree^2)}. Returns the same report
    document."""
    require_line_size(p, law, max_degree)
    pts = line_points(p, law, max_degree)
    e = line_identity(p, law)
    op = lambda f, g: galois_hyperop_scanned(p, law, f, g)

    galois = {(f, g): op(f, g) for f, g in product(pts, repeat=2)}
    pairs = []
    for (f, g), gal in galois.items():
        definitional = definitional_hyperop(p, law, f, g)
        pairs.append({
            "f": f.poly.to_list(),
            "g": g.poly.to_list(),
            "galois": [q.poly.to_list() for q in gal],
            "definitional": [q.poly.to_list() for q in definitional],
            "agree": gal == definitional,
        })
    degree_ok = all(lcm(f.degree, g.degree) % q.degree == 0 for (f, g), gal in galois.items() for q in gal)

    identity_ok = all(op(e, f) == (f,) and op(f, e) == (f,) for f in pts)
    anti = {x: line_antipode(x) for x in {*pts, *(x for gal in galois.values() for x in gal)}}
    antipode_ok = all(e in op(f, anti[f]) and e in op(anti[f], f) for f in pts)
    reversibility_ok = all(
        tuple(sorted((anti[x] for x in gal), key=LinePoint.sort_key)) == op(anti[g], anti[f])
        for (f, g), gal in galois.items()
    )
    commutativity_ok = all(op(f, g) == op(g, f) for f, g in product(pts, repeat=2))

    bound = max_degree * max_degree
    n = len(pts)
    tuple_ids = {}
    pair_ids = [tuple_ids.setdefault(gal, len(tuple_ids)) for gal in galois.values()]  # (f, g) at f * n + g
    members = list(tuple_ids)
    needed = [[max(lcm(s.degree, x.degree) for s in m) for x in pts] for m in members]
    left, right = {}, {}
    checked = skipped = 0
    associativity_ok = True
    for i, j, l in product(range(n), repeat=3):
        fg, gk = pair_ids[i * n + j], pair_ids[j * n + l]
        if needed[fg][l] > bound or needed[gk][i] > bound:
            skipped += 1
            continue
        if (fg, l) not in left:
            left[fg, l] = frozenset(x for s in members[fg] for x in op(s, pts[l]))
        if (i, gk) not in right:
            right[i, gk] = frozenset(x for s in members[gk] for x in op(pts[i], s))
        checked += 1
        if left[fg, l] != right[i, gk]:
            associativity_ok = False
            break

    laws = {
        "identity": identity_ok,
        "antipode_inverse": antipode_ok,
        "reversibility": reversibility_ok,
        "commutativity": commutativity_ok,
    }
    return {
        "p": p,
        "law": law,
        "max_degree": max_degree,
        "pairs": pairs,
        "laws": {**laws, "associativity": {"checked": checked, "skipped": skipped, "pass": associativity_ok}},
        "degree_bound": degree_ok,
        "agree": all(r["agree"] for r in pairs) and all(laws.values()) and associativity_ok and degree_ok,
    }


def classical_points(h, q):
    """All algebra homs A -> F_q, q = p^e, as the (N, dim, e) array of the
    images of the basis vectors in field_algebra(p, e): one per embedding of
    each residue field of degree dividing e, that is per root of the
    residue generator's minimal polynomial. With classical_convolution and
    classical_comparison_by_homs, the all-pairs path that specops.orbit_cube
    replaced, kept as its oracle."""
    alg = h.algebra
    p = alg.field.p
    pe = prime_power(q)
    if pe is None or pe[0] != p:
        raise ValueError(f"{q} is not a power of the base characteristic {p}")
    e = pe[1]
    fq, _ = field_algebra(p, e)
    homs = []
    for pt in maximal_spectrum(alg):
        d = pt.degree
        if e % d != 0:
            continue
        res = residue_field(pt)
        candidates = enumerate_vectors(p, d)[1:] if res.generator is None else [res.generator]
        gen = next(v for v in candidates if minimal_polynomial(v, res).degree == d)
        gen_pows = np.zeros((d, d), dtype=np.int64)
        acc = res.unit.copy()
        for j in range(d):
            gen_pows[:, j] = acc
            acc = res.mul_by(gen, acc[None])[0]
        aug, piv = rref(np.hstack([gen_pows, pt.resmap]), p)
        assert piv[:d] == list(range(d))
        for rho in field_roots(minimal_polynomial(gen, res), e):
            rho_pows = np.array([power(fq, rho, j) for j in range(d)])
            homs.append(matmul(aug[:, d:].T, rho_pows, p))
    return np.array(homs, dtype=np.int64).reshape(-1, alg.dim, e)


def classical_convolution(h, homs):
    """(a*b)(x) = sum a(x_(1)) b(x_(2)) for every ordered pair of the
    (N, dim, e) array homs, in one 4-operand einsum: entry [a, b] is the
    convolution of homs[a] and homs[b]. Every intermediate of the greedy
    pairwise contraction is bounded by the full sum, checked first."""
    p = h.algebra.field.p
    count, n, e = homs.shape
    fq, _ = field_algebra(p, e)
    require_int64_sum(n * n * e * e, 4, p, "classical convolution")
    conv = np.einsum("rsi,arj,bsk,jkl->abil", h.delta.reshape(n, n, n), homs, homs, fq.mul, optimize="greedy")
    return npmod(conv, p)


def classical_comparison_by_homs(h, q):
    """specops.classical_comparison's report from every pair of homs: one
    kernel per hom, every convolution matched by its bytes."""
    if q < 3:
        raise ValueError("comparison needs |F_q| >= 3")
    h.ensure_verified()
    rep = LawReport()
    p = h.algebra.field.p
    homs = classical_points(h, q)
    rep.add("classical_point_count", True, (len(homs),), report_only=True)
    kernels = [point_by_ideal(h, nullspace(hom.T, p)) for hom in homs]
    images = len({kp.index for kp in kernels})
    rep.add("injective", images == len(kernels), (images, len(kernels)), report_only=(q != p))
    index = {hom.tobytes(): k for k, hom in enumerate(homs)}
    conv = classical_convolution(h, homs)
    cube = ops.hyperop_cube(h)
    bad = None
    closed = True
    for ia, ib in product(range(len(homs)), repeat=2):
        ic = index.get(conv[ia, ib].tobytes())
        if ic is None:
            closed = False
            bad = ("convolution escaped the point set", ia, ib)
            break
        if not cube[kernels[ia].index, kernels[ib].index, kernels[ic].index]:
            bad = (kernels[ia].label, kernels[ib].label, kernels[ic].label)
            break
    rep.add("convolution_closed", closed, () if closed else (bad,))
    rep.add("containment", bad is None, bad or (f"{len(homs) ** 2} pairs",))
    return rep


@pytest.fixture(scope="session")
def mu32():
    return parse_builtin("mu:3:2")


@pytest.fixture(scope="session")
def mu54():
    return parse_builtin("mu:5:4")


@pytest.fixture(scope="session")
def ae31():
    return parse_builtin("addetale:3:1")


@pytest.fixture(scope="session")
def ae32():
    return parse_builtin("addetale:3:2")


@pytest.fixture(scope="session")
def mu1312():
    return parse_builtin("mu:13:12")


def greedy_generators_by_span(alg):
    """algebra_generators by its definition, with no closure words: the
    stored generator, if any, then each basis vector outside the subalgebra
    the earlier rows generate, that subalgebra grown as a span of 1 and the
    rows so far, multiplied pairwise until the span stops growing."""
    p, n = alg.field.p, alg.dim
    gens, span = [], rref(alg.unit, p)[0]
    candidates = ([] if alg.generator is None else [alg.generator]) + list(np.eye(n, dtype=np.int64))
    for c in candidates:
        if len(rref(np.vstack([span, c]), p)[1]) == len(span):
            continue
        gens.append(c)
        grown = rref(np.vstack([span, c]), p)[0]
        while len(grown) > len(span):
            span = grown
            prods = npmod(np.einsum("ai,bj,ijk->abk", span, span, alg.mul), p).reshape(-1, n)
            grown = rref(np.vstack([span, prods]), p)[0]
    return np.array(gens, dtype=np.int64).reshape(-1, n)


def product_hopf(g, h):
    """G x H as Hopf data on A⊗B (tensor_algebra's kron order): Delta =
    (id⊗τ⊗id)∘(Delta_A⊗Delta_B), eps = eps_A⊗eps_B and S = S_A⊗S_B."""
    n, m = g.dim, h.dim
    delta = np.einsum("rsi,uvj->rusvij", g.delta.reshape(n, n, n), h.delta.reshape(m, m, m))
    return HopfData(
        tensor_algebra(g.algebra, h.algebra),
        delta.reshape((n * m) ** 2, n * m),
        np.kron(g.counit, h.counit),
        np.kron(g.antipode, h.antipode),
        name=f"({g.name})x({h.name})",
    )


@pytest.fixture(scope="session")
def suite_algebras(mu32, mu54, ae31, ae32):
    return [mu32, mu54, ae31, ae32]


@pytest.fixture(scope="session")
def fs3():
    """F_3^{S_3}, the functions on the symmetric group S_3: commutative but
    not cocommutative, Delta(d_g) = sum over ab = g of d_a ⊗ d_b on the
    basis of point indicators d_g."""
    group = list(permutations(range(3)))
    n = len(group)
    index = {g: i for i, g in enumerate(group)}
    compose = lambda a, b: tuple(a[b[x]] for x in range(3))
    mul = np.zeros((n, n, n), dtype=np.int64)
    delta = np.zeros((n * n, n), dtype=np.int64)
    antipode = np.zeros((n, n), dtype=np.int64)
    for a, g in enumerate(group):
        mul[a, a, a] = 1
        antipode[index[tuple(sorted(range(3), key=g.__getitem__))], a] = 1  # d_g -> d_(g^-1)
        for b, h in enumerate(group):
            delta[a * n + b, index[compose(g, h)]] = 1
    counit = [1 if g == (0, 1, 2) else 0 for g in group]
    alg = SCAlgebra(PrimeField(3), [f"d{i}" for i in range(n)], mul, np.ones(n, dtype=np.int64))
    return HopfData(alg, delta, counit, antipode, name="F3^S3")


# The linalg kernels the residue guard wraps, each with the number of its
# leading arguments that are operands; p is the last argument.
GUARDED_KERNELS = {"matmul": 2, "two_sided": 3, "rref": 1, "reduce_rows": 2}


def require_residues(name, p, operands):
    """Fail unless every entry of every operand lies in [0, p). A few
    entries are read as Python ints, faster than a numpy reduction there;
    more take one maximum over the entries viewed as unsigned, where a
    negative entry is 2^63 or more."""
    for x in operands:
        x = np.asarray(x, dtype=np.int64)
        if x.size <= 64:
            vals = x.ravel().tolist()
            bad = bool(vals) and (min(vals) < 0 or max(vals) >= p)
        else:
            bad = x.view(np.uint64).max() >= p
        if bad:
            raise AssertionError(f"{name} was handed an operand outside [0, {p}): entries {x.min()} .. {x.max()}")


def check_product_row(a, b, p, out, rnd):
    """Fail unless one row of out = matmul(a, b, p), drawn by the
    random.Random rnd, equals the same row of a @ b mod p in Python ints. A
    1-D operand is read as a row (a) or a column (b), and leading axes
    broadcast, as numpy's @ does."""
    a, b = np.asarray(a), np.asarray(b)
    a2, b2 = (a[None] if a.ndim == 1 else a), (b[:, None] if b.ndim == 1 else b)
    lead = () if a2.ndim == b2.ndim == 2 else np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2])
    full = out.reshape(lead + (a2.shape[-2], b2.shape[-1]))
    if full.size == 0:
        return
    idx = tuple(int(rnd.random() * s) for s in full.shape[:-1])
    if lead:
        a2, b2 = np.broadcast_to(a2, lead + a2.shape[-2:]), np.broadcast_to(b2, lead + b2.shape[-2:])
    row, cols = a2[idx].tolist(), b2[idx[:-1]].T.tolist()
    want = [sum(map(operator.mul, row, col)) % p for col in cols]
    assert full[idx].tolist() == want, f"matmul mod {p} row {idx}: {full[idx].tolist()}, Python ints give {want}"


@pytest.fixture(scope="session", autouse=True)
def residue_guard():
    """The library's reduction rule, asserted on every kernel call of the
    session: each operand of matmul, two_sided, rref, reduce_rows and
    SCAlgebra.krylov lies in [0, p), and one row of each matmul product,
    drawn by a seeded generator, equals its value in Python ints. Every
    hyperspec module's binding of a kernel is replaced, as the modules
    import the kernels by name."""
    rnd = random.Random(0)
    krylov = SCAlgebra.krylov

    def guard(name, fn, k):
        def guarded(*args):
            require_residues(name, args[-1], args[:k])
            out = fn(*args)
            if name == "matmul":
                check_product_row(*args, out, rnd)
            return out

        return guarded

    def guarded_krylov(self, lmat, start, k):
        require_residues("krylov", self.field.p, (lmat, start))
        return krylov(self, lmat, start, k)

    modules = [m for name, m in sys.modules.items() if name == "hyperspec" or name.startswith("hyperspec.")]
    with pytest.MonkeyPatch.context() as mp:
        for name, k in GUARDED_KERNELS.items():
            fn = getattr(linalg, name)
            guarded = guard(name, fn, k)
            for module in modules:
                if getattr(module, name, None) is fn:
                    mp.setattr(module, name, guarded)
        mp.setattr(SCAlgebra, "krylov", guarded_krylov)
        yield
