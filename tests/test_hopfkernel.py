from itertools import product
from math import comb

import numpy as np
import pytest

from conftest import generator_less, greedy_generators_by_span, power, residue_field, rref_rowloop, unvalidated_algebra
from hyperspec import algkernel, linalg
from hyperspec import specops as ops
from hyperspec.algkernel import (
    IdealSubspace,
    SCAlgebra,
    algebra_generators,
    is_algebra_hom,
    maximal_spectrum,
)
from hyperspec.gfarith import parse_poly
from hyperspec.hopfkernel import (
    HopfData,
    _compare,
    _square_mul_by,
    additive_etale_hopf,
    descent_ideal,
    hopf_quotient,
    is_hopf_ideal,
    iterated_coproduct,
    mu_hopf,
    parse_builtin,
    verify_hopf,
)
from hyperspec.hyperkernel import LawReport
from hyperspec.linalg import matmul, npmod, nullspace, rref


def _kronecker_iterated(h):
    """(Delta⊗id)∘Delta and (id⊗Delta)∘Delta through the n^3 x n^2 Kronecker
    matrices, as first written."""
    p = h.algebra.field.p
    eye = np.eye(h.dim, dtype=np.int64)
    return matmul(np.kron(h.delta, eye), h.delta, p), matmul(np.kron(eye, h.delta), h.delta, p)


def _hom_sides(h):
    """For each hom entry of verify_hopf, (lhs, rhs, unit_ok) over every pair
    of basis vectors, as first written: lhs[K, i, j] = M(e_i e_j)_K and
    rhs[K, i, j] = (M(e_i) M(e_j))_K, the coproduct's by the n^6
    contraction. The counit is read as a 1 x n matrix."""
    alg = h.algebra
    p = alg.field.p
    n = alg.dim
    d3 = h.delta.reshape(n, n, n)
    rhs = npmod(np.einsum("abi,cdj,acr,bds->rsij", d3, d3, alg.mul, alg.mul, optimize="greedy"), p)
    return {
        "coproduct_algebra_hom": (
            npmod(np.einsum("Kx,ijx->Kij", h.delta, alg.mul), p),
            rhs.reshape(n * n, n, n),
            (matmul(h.delta, alg.unit, p) == np.kron(alg.unit, alg.unit) % p).all(),
        ),
        "counit_algebra_hom": (
            npmod(np.einsum("Kx,ijx->Kij", h.counit, alg.mul), p),
            npmod(np.einsum("Ki,Kj->Kij", h.counit, h.counit), p),
            int(matmul(h.counit, alg.unit, p)[0]) == 1,
        ),
        "antipode_algebra_hom": (
            npmod(np.einsum("Kx,ijx->Kij", h.antipode, alg.mul), p),
            npmod(np.einsum("ai,bj,abK->Kij", h.antipode, h.antipode, alg.mul), p),
            (matmul(h.antipode, alg.unit, p) == alg.unit).all(),
        ),
    }


def _reference_sides(h):
    """For every verify_hopf entry, (lhs, rhs, ok) as first written: the hom
    entries over every pair of basis vectors (_hom_sides), and every other
    entry with column x its two sides at e_x, through Kronecker matrices
    and the twist as a permutation matrix. ok is the unit check of a hom
    entry, and for the counit law whether its right side is the identity."""
    alg = h.algebra
    p = alg.field.p
    n = alg.dim
    eye = np.eye(n, dtype=np.int64)
    sides = _hom_sides(h)
    sides["coassociativity"] = (*_kronecker_iterated(h), True)
    right = matmul(np.kron(eye, h.counit), h.delta, p)
    sides["counit_law"] = (matmul(np.kron(h.counit, eye), h.delta, p), eye, (right == eye).all())
    mulmat = alg.mul.reshape(n * n, n).T
    target = npmod(np.outer(alg.unit, h.counit[0]), p)
    sides["antipode_law"] = (matmul(mulmat, matmul(np.kron(h.antipode, eye), h.delta, p), p), target, True)
    sides["antipode_law_right"] = (matmul(mulmat, matmul(np.kron(eye, h.antipode), h.delta, p), p), target, True)
    sides["antipode_involution"] = (matmul(h.antipode, h.antipode, p), eye, True)
    twist = np.eye(n * n, dtype=np.int64)[[b * n + a for a in range(n) for b in range(n)]]
    rhs = matmul(twist, matmul(np.kron(h.antipode, h.antipode), h.delta, p), p)
    sides["antipode_anticohomomorphism"] = (matmul(h.delta, h.antipode, p), rhs, True)
    return sides


def _reference_report(h):
    """Every verify_hopf entry, on every basis vector (_reference_sides)."""
    rep = LawReport()
    for name, (lhs, rhs, ok) in _reference_sides(h).items():
        _compare(rep, name, lhs, rhs, extra_ok=bool(ok))
    return rep


HOM_ENTRIES = ("coproduct_algebra_hom", "counit_algebra_hom", "antipode_algebra_hom")
ORACLE_SPECS = ("mu:3:2", "mu:5:4", "addetale:3:2")


def _report_along(sides, gens, p):
    """The report verify_hopf gives when it decides on the rows of gens,
    read off the reference's sides (_reference_sides): a failing hom entry
    names the first (K, s, j) where its sides, taken along row s of gens,
    differ; every other entry compares its sides' columns along gens once
    the three hom entries pass, else along every basis vector."""
    rep = LawReport()
    for name in HOM_ENTRIES:
        lhs, rhs, ok = sides[name]
        lhs, rhs = (np.einsum("si,Kij->Ksj", gens, side) % p for side in (lhs, rhs))
        bad = None if not ok else next((tuple(int(v) for v in k) for k in np.argwhere(lhs != rhs)), None)
        witness = ("unit/counit image mismatch",) if not ok else () if bad is None else (bad, lhs[bad], rhs[bad])
        rep.add(name, bool(ok) and bad is None, witness)
    at = gens.T if rep.ok else np.eye(gens.shape[1], dtype=np.int64)
    for name, (lhs, rhs, ok) in sides.items():
        if name not in HOM_ENTRIES:
            _compare(rep, name, matmul(lhs, at, p), matmul(rhs, at, p), extra_ok=bool(ok))
    return rep


def _assert_matches_reference(bad, label):
    """bad has the reference report's verdict on every entry, and so does a
    copy of its algebra without the stored generator; on both, every
    witness is the one the reference's sides give along the greedy set
    (_report_along): the generator itself, and on the copy the basis
    vectors greedy_generators_by_span picks. Returns the failing entries
    and those of them decided on the generator."""
    alg = bad.algebra
    p = alg.field.p
    bare = SCAlgebra(alg.field, alg.basis, alg.mul, alg.unit)
    assert algebra_generators(alg).tolist() == [alg.generator.tolist()]
    assert (algebra_generators(bare) == greedy_generators_by_span(bare)).all()
    want = _reference_report(bad).checks
    sides = _reference_sides(bad)
    for algebra in (alg, bare):
        got = verify_hopf(HopfData(algebra, bad.delta, bad.counit, bad.antipode)).checks
        along = _report_along(sides, algebra_generators(algebra), p).checks
        assert set(got) == set(want) == set(along)
        for name in want:
            assert got[name].passed == want[name].passed, (label, name)
            assert got[name] == along[name], (label, name)
    homs_pass = all(want[name].passed for name in HOM_ENTRIES)
    failed = {name for name in want if not want[name].passed}
    return failed, (failed - set(HOM_ENTRIES) if homs_pass else set())


def _assert_mutants_match_reference(h):
    """Single-entry mutants of Delta, counit and antipode match the
    reference report (_assert_matches_reference), and together fail every
    entry."""
    p = h.algebra.field.p
    rng = np.random.default_rng(1)
    failed = set()
    for which in range(3):
        for _ in range(12):
            maps = [h.delta.copy(), h.counit.copy(), h.antipode.copy()]
            row, col = rng.integers(0, maps[which].shape[0]), rng.integers(0, maps[which].shape[1])
            maps[which][row, col] = (maps[which][row, col] + rng.integers(1, p)) % p
            failed |= _assert_matches_reference(HopfData(h.algebra, *maps), (which, row, col))[0]
    assert failed == set(_reference_report(h).checks)


def _algebra_map_mutants(h):
    """Hopf data on h's algebra whose Delta, counit and antipode are algebra
    maps, one changed at a time, each written on the power basis e_j = t^j:
    for mu:p:n, Delta(t) = t^a⊗t^b, S(t) = t^c and eps(t) = z with z^n = 1,
    for a, b, c mod n; for addetale, Delta(t) = a t⊗1 + b 1⊗t, S(t) = c t
    and eps(t) = z, for a, b, c, z in F_p."""
    alg, n = h.algebra, h.dim
    p = alg.field.p
    out = []
    if h.name.startswith("mu:"):
        out += [_group_like_mutant(h, a, b) for a in range(n) for b in range(n)]
        antipodes = [np.eye(n, dtype=np.int64)[:, c * np.arange(n) % n] for c in range(n)]
        roots = [z for z in range(p) if pow(z, n, p) == 1]
    else:
        for a in range(p):
            for b in range(p):
                delta = np.zeros((n * n, n), dtype=np.int64)
                for k in range(n):
                    for i in range(k + 1):  # (a t⊗1 + b 1⊗t)^k
                        delta[i * n + k - i, k] = comb(k, i) * pow(a, i, p) * pow(b, k - i, p) % p
                out.append(HopfData(alg, delta, h.counit, h.antipode))
        antipodes = [np.diag([pow(c, k, p) for k in range(n)]) for c in range(p)]
        roots = range(p)
    out += [HopfData(alg, h.delta, h.counit, anti) for anti in antipodes]
    out += [HopfData(alg, h.delta, [[pow(z, k, p) for k in range(n)]], h.antipode) for z in roots]
    return out


def _carry(h, P):
    """h carried along v -> P v for an invertible P: mul, unit, the
    generator if there is one, Delta, counit and antipode."""
    alg = h.algebra
    p, n = alg.field.p, alg.dim
    inv = rref(np.hstack([P, np.eye(n, dtype=np.int64)]), p)[0][:, n:]
    mul = npmod(np.einsum("ai,bj,abk,lk->ijl", inv, inv, alg.mul, P), p)
    gen = None if alg.generator is None else matmul(P, alg.generator, p)
    conj = SCAlgebra(alg.field, alg.basis, mul, matmul(P, alg.unit, p), generator=gen)
    delta = matmul(np.kron(P, P) % p, matmul(h.delta, inv, p), p)
    return HopfData(conj, delta, matmul(h.counit, inv, p), matmul(P, matmul(h.antipode, inv, p), p))


def _dense_basis_change(n, p):
    """One fixed invertible P = L U, L and U unit triangular with nonzero
    entries off the diagonal."""
    rng = np.random.default_rng(3)
    eye = np.eye(n, dtype=np.int64)
    lower, upper = (side(rng.integers(1, p, size=(n, n)), k) + eye for side, k in ((np.tril, -1), (np.triu, 1)))
    return matmul(lower, upper, p)


def _conjugate(h):
    """h carried along the dense P of _dense_basis_change."""
    return _carry(h, _dense_basis_change(h.dim, h.algebra.field.p))


class TestEinsumMod:
    """The einsum contractions mod p that the oracles form, and the library
    products they check."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_equals_unoptimized_einsum(self, spec):
        # the oracles contract pairwise in numpy's greedy order; every
        # intermediate is bounded by the full sum, so the result equals the
        # one-loop contraction
        h = parse_builtin(spec)
        alg = h.algebra
        p = alg.field.p
        n = alg.dim
        d3 = h.delta.reshape(n, n, n)
        rng = np.random.default_rng(0)
        u, v = rng.integers(0, p, size=(2, n, n))
        homs = rng.integers(0, p, size=(3, n, 2))
        fq_mul = rng.integers(0, p, size=(2, 2, 2))
        point = maximal_spectrum(alg)[-1]
        residue = residue_field(point)
        cases = [
            ("abi,cdj,acr,bds->rsij", d3, d3, alg.mul, alg.mul),  # coproduct hom oracle (_reference_report)
            ("ai,bj,abK->Kij", h.antipode, h.antipode, alg.mul),  # antipode hom oracle
            ("ij,kl,ikr,jls->rs", u, v, alg.mul, alg.mul),  # _square_mul_by oracle
            ("ai,bj,abk->kij", point.resmap, point.resmap, residue.mul),  # is_algebra_hom oracle
            ("rsi,arj,bsk,jkl->abil", d3, homs, homs, fq_mul),  # conftest.classical_convolution
        ]
        for sub, *ops in cases:
            want = npmod(np.einsum(sub, *ops), p)
            assert (npmod(np.einsum(sub, *ops, optimize="greedy"), p) == want).all(), sub
        want = npmod(np.einsum("ij,kl,ikr,jls->rs", u, v, alg.mul, alg.mul), p).reshape(-1)
        assert (_square_mul_by(alg, u.reshape(-1), v.reshape(1, -1)) == want).all()
        assert is_algebra_hom(point.resmap, alg, residue)

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    @pytest.mark.parametrize("rank", [0, 1, 2, "full"])
    def test_square_mul_by_over_stacks(self, spec, rank):
        """Row b of u times a stack is the einsum product of u with row b,
        for u of rank 0, 1, 2 and n as an n x n matrix: the number of
        rank-one terms the product splits u into."""
        alg = parse_builtin(spec).algebra
        p, n = alg.field.p, alg.dim
        k = n if rank == "full" else rank
        rng = np.random.default_rng(2)
        u = np.zeros((n, n), dtype=np.int64)
        while len(rref(u, p)[1]) != k:
            u = matmul(rng.integers(0, p, size=(n, k)), rng.integers(0, p, size=(k, n)), p)
        v = rng.integers(0, p, size=(5, n, n))
        want = [npmod(np.einsum("ij,kl,ikr,jls->rs", u, b, alg.mul, alg.mul), p).reshape(-1) for b in v]
        assert (_square_mul_by(alg, u.reshape(-1), v.reshape(5, -1)) == np.array(want)).all()


class TestVerifyHopf:
    def test_mu54_passes(self, mu54):
        rep = verify_hopf(mu54)
        assert rep.ok, rep.failures()

    def test_addetale32_passes(self, ae32):
        rep = verify_hopf(ae32)
        assert rep.ok, rep.failures()

    def test_all_builtins_pass(self, suite_algebras):
        for h in suite_algebras:
            assert verify_hopf(h).ok

    def test_mu4_with_identity_antipode_fails(self, mu54):
        bad = HopfData(mu54.algebra, mu54.delta, mu54.counit, np.eye(4, dtype=np.int64))
        rep = verify_hopf(bad)
        assert not rep.ok
        assert "antipode_law" in rep.failures()

    def test_right_antipode_law_is_checked(self, ae32):
        assert verify_hopf(ae32).checks["antipode_law_right"].passed

    def test_broken_coproduct_fails_hom_check(self, mu32):
        delta = mu32.delta.copy()
        delta[0, 1] = (delta[0, 1] + 1) % 3
        rep = verify_hopf(HopfData(mu32.algebra, delta, mu32.counit, mu32.antipode))
        assert not rep.ok

    @pytest.mark.parametrize("spec", ORACLE_SPECS + ("mu:3:6", "mu:7:6"))
    def test_hom_mutants_match_reference(self, spec):
        _assert_mutants_match_reference(parse_builtin(spec))

    @pytest.mark.parametrize("spec", ("mu:7:6", "mu:5:4", "addetale:3:2"))
    def test_algebra_map_mutants_are_decided_on_the_generator(self, spec):
        """Mutants whose three maps stay algebra maps pass every hom entry,
        so every other entry is decided on the generator alone: each has
        the reference's verdict, and its witness read along the generator.
        Together they fail every non-hom entry there."""
        h = parse_builtin(spec)
        on_generator = set()
        for index, bad in enumerate(_algebra_map_mutants(h)):
            assert all(verify_hopf(bad).checks[name].passed for name in HOM_ENTRIES), index
            on_generator |= _assert_matches_reference(bad, index)[1]
        assert on_generator == set(_reference_report(h).checks) - set(HOM_ENTRIES)

    @pytest.mark.parametrize("spec", ("mu:7:6", "addetale:3:2"))
    def test_dense_coproduct_matches_reference(self, spec):
        """The Hopf data carried along a dense change of basis: Delta of the
        generator keeps its rank (1 group-like, 2 primitive) with most
        entries nonzero, the axioms still pass, and mutants match the
        reference report."""
        h = parse_builtin(spec)
        conj = _conjugate(h)
        n, p = h.dim, h.algebra.field.p
        d, dc = (matmul(x.delta, x.algebra.generator, p).reshape(n, n) for x in (h, conj))
        assert len(rref(dc, p)[1]) == len(rref(d, p)[1]) == (1 if spec.startswith("mu") else 2)
        assert np.count_nonzero(dc) > n * n // 2 > np.count_nonzero(d)
        assert verify_hopf(conj).ok, verify_hopf(conj).failures()
        _assert_mutants_match_reference(conj)

    def test_generator_that_does_not_generate_is_passed_over(self, mu32):
        """An unvalidated algebra whose stored generator is the unit, and a
        Delta with Delta(1) = 1⊗1 that is multiplicative on the unit but no
        hom: the unit lies in span{1}, so the greedy set is the basis
        vector t, on which the check fails as the reference's sides do."""
        alg = mu32.algebra
        unit_gen = unvalidated_algebra(alg.field, alg.basis, alg.mul, alg.unit, generator=alg.unit)
        assert algebra_generators(unit_gen).tolist() == [[0, 1]]
        delta = mu32.delta.copy()
        delta[:, 1] = [1, 0, 0, 1]  # Delta(t) = 1⊗1 + t⊗t, whose square is 2 Delta(t)
        rep = verify_hopf(HopfData(unit_gen, delta, mu32.counit, mu32.antipode))
        assert not rep.checks["coproduct_algebra_hom"].passed
        hd = HopfData(alg, delta, mu32.counit, mu32.antipode)
        want = _report_along(_reference_sides(hd), algebra_generators(unit_gen), 3)
        assert not _reference_report(hd).checks["coproduct_algebra_hom"].passed
        assert rep.checks["coproduct_algebra_hom"] == want.checks["coproduct_algebra_hom"]

    def test_dimension_mismatch_rejected(self, mu32):
        with pytest.raises(ValueError):
            HopfData(mu32.algebra, mu32.delta[:, :1], mu32.counit, mu32.antipode)


class TestBasisChange:
    """A first step toward basis-change invariance: generator-less copies of
    three builtins, carried along the dense P of _conjugate and along a
    basis permutation, keep the Frobenius up to P, the verify_hopf
    verdicts, and the cube up to the point permutation matched through P,
    point m to the point whose ideal is P·m. Their greedy sets have 1 to
    3 rows."""

    @pytest.mark.parametrize("spec", ("mu:3:4", "addetale:3:2", "mu:5:8"))
    @pytest.mark.parametrize("change", ("dense", "permutation"))
    def test_generator_less_copy_is_invariant(self, spec, change):
        h = generator_less(parse_builtin(spec))
        p, n = h.algebra.field.p, h.algebra.dim
        if change == "dense":
            P = _dense_basis_change(n, p)
        else:
            P = np.eye(n, dtype=np.int64)[np.random.default_rng(5).permutation(n)]
        moved = _carry(h, P)
        assert (algebra_generators(moved.algebra) == greedy_generators_by_span(moved.algebra)).all()
        inv = rref(np.hstack([P, np.eye(n, dtype=np.int64)]), p)[0][:, n:]
        assert (moved.algebra.frobenius == matmul(P, matmul(h.algebra.frobenius, inv, p), p)).all()
        verdicts = [{name: entry.passed for name, entry in verify_hopf(x).checks.items()} for x in (h, moved)]
        assert verdicts[0] == verdicts[1] and all(verdicts[0].values())
        pts, moved_pts = ops.kpoints(h), ops.kpoints(moved)
        index = {pt.ideal: pt.index for pt in moved_pts}
        sigma = [index[IdealSubspace(moved.algebra, matmul(pt.ideal.basis, P.T, p))] for pt in pts]
        assert sorted(sigma) == list(range(len(pts)))
        assert [pt.degree for pt in pts] == [moved_pts[i].degree for i in sigma]
        assert (ops.hyperop_cube(moved)[np.ix_(sigma, sigma, sigma)] == ops.hyperop_cube(h)).all()

    def test_counit_law_at_word_size_p(self):
        """mu:p:2 at p = 100000007 carried along P = [[1, c], [c, 1 + c^2]],
        c = p // 2 + 3, every structure map formed in Python ints, is a Hopf
        algebra. Its unit is (1, c), so the counit law's target, 1·eps(s),
        is formed from the residue eps(s): the outer product of the unit and
        the counit has entries near (p-1)^2, and its product with the
        generators would wrap int64."""
        h = parse_builtin("mu:100000007:2")
        alg = h.algebra
        p, n = alg.field.p, alg.dim
        c = p // 2 + 3
        P, inv = [[1, c], [c, 1 + c * c]], [[1 + c * c, -c], [-c, 1]]  # det P = 1

        def exact(a, b):  # a @ b mod p in Python ints
            return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]

        m = alg.mul.tolist()
        mul = [
            [[sum(inv[a][i] * inv[b][j] * m[a][b][k] * P[l][k] for a, b, k in product(range(n), repeat=3)) % p
              for l in range(n)] for j in range(n)]
            for i in range(n)
        ]
        unit, gen = (np.ravel(exact(P, [[x] for x in v.tolist()])) for v in (alg.unit, alg.generator))
        kron = [[P[i][k] * P[j][l] for k in range(n) for l in range(n)] for i in range(n) for j in range(n)]
        moved = HopfData(
            SCAlgebra(alg.field, alg.basis, mul, unit, generator=gen),
            exact(kron, exact(h.delta.tolist(), inv)),
            exact(h.counit.tolist(), inv),
            exact(P, exact(h.antipode.tolist(), inv)),
        )
        assert moved.algebra.unit.tolist() == [1, c]
        rep = verify_hopf(moved)
        assert rep.ok and rep.failures() == [], rep.to_json()


class TestHopfIdeals:
    def test_t2_minus_1_in_mu4(self, mu54):
        ideal = IdealSubspace.from_poly(mu54.algebra, parse_poly("T^2-1", mu54.algebra.field))
        assert is_hopf_ideal(mu54, ideal).ok

    def test_augmentation_ideal_always_hopf(self, suite_algebras):
        for h in suite_algebras:
            aug = IdealSubspace(h.algebra, nullspace(h.counit, h.algebra.field.p))
            assert is_hopf_ideal(h, aug).ok

    def test_t_minus_1_not_hopf_in_additive(self, ae32):
        ideal = IdealSubspace.from_poly(ae32.algebra, parse_poly("T-1", ae32.algebra.field))
        chk = is_hopf_ideal(ae32, ideal)
        assert not chk.ok
        assert list(chk.checks) == ["coproduct_containment", "counit_vanishes", "antipode_stability"]
        assert "counit_vanishes" in chk.failures()
        assert chk.checks["counit_vanishes"].witness  # carries the offending vector

    def test_non_ideal_rejected(self, ae32):
        sub = IdealSubspace(ae32.algebra, np.eye(9, dtype=np.int64)[1:2])
        with pytest.raises(ValueError):
            is_hopf_ideal(ae32, sub)


def _membership_hopf_ideal(h, ideal):
    """is_hopf_ideal as first written, kept as its oracle: Delta(v) is tested
    for membership in the echelon form of I⊗A + A⊗I, the span of
    kron(I, eye) and kron(eye, I) in the n^2-dimensional space."""
    p = h.algebra.field.p
    n = h.dim
    eye = np.eye(n, dtype=np.int64)
    mixed, mixed_piv = rref_rowloop(np.vstack([np.kron(ideal.basis, eye), np.kron(eye, ideal.basis)]), p)
    cop_w = eps_w = s_w = None
    for v in ideal.basis:
        dv = matmul(h.delta, v, p)
        if cop_w is None and npmod(dv - dv[mixed_piv] @ mixed, p).any():
            cop_w = (v.tolist(),)
        eps = int(matmul(h.counit, v, p)[0])
        if eps_w is None and eps != 0:
            eps_w = (v.tolist(), eps)
        if s_w is None and not ideal.contains_vector(matmul(h.antipode, v, p)):
            s_w = (v.tolist(),)
    return {
        name: {"pass": w is None, "witness": list(w or ())}
        for name, w in (("coproduct_containment", cop_w), ("counit_vanishes", eps_w), ("antipode_stability", s_w))
    }


class TestHopfIdealOracle:
    """is_hopf_ideal through Ker(pi⊗pi) against the n^2-column echelon
    membership test, verdicts and witnesses both."""

    @pytest.fixture(scope="class")
    def cases(self, suite_algebras, mu1312, mu54, ae32):
        out = [(h, descent_ideal(h)) for h in suite_algebras + [mu1312]]
        out += [(h, pt.ideal) for h in (mu54, ae32) for pt in maximal_spectrum(h.algebra)]
        out.append((mu54, IdealSubspace(mu54.algebra, np.eye(4, dtype=np.int64))))  # unit ideal
        return out

    def test_matches_membership_oracle(self, cases):
        failures = 0
        for h, ideal in cases:
            got = is_hopf_ideal(h, ideal).to_json()
            assert got == _membership_hopf_ideal(h, ideal), (h.name, ideal.basis.tolist())
            failures += not got["coproduct_containment"]["pass"]
        assert failures >= 5  # the witnesses of failing coproduct tests are compared too

    def test_runs_no_elimination(self, mu1312, ae32, monkeypatch):
        calls = []

        def counting(mat, p):
            calls.append(np.shape(mat))
            return rref_rowloop(mat, p)

        ideals = [(mu1312, descent_ideal(mu1312))] + [(ae32, pt.ideal) for pt in maximal_spectrum(ae32.algebra)]
        for module in (linalg, algkernel):
            monkeypatch.setattr(module, "rref", counting)
        for h, ideal in ideals:
            is_hopf_ideal(h, ideal)
        assert calls == []


class TestHopfQuotient:
    def test_mu4_mod_t2_minus_1_is_mu2(self, mu54):
        ideal = IdealSubspace.from_poly(mu54.algebra, parse_poly("T^2-1", mu54.algebra.field))
        quo, pi = hopf_quotient(mu54, ideal)
        assert quo.dim == 2
        assert verify_hopf(quo).ok
        # induced coproduct is still group-like on the generator
        gen_col = quo.delta[:, 1]
        assert gen_col[1 * 2 + 1] == 1 and gen_col.sum() == 1

    def test_quotient_by_zero_is_identity(self, mu54):
        zero = IdealSubspace(mu54.algebra, np.zeros((0, 4), dtype=np.int64))
        quo, pi = hopf_quotient(mu54, zero)
        assert (quo.delta == mu54.delta).all()
        assert (quo.antipode == mu54.antipode).all()

    def test_addetale_mod_t3_minus_t(self, ae32):
        ideal = descent_ideal(ae32)
        assert ideal.generator_poly() == parse_poly("T^3-T", ae32.algebra.field)
        quo, _ = hopf_quotient(ae32, ideal)
        assert quo.dim == 3
        # additive coproduct survives: Δ(t) = t⊗1 + 1⊗t
        col = quo.delta[:, 1]
        assert sorted(np.nonzero(col)[0].tolist()) == [1, 3]

    def test_projection_commutes_with_coproducts(self, mu54):
        ideal = IdealSubspace.from_poly(mu54.algebra, parse_poly("T^2-1", mu54.algebra.field))
        quo, pi = hopf_quotient(mu54, ideal)
        p = mu54.algebra.field.p
        lhs = (quo.delta @ pi) % p
        rhs = (np.kron(pi, pi) @ mu54.delta) % p
        assert (lhs == rhs).all()

    def test_non_hopf_ideal_rejected(self, ae32):
        ideal = IdealSubspace.from_poly(ae32.algebra, parse_poly("T-1", ae32.algebra.field))
        with pytest.raises(ValueError, match="Hopf"):
            hopf_quotient(ae32, ideal)


class TestIteratedCoproduct:
    def test_group_like(self, mu54):
        h3 = iterated_coproduct(mu54)
        col = h3[:, 1]
        assert col[(1 * 4 + 1) * 4 + 1] == 1 and col.sum() == 1

    def test_primitive(self, ae32):
        h3 = iterated_coproduct(ae32)
        col = h3[:, 1]
        assert sorted(np.nonzero(col)[0].tolist()) == [1, 9, 81]
        assert col.sum() == 3

    def test_unit_maps_to_unit_cube(self, mu32):
        h3 = iterated_coproduct(mu32)
        col = h3[:, 0]
        assert col[0] == 1 and col.sum() == 1

    def test_matches_kronecker_definition(self, suite_algebras, fs3):
        for h in suite_algebras + [fs3]:
            left, right = _kronecker_iterated(h)
            assert (iterated_coproduct(h) == left).all() and (left == right).all()

    def test_coassociativity_violation_rejected(self, mu32):
        delta = mu32.delta.copy()
        delta[0, 1] = (delta[0, 1] + 1) % 3
        bad = HopfData(mu32.algebra, delta, mu32.counit, mu32.antipode)
        with pytest.raises(ValueError, match="coassociativity"):
            iterated_coproduct(bad)


def _group_like_mutant(h, a, b):
    """mu:p:n with Delta(t^j) = t^(aj) ⊗ t^(bj): an algebra map for every a,
    b, since t^a ⊗ t^b is a unit whose n-th power is 1, and coassociative
    iff a^2 = a and b^2 = b mod n."""
    alg, n = h.algebra, h.dim
    delta = np.zeros((n * n, n), dtype=np.int64)
    for j in range(n):
        delta[(a * j % n) * n + b * j % n, j] = 1
    return HopfData(alg, delta, h.counit, h.antipode)


class TestCoassociativity:
    @pytest.mark.parametrize("spec", ORACLE_SPECS + ("mu:3:6", "mu:7:6"))
    def test_mutant_verdicts_match_kronecker(self, spec):
        # single-entry Delta mutants, most of which break the hom entry and
        # so are compared on every basis vector, and for mu the group-like
        # mutants, which keep it and are compared on the generator only:
        # every verdict is the Kronecker comparison's, and a failure on the
        # generator names (row, generator row)
        h = parse_builtin(spec)
        p, n = h.algebra.field.p, h.dim
        mutants = []
        for entry in range(0, n**3, 1 if n < 9 else 7):
            delta = h.delta.copy()
            delta.flat[entry] = (delta.flat[entry] + 1) % p
            mutants.append(HopfData(h.algebra, delta, h.counit, h.antipode))
        if spec.startswith("mu:"):
            mutants += [_group_like_mutant(h, a, b) for a in range(n) for b in range(n)]
        seen = set()
        for bad in mutants:
            rep = verify_hopf(bad)
            left, right = _kronecker_iterated(bad)
            hom, coassoc = rep.checks["coproduct_algebra_hom"], rep.checks["coassociativity"]
            assert coassoc.passed == (left == right).all()
            if all(rep.checks[name].passed for name in HOM_ENTRIES) and not coassoc.passed:
                lhs, rhs = (npmod(side @ algebra_generators(h.algebra).T, p) for side in (left, right))
                first = tuple(np.argwhere(lhs != rhs)[0])
                assert coassoc.witness == (first, lhs[first], rhs[first])
            seen.add((hom.passed, coassoc.passed))
        assert (False, False) in seen
        assert ((True, False) in seen) == (spec.startswith("mu:") and n > 2)  # a^2 = a for all a mod 2


class TestBuiltins:
    def test_parse_builtin_roundtrip(self):
        h = parse_builtin("mu:5:4")
        assert h.name == "mu:5:4"
        assert h.dim == 4

    def test_parse_rejects_even_characteristic(self):
        with pytest.raises(ValueError, match="odd prime"):
            parse_builtin("mu:2:2")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_builtin("mu:5")
        with pytest.raises(ValueError):
            parse_builtin("frobnitz:3:1")

    def test_mu_with_nonsplit_n(self):
        # n not dividing p-1: spectrum acquires higher-degree points
        h = mu_hopf(3, 4)
        assert verify_hopf(h).ok

    def test_addetale_k1(self):
        h = additive_etale_hopf(3, 1)
        assert h.dim == 3
        assert verify_hopf(h).ok

    def test_json_roundtrip(self, ae31):
        doc = ae31.to_json()
        again = HopfData.from_json(doc)
        assert verify_hopf(again).ok
        assert (again.delta == ae31.delta).all()
        assert (again.antipode == ae31.antipode).all()
        assert (again.counit == ae31.counit).all()


def _builtin_maps_by_powers(h):
    """Delta, counit and antipode of a builtin by one power of its generator
    t per exponent, as the builtins were built before they were written on
    the power basis, kept as their oracle: Delta(t^j) = Delta(t)^j, each
    step a product in A⊗A of coefficient matrices through the structure
    constants, eps(t^j) = eps(t)^j and S(t^j) = S(t)^j by square-and-multiply,
    with Delta(t) = t⊗t, eps(t) = 1 and S(t) = t^(n-1) for mu:p:n, and
    Delta(t) = t⊗1 + 1⊗t, eps(t) = 0 and S(t) = -t for addetale:p:k."""
    alg = h.algebra
    p, n = alg.field.p, alg.dim
    t, one = alg.generator, alg.unit
    if h.name.startswith("mu:"):
        delta_t, eps_t, s_t = np.outer(t, t), 1, power(alg, t, n - 1)
    else:
        delta_t, eps_t, s_t = np.outer(t, one) + np.outer(one, t), 0, npmod(-t, p)
    delta = np.zeros((n * n, n), dtype=np.int64)
    antipode = np.zeros((n, n), dtype=np.int64)
    acc = np.outer(one, one)
    for j in range(n):
        delta[:, j] = acc.ravel()
        antipode[:, j] = power(alg, s_t, j)
        acc = np.einsum("ab,cd,ack,bdl->kl", acc, delta_t, alg.mul, alg.mul, optimize="greedy") % p
    counit = np.array([[eps_t**j for j in range(n)]], dtype=np.int64)
    return delta, counit, antipode


class TestBuiltinsOnThePowerBasis:
    """The builtins write Delta and S on the power basis e_j = t^j."""

    # mu: n = 1, n = 2, n = p - 1 and non-split n; addetale: k = 1 and 2
    SPECS = ["mu:3:1", "mu:7:1", "mu:3:2", "mu:5:2", "mu:5:4", "mu:7:6", "mu:13:12", "mu:3:4", "mu:5:3", "mu:7:5"]
    SPECS += ["addetale:3:1", "addetale:5:1", "addetale:7:1", "addetale:3:2"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_maps_equal_per_exponent_powers(self, spec):
        h = parse_builtin(spec)
        delta, counit, antipode = _builtin_maps_by_powers(h)
        assert (h.delta == delta).all() and (h.counit == counit).all() and (h.antipode == antipode).all()
        assert h.hopf_report.ok

    @pytest.mark.parametrize("spec", ["mu:3:1", "mu:3:2", "mu:13:12", "mu:5:3", "addetale:3:1", "addetale:5:2"])
    def test_no_multiplication_matrix_outside_validation(self, monkeypatch, spec):
        """Building a builtin forms multiplication matrices only to validate
        its algebra; Delta, eps and S take none."""
        depth, inside, outside = [0], [0], [0]
        validate, mul_matrices = SCAlgebra._validate, SCAlgebra.mul_matrices

        def counted_validate(self):
            depth[0] += 1
            try:
                validate(self)
            finally:
                depth[0] -= 1

        def counted(self, u):
            (inside if depth[0] else outside)[0] += 1
            return mul_matrices(self, u)

        monkeypatch.setattr(SCAlgebra, "_validate", counted_validate)
        monkeypatch.setattr(SCAlgebra, "mul_matrices", counted)
        parse_builtin(spec)
        assert outside[0] == 0 and inside[0] > 0, (spec, inside[0], outside[0])
