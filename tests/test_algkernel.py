import sys
from itertools import product

import numpy as np
import pytest

from hyperspec import specops as ops
from hyperspec.algkernel import (
    IdealSubspace,
    SCAlgebra,
    algebra_generators,
    field_algebra,
    is_algebra_hom,
    maximal_spectrum,
    monogenic_algebra,
    nilradical,
    quotient_algebra,
    tensor_algebra,
)
from hyperspec.gfarith import PrimeField, FpPoly, factor, minimal_polynomial, parse_poly
from conftest import (
    LEMMA_ALGEBRAS,
    NON_REDUCED,
    associator_by_basis_triples,
    count_algebra_constructions,
    gcd_cascade,
    greedy_generators_by_span,
    ideal_is_prime_by_quotient,
    label_by_residue,
    maximal_spectrum_by_reduced_quotient,
    nullspace_twopass,
    power,
    product_hopf,
    residue_field,
    spectrum_fields,
    unvalidated_algebra,
    validation_error_by_basis_triples,
)
from hyperspec import algkernel
from hyperspec.hopfkernel import HopfData, descent_ideal, parse_builtin, verify_hopf
from hyperspec.linalg import enumerate_vectors, matmul, npmod, nullspace, reduce_rows, rref

F3 = PrimeField(3)
F5 = PrimeField(5)


def P(text, field=F3):
    return parse_poly(text, field)


def t9_minus_t():
    return monogenic_algebra(F3, FpPoly.make(F3, [0, -1] + [0] * 7 + [1]))


class TestSCAlgebra:
    def test_rejects_noncommutative(self):
        mul = np.zeros((2, 2, 2), dtype=np.int64)
        mul[0, 0, 0] = 1
        mul[0, 1, 1] = 1
        mul[1, 0, 1] = 1
        mul[1, 1, 0] = 1
        mul[1, 0, 0] = 2  # break symmetry
        with pytest.raises(ValueError, match="commutative"):
            SCAlgebra(F3, ["1", "t"], mul, [1, 0])

    def test_rejects_bad_unit(self):
        alg = monogenic_algebra(F3, P("T^2+1"))
        with pytest.raises(ValueError, match="unit"):
            SCAlgebra(F3, list(alg.basis), alg.mul, [0, 1])

    @pytest.mark.parametrize("mul_shape, unit", [((2, 2, 2), [1, 0, 0]), ((2, 2, 3), [1, 0]), ((3, 3, 3), [1, 0])])
    def test_rejects_mismatched_shapes(self, mul_shape, unit):
        with pytest.raises(ValueError, match="^structure tensor / unit dimensions are inconsistent$"):
            SCAlgebra(F3, ["1", "t"], np.zeros(mul_shape, dtype=np.int64), unit)

    def test_element_from_poly_needs_a_generator(self):
        alg = SCAlgebra(F3, ["1"], [[[1]]], [1])
        assert alg.generator is None
        with pytest.raises(ValueError, match="^algebra has no designated generator$"):
            alg.element_from_poly(P("T+1"))

    def test_json_roundtrip(self):
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        doc = alg.to_json()
        again = SCAlgebra.from_json(doc)
        assert again.to_json() == doc


def _symmetric_pair_mutants(alg):
    """(i, j, k) and alg's structure constants with the symmetric pair
    mul[i, j, k] = mul[j, i, k] raised by 1, for every i <= j and k: each
    stays commutative."""
    n, p = alg.dim, alg.field.p
    for i, j, k in product(range(n), repeat=3):
        if i <= j:
            mul = alg.mul.copy()
            mul[i, j, k] = mul[j, i, k] = (mul[i, j, k] + 1) % p
            yield (i, j, k), mul


class TestAssociativityOnGenerators:
    """SCAlgebra._validate decides associativity on algebra_generators, by
    the middle nucleus; the check on every basis triple is its oracle."""

    @pytest.mark.parametrize(
        "spec, which",
        [
            ("mu:3:4", "stored"),
            ("addetale:3:2", "stored"),
            ("mu:5:8", "stored"),
            ("mu:3:4", "none"),
            ("addetale:3:2", "none"),
            ("mu:3:4", "t+t2"),
        ],
    )
    def test_symmetric_pair_mutants_match_basis_triples(self, spec, which):
        """Every mutant gets the oracle's verdict and message; a failing
        associativity check may name another triple than the oracle's first,
        but one at which the oracle fails too. Without a generator the greedy
        set is the one basis vector t = e_1; t + t2 generates F_3[T]/(T^4 - 1)
        with two basis vectors other than the unit in its support, so the
        triple is found among them."""
        alg = parse_builtin(spec).algebra
        p = alg.field.p
        gen = {"stored": alg.generator, "none": None, "t+t2": np.array([0, 1, 1, 0])}[which]
        gens = algebra_generators(SCAlgebra(alg.field, alg.basis, alg.mul, alg.unit, generator=gen))
        assert gens.tolist() == (np.eye(alg.dim, dtype=np.int64)[1:2].tolist() if gen is None else [gen.tolist()])
        kinds = set()
        for pair, mul in _symmetric_pair_mutants(alg):
            want = validation_error_by_basis_triples(alg.field, mul, alg.unit, gen)
            try:
                SCAlgebra(alg.field, alg.basis, mul, alg.unit, generator=gen)
                got = None
            except ValueError as exc:
                got = str(exc)
            kinds.add(None if want is None else want.split()[0])
            if want is not None and want.startswith("multiplication is not associative"):
                prefix = "multiplication is not associative at basis triple ("
                assert got is not None and got.startswith(prefix) and got.endswith(")"), (pair, got)
                i, k, j = (int(v) for v in got[len(prefix) : -1].split(","))
                assert associator_by_basis_triples(mul, p)[i, k, j], (pair, got)
            else:
                assert got == want, pair
        assert {"multiplication", "declared"} <= kinds, kinds

    def test_zero_unit_with_a_generator_names_the_unit(self):
        """The unit is checked before the generators, whose minimal
        polynomial a zero unit would stop with a RuntimeError."""
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        with pytest.raises(ValueError, match="declared unit is not a multiplicative identity"):
            SCAlgebra(F5, alg.basis, alg.mul, np.zeros(4, dtype=np.int64), generator=alg.generator)

    def test_monogenic_validation_takes_at_most_dim_rows(self, monkeypatch):
        """On mu:7:48 no mul_matrices call of _validate takes more than 48
        rows; a check on every basis triple takes 48^2 = 2,304 in one."""
        alg = parse_builtin("mu:7:48").algebra
        rows = []
        mul_matrices = SCAlgebra.mul_matrices

        def counted(self, u):
            rows.append(len(u))
            return mul_matrices(self, u)

        monkeypatch.setattr(SCAlgebra, "mul_matrices", counted)
        SCAlgebra(alg.field, alg.basis, alg.mul, alg.unit, generator=alg.generator)
        assert rows and max(rows) <= 48, rows


class TestTensorAlgebra:
    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError, match="field"):
            tensor_algebra(monogenic_algebra(F3, P("T^2+1")), monogenic_algebra(F5, P("T^2+2", F5)))

    def test_f9_tensor_f9_splits_into_two_fields(self):
        f9 = monogenic_algebra(F3, P("T^2+1"))
        ten = tensor_algebra(f9, f9)
        assert ten.dim == 4
        pts = maximal_spectrum(ten)
        assert [pt.degree for pt in pts] == [2, 2]
        assert nilradical(ten).dim == 0

    def test_tensor_with_base_field_is_identity(self):
        base = monogenic_algebra(F3, P("T-1"))
        f9 = monogenic_algebra(F3, P("T^2+1"))
        ten = tensor_algebra(f9, base)
        assert ten.dim == f9.dim
        assert (ten.mul == f9.mul).all()

    def test_mu4_tensor_square_has_16_points(self):
        a = monogenic_algebra(F5, P("T^4-1", F5))
        ten = tensor_algebra(a, a)
        assert ten.dim == 16
        assert len(maximal_spectrum(ten)) == 16


class TestQuotientAlgebra:
    def test_mu4_mod_t2_minus_1(self):
        a = monogenic_algebra(F5, P("T^4-1", F5))
        ideal = IdealSubspace.from_poly(a, P("T^2-1", F5))
        quo, pi = quotient_algebra(a, ideal)
        assert quo.dim == 2
        assert minimal_polynomial(quo.generator, quo) == P("T^2-1", F5)
        assert is_algebra_hom(pi, a, quo)

    def test_zero_ideal_gives_same_algebra(self):
        a = monogenic_algebra(F3, P("T^2+1"))
        quo, pi = quotient_algebra(a, IdealSubspace(a, np.zeros((0, 2), dtype=np.int64)))
        assert quo.dim == a.dim
        assert (pi == np.eye(2, dtype=np.int64)).all()

    def test_t3_minus_t_mod_t(self):
        a = monogenic_algebra(F3, P("T^3-T"))
        ideal = IdealSubspace.from_poly(a, P("T"))
        quo, _ = quotient_algebra(a, ideal)
        assert quo.dim == 1

    def test_unit_ideal_rejected(self):
        a = monogenic_algebra(F3, P("T^2+1"))
        with pytest.raises(ValueError, match="unit ideal"):
            quotient_algebra(a, IdealSubspace.from_poly(a, FpPoly.one(F3)))

    def test_kernel_of_projection_is_ideal(self):
        a = t9_minus_t()
        ideal = IdealSubspace.from_poly(a, P("T^2+1"))
        quo, pi = quotient_algebra(a, ideal)
        from hyperspec.linalg import nullspace

        ker = nullspace(pi, 3)
        assert IdealSubspace(a, ker) == ideal


class TestSpectrum:
    def test_mu4_spectrum(self):
        pts = maximal_spectrum(monogenic_algebra(F5, P("T^4-1", F5)))
        assert sorted(pt.label for pt in pts) == ["(T-1)", "(T-2)", "(T-3)", "(T-4)"]
        assert all(pt.degree == 1 for pt in pts)

    def test_field_has_unique_zero_ideal_point(self):
        pts = maximal_spectrum(monogenic_algebra(F3, P("T^2+1")))
        assert len(pts) == 1
        assert pts[0].degree == 2
        assert pts[0].ideal.dim == 0

    def test_t9_minus_t_spectrum(self):
        pts = maximal_spectrum(t9_minus_t())
        labels = [pt.label for pt in pts]
        assert labels[:3] == ["(T)", "(T-2)", "(T-1)"] or sorted(labels[:3]) == sorted(["(T)", "(T-1)", "(T-2)"])
        assert sorted(labels[3:]) == ["(T^2+1)", "(T^2+2T+2)", "(T^2+T+2)"]
        assert [pt.degree for pt in pts] == [1, 1, 1, 2, 2, 2]

    def test_points_ordered_by_degree_then_basis(self):
        pts = maximal_spectrum(t9_minus_t())
        keys = [(pt.degree,) + pt.ideal.sort_key() for pt in pts]
        assert keys == sorted(keys)

    def test_every_point_is_prime(self):
        for alg in (t9_minus_t(), monogenic_algebra(F5, P("T^4-1", F5))):
            for pt in maximal_spectrum(alg):
                assert ideal_is_prime_by_quotient(alg, pt.ideal)

    def test_pairwise_comaximal(self):
        alg = t9_minus_t()
        pts = maximal_spectrum(alg)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                s = rref(np.vstack([pts[i].ideal.basis, pts[j].ideal.basis]), 3)[0]
                assert s.shape[0] == alg.dim  # sum is the unit ideal

    def test_degrees_plus_nilradical_fill_dimension(self):
        for alg in (
            t9_minus_t(),
            monogenic_algebra(F5, P("T^4-1", F5)),
            monogenic_algebra(F3, P("T^3", F3)),
            monogenic_algebra(F3, P("T^6+T^4+2T^2+2")),
        ):
            pts = maximal_spectrum(alg)
            assert sum(pt.degree for pt in pts) + nilradical(alg).dim == alg.dim

    def test_residue_maps_are_algebra_homs(self):
        alg = t9_minus_t()
        for pt in maximal_spectrum(alg):
            assert is_algebra_hom(pt.resmap, alg, residue_field(pt))

    def test_local_nonreduced_algebra(self):
        alg = monogenic_algebra(F3, P("T^3"))  # local, residue F_3
        pts = maximal_spectrum(alg)
        assert len(pts) == 1
        assert pts[0].degree == 1
        assert pts[0].ideal.dim == 2

    def test_mixed_nilpotents_and_split_points(self):
        # T^2(T-1) : two points, one with nilpotents
        alg = monogenic_algebra(F3, P("T^3+2T^2"))
        pts = maximal_spectrum(alg)
        assert len(pts) == 2
        assert sorted(pt.label for pt in pts) == ["(T)", "(T-1)"]


# test_algkernel's monogenic F_3-algebras, with and without nilpotents, and
# larger spectra: F_9 (x) F_9, mu:13:12, addetale:3:3 (dim 27) and
# mu:37:36 (36 points, split by one minimal polynomial)
SPECTRUM_ALGEBRAS = ["F3[T]/(T^9-T)", "F3[T]/(T^3)", "F3[T]/(T^3+2T^2)", "F3[T]/(T^6+T^4+2T^2+2)"]
SPECTRUM_ALGEBRAS += ["F9(x)F9", "mu:13:12", "addetale:3:3", "mu:37:36"]


def spectrum_algebra(name, request):
    if name == "fs3":
        return request.getfixturevalue("fs3").algebra
    if name == "F9(x)F9":
        f9 = monogenic_algebra(F3, P("T^2+1"))
        return tensor_algebra(f9, f9)
    if name.startswith("F3[T]/"):
        return monogenic_algebra(F3, P(name[len("F3[T]/(") : -1]))
    return parse_builtin(name).algebra


class TestSpectrumAgainstReducedQuotient:
    """maximal_spectrum splits the Frobenius fixed space of A itself; the
    reduced-quotient split with lifted idempotents is its oracle."""

    @pytest.mark.parametrize("name", LEMMA_ALGEBRAS + SPECTRUM_ALGEBRAS)
    def test_every_field_matches_oracle(self, name, request):
        alg = spectrum_algebra(name, request)
        assert spectrum_fields(maximal_spectrum(alg)) == spectrum_fields(maximal_spectrum_by_reduced_quotient(alg))

    @pytest.mark.parametrize("name", NON_REDUCED + ["fs3"])
    def test_fixed_space_is_spanned_by_idempotents(self, name, request):
        """Ker(Frob - 1) of A is the row space of the stored idempotents,
        and each stored ideal is the kernel of x -> e x^(p^m)."""
        alg = spectrum_algebra(name, request)
        p = alg.field.p
        pts = maximal_spectrum(alg)
        fixed = nullspace_twopass(npmod(alg.frobenius - np.eye(alg.dim, dtype=np.int64), p), p)
        spanned = rref(np.array([pt.idempotent for pt in pts]), p)[0]
        assert fixed.shape == spanned.shape == (len(pts), alg.dim)
        assert (fixed == spanned).all()
        for pt in pts:
            kernel = nullspace_twopass(matmul(alg.left_mul_matrix(pt.idempotent), alg.nil_frobenius, p), p)
            assert pt.ideal == IdealSubspace(alg, kernel), (name, pt.label)


class TestResidueByProjection:
    """A point's residue field is its resmap, a projection of A:
    maximal_spectrum builds no algebra, and keeps the two checks that
    quotient_algebra made on each kernel, a proper and absorbing ideal."""

    @pytest.mark.parametrize("name", SPECTRUM_ALGEBRAS + ["fs3"])
    def test_builds_no_algebra(self, monkeypatch, name, request):
        alg = spectrum_algebra(name, request)
        fresh = SCAlgebra(alg.field, alg.basis, alg.mul, alg.unit, alg.generator)
        built = count_algebra_constructions(monkeypatch)
        pts = maximal_spectrum(fresh)
        assert built == [0] and pts, (name, built)
        assert all(pt.resmap is pt.ideal.projection()[0] and pt.degree == len(pt.resmap) for pt in pts)

    @pytest.mark.parametrize("check, verdict", [("is_unit_ideal", True), ("is_absorbing", False)])
    def test_a_kernel_that_is_no_proper_ideal_raises(self, monkeypatch, check, verdict):
        alg = t9_minus_t()
        monkeypatch.setattr(IdealSubspace, check, lambda self: verdict)
        with pytest.raises(RuntimeError, match="^the kernel at a primitive idempotent is not a proper ideal$"):
            maximal_spectrum(alg)


class TestSplitCost:
    """The split reads a minimal polynomial (a _first_monic_relation call
    from maximal_spectrum's own frame) only where it splits an idempotent:
    each has degree at least 2, so each adds at least one idempotent, and
    there are at most r - 1 of them for r points."""

    @staticmethod
    def split_calls(monkeypatch, name, request):
        alg = spectrum_algebra(name, request)
        fresh = unvalidated_algebra(alg.field, alg.basis, alg.mul, alg.unit, alg.generator)
        degrees = []
        original = algkernel._first_monic_relation

        def counted(powers, field):
            m = original(powers, field)
            if sys._getframe(1).f_code is algkernel.maximal_spectrum.__code__:
                degrees.append(m.degree)
            return m

        monkeypatch.setattr(algkernel, "_first_monic_relation", counted)
        pts = maximal_spectrum(fresh)
        count = len(degrees)
        assert min(degrees, default=2) >= 2, (name, degrees)
        assert spectrum_fields(pts) == spectrum_fields(maximal_spectrum(alg))
        return count, len(pts)

    # mu:5:8 and addetale:3:3 meet idempotents u·e = c·e whose first nonzero
    # coordinate is not 1, where c must be read as a quotient
    @pytest.mark.parametrize("name", ["mu:13:12", "addetale:11:1", "mu:7:48", "mu:3:24", "fs3", "mu:5:8", "addetale:3:3"])
    def test_at_most_one_fewer_than_the_points(self, monkeypatch, name, request):
        calls, points = self.split_calls(monkeypatch, name, request)
        assert calls <= points - 1, (name, calls, points)

    def test_one_call_on_mu_37_36(self, monkeypatch, request):
        """Its 36 points split off one generic fixed vector at once."""
        assert self.split_calls(monkeypatch, "mu:37:36", request) == (1, 36)


def zero_divisor_free(alg, ideal):
    """The primality oracle: A/I is nonzero and no two nonzero elements of it
    multiply to zero, by a scan of every product."""
    if ideal.is_unit_ideal():
        return False
    quo, _ = quotient_algebra(alg, ideal)
    p = alg.field.p
    vecs = enumerate_vectors(p, quo.dim)[1:]  # skip zero
    for u in vecs:
        prods = matmul(quo.left_mul_matrix(u), vecs.T, p)
        if (~prods.any(axis=0)).any():
            return False
    return True


def monic_divisors(poly):
    """Every monic divisor of poly, from its factorization."""
    divisors = [FpPoly.one(poly.field)]
    for q, mult in factor(poly):
        powers = [FpPoly.one(poly.field)]
        for _ in range(mult):
            powers.append(powers[-1] * q)
        divisors = [d * e for d in divisors for e in powers]
    return divisors


def in_spectrum(alg, ideal):
    """Primality as spectrum membership: the primes of a finite-dimensional
    algebra are its maximal ideals, which maximal_spectrum lists."""
    return ideal in {pt.ideal for pt in maximal_spectrum(alg)}


class TestIdealIsPrime:
    """Spectrum membership against two primality oracles that share no code
    with maximal_spectrum: a zero-divisor scan of A/I and the Frobenius data
    of the quotient algebra."""

    @pytest.mark.parametrize(
        "field, text, count",
        [(F3, "T^9-T", 64), (F3, "T^3", 4), (F3, "T^6+T^4+2T^2+2", 12), (F5, "T^4-1", 16)],
        ids=["F3-T^9-T", "F3-T^3", "F3-T^6+T^4+2T^2+2", "F5-T^4-1"],
    )
    def test_agrees_with_zero_divisor_scan_on_every_divisor(self, field, text, count):
        modulus = P(text, field)
        alg = monogenic_algebra(field, modulus)
        divisors = monic_divisors(modulus)
        assert len(divisors) == count
        for d in divisors:
            ideal = IdealSubspace.from_poly(alg, d)
            assert in_spectrum(alg, ideal) == zero_divisor_free(alg, ideal), str(d)

    def test_agrees_with_zero_divisor_scan_on_preimage_ideals(self, suite_algebras):
        # the forced-zero ideal of a pair is prime iff f*g has one member
        for h in suite_algebras:
            for f, g in product(ops.kpoints(h), repeat=2):
                res = ops.hyperop(h, f, g)
                prime = zero_divisor_free(h.algebra, res.forced_zero)
                assert (len(res.members) == 1) == prime == in_spectrum(h.algebra, res.forced_zero), (
                    h.name, f.label, g.label,
                )

    def test_t_in_t3_minus_t(self):
        alg = monogenic_algebra(F3, P("T^3-T"))
        ideal = IdealSubspace.from_poly(alg, P("T"))
        assert in_spectrum(alg, ideal) and ideal_is_prime_by_quotient(alg, ideal)

    def test_t3_plus_t_not_prime(self):
        alg = t9_minus_t()
        ideal = IdealSubspace.from_poly(alg, P("T^3+T"))
        assert not in_spectrum(alg, ideal) and not ideal_is_prime_by_quotient(alg, ideal)

    def test_zero_ideal_in_field(self):
        alg = monogenic_algebra(F3, P("T^2+1"))
        ideal = IdealSubspace(alg, np.zeros((0, 2), dtype=np.int64))
        assert in_spectrum(alg, ideal) and ideal_is_prime_by_quotient(alg, ideal)

    def test_unit_ideal_is_not_prime(self):
        alg = monogenic_algebra(F3, P("T^2+1"))
        ideal = IdealSubspace.from_poly(alg, FpPoly.one(F3))
        assert not in_spectrum(alg, ideal) and not ideal_is_prime_by_quotient(alg, ideal)

    def test_rejects_subspace_that_is_not_an_ideal(self):
        alg = t9_minus_t()
        sub = IdealSubspace(alg, np.eye(9, dtype=np.int64)[1:2])
        assert not in_spectrum(alg, sub)
        with pytest.raises(ValueError, match="not an ideal"):
            ideal_is_prime_by_quotient(alg, sub)

    @pytest.mark.parametrize("spec", ["mu:3:6", "mu:3:9", "mu:5:8", "addetale:3:3"])
    def test_frobenius_ranks_match_quotient_oracle(self, spec):
        """Ideals from one or two random generators q(t)^k, q monic of degree
        at most 3 and k <= 2, against the quotient-algebra test. In the
        non-reduced mu:3:6 and mu:3:9 some quotients have nilpotents."""
        alg = parse_builtin(spec).algebra
        field = alg.field
        p = field.p
        rng = np.random.default_rng(sum(map(ord, spec)))
        verdicts = {"prime": 0, "reduced, not prime": 0, "not reduced": 0}
        for _ in range(40):
            gens = []
            for _ in range(int(rng.integers(1, 3))):
                q = FpPoly.make(field, [int(c) for c in rng.integers(0, p, size=int(rng.integers(1, 4)))] + [1])
                gens.append(power(alg, alg.element_from_poly(q), int(rng.integers(1, 3))))
            ideal = IdealSubspace.from_generators(alg, gens)
            prime = in_spectrum(alg, ideal)
            assert prime == ideal_is_prime_by_quotient(alg, ideal), [g.tolist() for g in gens]
            if ideal.is_unit_ideal():
                continue
            quo, _ = quotient_algebra(alg, ideal)
            reduced = nilradical(quo).dim == 0
            verdicts["prime" if prime else ("reduced, not prime" if reduced else "not reduced")] += 1
        assert verdicts["prime"] and verdicts["reduced, not prime"] + verdicts["not reduced"], verdicts
        if spec in ("mu:3:6", "mu:3:9"):
            assert verdicts["not reduced"], verdicts


class TestIdealSubspace:
    def test_absorbing_is_decided_once(self, monkeypatch):
        alg = t9_minus_t()
        ideal = IdealSubspace.from_poly(alg, P("T^2+1"))
        calls = []
        reduce_rows_ = algkernel.reduce_rows
        monkeypatch.setattr(algkernel, "reduce_rows", lambda *args: calls.append(1) or reduce_rows_(*args))
        assert ideal.is_absorbing() and ideal.is_absorbing()
        assert len(calls) == 1

    def test_reduces_unreduced_entries(self):
        """The constructor is where a caller's vectors enter, so it reduces
        them; the echelon form behind it takes residues."""
        alg = monogenic_algebra(PrimeField(5), FpPoly.make(PrimeField(5), [0, 0, 0, 1]))
        ideal = IdealSubspace(alg, np.array([[-1, 7, 10], [2**40, 3, -6]]))  # [4, 2, 0], [1, 3, 4] mod 5
        assert (ideal.basis.tolist(), ideal.pivots) == ([[1, 3, 0], [0, 0, 1]], [0, 2])

    def test_absorbing_check(self):
        alg = t9_minus_t()
        ideal = IdealSubspace.from_poly(alg, P("T^2+1"))
        assert ideal.is_absorbing()
        # a random subspace is typically not an ideal
        sub = IdealSubspace(alg, np.eye(9, dtype=np.int64)[1:2])
        assert not sub.is_absorbing()

    @pytest.mark.parametrize("spec", ["mu:5:4", "addetale:3:2"])
    def test_absorbing_on_generators_equals_all_basis_vectors(self, spec):
        """I·s in I for the generator s against I·e_j in I for every basis
        vector, on random subspaces and on every pair ideal."""
        h = parse_builtin(spec)
        alg = h.algebra
        p, n = alg.field.p, alg.dim

        def absorbing_by_basis(ideal):
            prods = alg.mul_matrices(ideal.basis).reshape(-1, n)
            return not reduce_rows(prods, ideal.basis, ideal.pivots, p).any()

        rng = np.random.default_rng(3)
        subspaces = [IdealSubspace(alg, rng.integers(0, p, size=(k, n))) for k in range(n + 1) for _ in range(8)]
        pairs = [ops.hyperop(h, f, g).forced_zero for f, g in product(ops.kpoints(h), repeat=2)]
        assert len(algebra_generators(alg)) == 1
        verdicts = [(ideal.is_absorbing(), absorbing_by_basis(ideal)) for ideal in subspaces + pairs]
        assert all(got == want for got, want in verdicts)
        assert {want for _, want in verdicts} == {True, False}
        assert all(ideal.is_absorbing() for ideal in pairs)

    def test_canonical_equality(self):
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        a = IdealSubspace.from_poly(alg, P("T^2-1", F5))
        b = IdealSubspace.from_generators(
            alg, [alg.element_from_poly(P("2T^2-2", F5)), alg.element_from_poly(P("T^3-T", F5))]
        )
        assert a == b

    def test_generator_poly(self):
        alg = t9_minus_t()
        ideal = IdealSubspace.from_poly(alg, P("T^3+T"))
        assert ideal.generator_poly() == P("T^3+T")


def quotient_loop(alg, ideal):
    """quotient_algebra's (pi, structure tensor) as first written, kept as its
    oracle: pi from the residuals of the basis vectors, and one product and
    one projection per pair of free basis vectors."""
    p = alg.field.p
    n = alg.dim
    free = [c for c in range(n) if c not in ideal.pivots]
    eye = np.eye(n, dtype=np.int64)
    resid = reduce_rows(eye, ideal.basis, ideal.pivots, p)
    pi = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        pi[k] = resid[:, c]
    mul = np.zeros((len(free),) * 3, dtype=np.int64)
    for i, a in enumerate(free):
        for j, b in enumerate(free):
            mul[i, j] = matmul(pi, alg.mul_by(eye[a], eye[b][None])[0], p)
    return pi, mul


def frobenius_loop(alg):
    """The Frobenius matrix by p - 1 successive products per basis vector,
    the oracle of the generator rule."""
    frob = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for i, e in enumerate(np.eye(alg.dim, dtype=np.int64)):
        x = e
        for _ in range(alg.field.p - 1):
            x = alg.mul_by(x, e[None])[0]
        frob[:, i] = x
    return frob


class TestBatchedKernelsAgainstLoops:
    """quotient_algebra's single contraction, the batched Frobenius matrix and
    the early-stopping generator_poly against the loops they replaced."""

    @pytest.fixture(scope="class")
    def ideals(self, suite_algebras, mu1312, mu54, ae32):
        out = [(h.algebra, descent_ideal(h)) for h in suite_algebras + [mu1312]]
        out += [(h.algebra, pt.ideal) for h in (mu54, ae32) for pt in maximal_spectrum(h.algebra)]
        return out

    def test_quotient_tensor_and_projection(self, ideals):
        for alg, ideal in ideals:
            quo, pi = quotient_algebra(alg, ideal)
            want_pi, want_mul = quotient_loop(alg, ideal)
            assert (pi == want_pi).all() and (quo.mul == want_mul).all()
            assert pi.shape == (alg.dim - ideal.dim, alg.dim)
            assert not matmul(pi, ideal.basis.T, alg.field.p).any()

    def test_frobenius_matrix(self, ideals, fs3):
        """Also on algebras with no stored generator, whose words come from
        greedy sets of 5, 2 and 1 basis vectors: F_3^{S_3}, a tensor square
        and mu:7:6 without its generator; on the non-reduced mu:3:6 and
        mu:3:9; and on F_p[T]/(T^2 + 1) with p = 2^31 - 1 = 3 mod 4, where
        T^2 + 1 is irreducible and Frob(t) = t^p = -t, against t^p by
        square-and-multiply in Python ints: frobenius_loop would take p - 1
        products there."""
        algebras = [alg for alg, _ in ideals] + [quotient_algebra(alg, ideal)[0] for alg, ideal in ideals]
        algebras += [field_algebra(p, m)[0] for p, m in ((2, 3), (3, 4), (7, 2), (13, 1))]
        mu54, mu76 = parse_builtin("mu:5:4").algebra, parse_builtin("mu:7:6").algebra
        algebras += [fs3.algebra, tensor_algebra(mu54, mu54), SCAlgebra(mu76.field, mu76.basis, mu76.mul, mu76.unit)]
        algebras += [parse_builtin(spec).algebra for spec in ("mu:3:6", "mu:3:9")]
        assert [len(algebra_generators(alg)) for alg in algebras[-5:]] == [5, 2, 1, 1, 1]
        for alg in algebras:
            assert (alg.frobenius == frobenius_loop(alg)).all()
        p = 2**31 - 1
        field = PrimeField(p)
        alg = monogenic_algebra(field, FpPoly.make(field, [1, 0, 1]))

        def times(u, v):  # (a + bt)(c + dt), with t^2 = -1
            return [(u[0] * v[0] - u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p]

        acc, base, e = [1, 0], [0, 1], p
        while e:
            acc, base, e = (times(acc, base) if e & 1 else acc), times(base, base), e >> 1
        assert alg.frobenius.tolist() == [[1, acc[0]], [0, acc[1]]] == [[1, 0], [0, p - 1]]

    def test_generator_poly_equals_full_cascade(self, suite_algebras, mu1312):
        seen = 0
        for h in suite_algebras + [mu1312]:
            ideals = [pt.ideal for pt in maximal_spectrum(h.algebra)]
            ideals += [ops.hyperop(h, f, g).forced_zero for f, g in product(ops.kpoints(h), repeat=2)]
            for ideal in ideals:
                assert ideal.generator_poly() == gcd_cascade(ideal)
                seen += 1
        assert seen == sum(len(ops.kpoints(h)) * (len(ops.kpoints(h)) + 1) for h in suite_algebras + [mu1312])

    def test_generator_poly_is_computed_once(self, monkeypatch, mu1312):
        """The first call reads one monic relation, among the dim A/I + 1
        projected powers of g; a second call returns the same object and
        reads none."""
        ideal = IdealSubspace(mu1312.algebra, maximal_spectrum(mu1312.algebra)[3].ideal.basis)
        relations = []
        original = algkernel._first_monic_relation

        def counted(pows, field):
            relations.append(len(pows))
            return original(pows, field)

        monkeypatch.setattr(algkernel, "_first_monic_relation", counted)
        first = ideal.generator_poly()
        assert relations == [mu1312.dim - ideal.dim + 1] and first == gcd_cascade(ideal)
        relations.clear()
        assert ideal.generator_poly() is first and ideal.polynomial is first
        assert relations == []


def zero_ideal(alg):
    return IdealSubspace(alg, np.zeros((0, alg.dim), dtype=np.int64))


# builtins whose descent quotients carry the projected generator
DESCENT_BUILTINS = ["mu:3:2", "mu:5:4", "addetale:3:1", "addetale:3:2", "mu:7:6", "mu:3:8", "mu:5:8", "mu:3:10"]
DESCENT_BUILTINS += ["mu:3:6", "mu:3:9", "mu:3:24", "mu:7:28", "mu:13:12", "addetale:3:3"]


class TestIdealPolynomial:
    """IdealSubspace.polynomial, the one rule: the minimal polynomial of the
    stored generator modulo the ideal, read off the projected powers of g.
    The independent references are the minimal polynomial of the residue
    field's own generator and the gcd cascade."""

    @pytest.mark.parametrize("spec", DESCENT_BUILTINS)
    def test_point_labels_equal_residue_minimal_polynomial(self, spec):
        """On the builtin, on its descent quotient and on each residue field.
        The quotients keep e_k = g^k under other basis names; most residue
        fields are off the power basis (their unit or g is no basis vector),
        and there generator_poly is None while the rule still reads the
        label."""
        h = parse_builtin(spec)
        residues = []
        for alg in (h.algebra, quotient_algebra(h.algebra, descent_ideal(h))[0]):
            for pt in maximal_spectrum(alg):
                res = residue_field(pt)
                assert pt.label == f"({minimal_polynomial(res.generator, res)})", (spec, pt)
                assert pt.label == label_by_residue(res, pt.ideal) == f"({pt.ideal.polynomial})"
                residues.append((pt.label, res))
        for label, res in residues:
            assert [pt.label for pt in maximal_spectrum(res)] == [label] == [f"({zero_ideal(res).polynomial})"]

    def test_residues_cover_both_sides_of_the_power_basis(self):
        """The residue fields of the builtins above: 50 of 70 are off the
        power basis, 20 on it."""
        residues = [residue_field(pt) for spec in DESCENT_BUILTINS for pt in maximal_spectrum(parse_builtin(spec).algebra)]
        off = [res for res in residues if zero_ideal(res).generator_poly() is None]
        assert (len(off), len(residues)) == (50, 70)

    @pytest.mark.parametrize("spec", ["mu:3:1", "mu:5:4", "addetale:3:2", "mu:3:24", "mu:13:12"])
    def test_unit_ideal_gives_one(self, spec):
        h = parse_builtin(spec)
        for alg in (h.algebra, quotient_algebra(h.algebra, descent_ideal(h))[0]):
            unit = IdealSubspace(alg, np.eye(alg.dim, dtype=np.int64))
            assert unit.is_unit_ideal() and unit.polynomial == unit.generator_poly() == FpPoly.one(alg.field)

    def test_every_divisor_ideal_reads_its_divisor(self):
        """(d(g)) of F_3[T]/(T^9 - T) for every monic divisor d."""
        alg = t9_minus_t()
        for d in monic_divisors(P("T^9-T")):
            ideal = IdealSubspace.from_poly(alg, d)
            assert ideal.polynomial == ideal.generator_poly() == gcd_cascade(ideal) == d.monic()

    def test_stored_generator_powers_are_formed_once(self, monkeypatch):
        """A whole suite run on mu:7:48, from construction on, forms L_g in
        one mul_matrices call (the closure's) and runs one Krylov sequence
        under it (gen_powers): the Frobenius, the point labels,
        element_from_poly and generator_poly all read those rows, where the
        Frobenius, modulus and element_from_poly each formed them again."""
        from hyperspec.suite import run_algebra_suite

        ref = parse_builtin("mu:7:48").algebra
        g, lg = ref.generator, ref.mul_matrices(ref.generator[None])[0]
        by_g, krylovs = [], []
        mul_matrices, krylov = SCAlgebra.mul_matrices, SCAlgebra.krylov

        def counted_mul(self, u):
            by_g.extend([self] if np.array_equal(u, g[None]) else [])
            return mul_matrices(self, u)

        def counted_krylov(self, lmat, start, k):
            krylovs.extend([self] if np.array_equal(lmat, lg) else [])
            return krylov(self, lmat, start, k)

        monkeypatch.setattr(SCAlgebra, "mul_matrices", counted_mul)
        monkeypatch.setattr(SCAlgebra, "krylov", counted_krylov)
        h = parse_builtin("mu:7:48")
        assert run_algebra_suite(h)["ok"]
        assert h.algebra.element_from_poly(P("T^2", h.algebra.field)).tolist() == np.eye(48, dtype=np.int64)[2].tolist()
        assert [a is h.algebra for a in by_g] == [True] and [a is h.algebra for a in krylovs] == [True]


class TestAlgebraGenerators:
    def test_stored_generator_or_greedy_basis_vectors(self, fs3):
        """The stored generator when it generates, computed once; without
        one, each basis vector outside the subalgebra of the earlier ones:
        d0, ..., d4 for F_3^{S_3}, whose d5 = 1 - d0 - ... - d4, and 1⊗t,
        t⊗1 for (mu:5:3)⊗(mu:5:3), rows e_1 and e_3."""
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        gens = algebra_generators(alg)
        assert gens.tolist() == [alg.generator.tolist()] and gens is algebra_generators(alg)
        assert not gens.flags.writeable
        mu53 = parse_builtin("mu:5:3").algebra
        square = tensor_algebra(mu53, mu53)
        assert algebra_generators(fs3.algebra).tolist() == np.eye(6, dtype=np.int64)[:5].tolist()
        assert algebra_generators(square).tolist() == np.eye(9, dtype=np.int64)[[1, 3]].tolist()
        for h in (fs3, parse_builtin("mu:3:6")):
            assert (algebra_generators(h.algebra) == greedy_generators_by_span(h.algebra)).all()

    def test_closure_words_are_generator_products(self, fs3):
        """Word k > 0 is words[parent] times gens[t] for (parent, t) =
        steps[k], and the words are a basis, starting at the unit; mats are
        the generators' multiplication matrices."""
        mu53 = parse_builtin("mu:5:3").algebra
        for alg in (fs3.algebra, tensor_algebra(mu53, mu53), mu53, parse_builtin("mu:3:1").algebra):
            gens, mats, words, steps, _ = alg.closure
            assert (mats == alg.mul_matrices(gens)).all() and not mats.flags.writeable
            assert (words[0] == alg.unit).all() and steps[0] is None and len(steps) == alg.dim
            assert len(rref(words, alg.field.p)[1]) == alg.dim
            for k, (parent, t) in enumerate(steps[1:], start=1):
                assert (alg.mul_by(gens[t], words[parent][None])[0] == words[k]).all()

    def test_scalar_generator_is_rejected(self):
        """A scalar generator lies in span{1}, so it joins no set; its own
        check still rejects it, with the span of its powers read off the
        closure."""
        alg = parse_builtin("mu:3:2").algebra
        with pytest.raises(ValueError, match="'generator' does not generate the algebra: its powers span 1 of 2"):
            SCAlgebra(alg.field, alg.basis, alg.mul, alg.unit, generator=alg.unit)

    def test_greedy_validation_takes_at_most_gens_times_dim_rows(self, monkeypatch):
        """Without a stored generator, _validate and verify_hopf pass at
        most |S|·n rows to any mul_matrices call: 48 on mu:7:48 and 2 · 64
        on (mu:3:8)⊗(mu:3:8); a check on every basis vector as a generator
        took n^2 rows in one."""
        mu38 = parse_builtin("mu:3:8")
        cases = ((parse_builtin("mu:7:48"), 1), (product_hopf(mu38, mu38), 2))
        rows = []
        mul_matrices = SCAlgebra.mul_matrices

        def counted(self, u):
            rows.append(len(u))
            return mul_matrices(self, u)

        monkeypatch.setattr(SCAlgebra, "mul_matrices", counted)
        for h, size in cases:
            rows.clear()
            alg = SCAlgebra(h.algebra.field, h.algebra.basis, h.algebra.mul, h.algebra.unit)
            assert len(algebra_generators(alg)) == size
            assert verify_hopf(HopfData(alg, h.delta, h.counit, h.antipode)).ok
            assert rows and max(rows) <= size * alg.dim, (h, max(rows))

    def test_generator_that_does_not_generate_is_rejected(self):
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        with pytest.raises(ValueError, match="'generator' does not generate the algebra: its powers span 2 of 4"):
            SCAlgebra(F5, alg.basis, alg.mul, alg.unit, generator=alg.element_from_poly(P("T^2", F5)))

    def test_power_basis_reads_powers_not_names(self):
        """e_k = g^k decides it: 2t generates F_5[T]/(T^4-1) but is no
        power-basis generator, and renamed basis vectors still are; the
        rule reads the minimal polynomial of 2t, also T^4 - 1."""
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        assert zero_ideal(alg).generator_poly() == P("T^4-1", F5)
        two_t = SCAlgebra(F5, alg.basis, alg.mul, alg.unit, generator=2 * alg.generator)
        assert zero_ideal(two_t).generator_poly() is None and zero_ideal(two_t).polynomial == P("T^4-1", F5)
        renamed = SCAlgebra(F5, ["a", "b", "c", "d"], alg.mul, alg.unit, generator=alg.generator)
        assert zero_ideal(renamed).generator_poly() == P("T^4-1", F5)


class TestPowers:
    """SCAlgebra.powers(v, start, k), the rows start * v^j for j < k from
    one multiplication matrix, against one square-and-multiply power per
    exponent."""

    @pytest.mark.parametrize("name", ["F3[T]/(T^9-T)", "F3[T]/(T^3+2T^2)", "F9(x)F9", "mu:5:8", "fs3"])
    def test_equals_repeated_power(self, name, request):
        alg = spectrum_algebra(name, request)
        p, n = alg.field.p, alg.dim
        rng = np.random.default_rng(11)
        idem = next(pt.idempotent for pt in maximal_spectrum(alg) if not (pt.idempotent == alg.unit).all())
        elems = [rng.integers(0, p, size=n), idem] + ([] if alg.generator is None else [alg.generator])
        for v in elems:
            for start in (alg.unit, idem, rng.integers(0, p, size=n)):
                for k in (0, 1, 2, n + 1):
                    want = np.array([alg.mul_by(start, power(alg, v, j)[None])[0] for j in range(k)]).reshape(k, n)
                    got = alg.powers(v, start, k)
                    assert got.shape == (k, n) and (got == want).all(), (name, v.tolist(), start.tolist(), k)


def modulus_by_reconstruction(alg):
    """The modulus of a power basis as it was read before it came off the
    powers of the generator, kept as its oracle: None unless e_0 = 1 and
    e_k g = e_(k+1), read from the matrix of x -> g*x, else the modulus
    from t^(d-1) * t."""
    if alg.generator is None:
        return None
    n = alg.dim
    if not np.array_equal([alg.unit, *alg.left_mul_matrix(alg.generator).T[:-1]], np.eye(n, dtype=np.int64)):
        return None
    top = alg.mul_by(alg.generator, np.eye(n, dtype=np.int64)[n - 1 :])[0]
    return FpPoly.make(alg.field, [(-int(c)) % alg.field.p for c in top] + [1])


class TestPowerBasis:
    """generator_poly is the rule's polynomial exactly on the stored
    generator's power basis, e_k = g^k, and None elsewhere: on the zero
    ideal, the modulus against its reconstruction from L_g."""

    @pytest.mark.parametrize("name", SPECTRUM_ALGEBRAS[:4] + ["mu:3:1", "mu:5:4", "addetale:3:2", "mu:13:12", "mu:7:48"])
    def test_equals_reconstruction_on_power_bases(self, name, request):
        alg = spectrum_algebra(name, request)
        modulus = zero_ideal(alg).generator_poly()
        assert modulus is not None and modulus.degree == alg.dim
        assert modulus == modulus_by_reconstruction(alg), name

    @pytest.mark.parametrize("spec", ["mu:5:4", "addetale:3:2", "mu:7:48", "mu:3:24"])
    def test_equals_reconstruction_on_quotients_and_residues(self, spec):
        """Quotients keep the projected generator; some are still power
        bases and some are not, and the two reads agree on each."""
        h = parse_builtin(spec)
        algebras = [quotient_algebra(h.algebra, descent_ideal(h))[0]] + [residue_field(pt) for pt in maximal_spectrum(h.algebra)]
        for alg in algebras:
            assert zero_ideal(alg).generator_poly() == modulus_by_reconstruction(alg), (spec, alg.basis)
        assert any(zero_ideal(alg).generator_poly() is not None for alg in algebras)
        assert any(zero_ideal(alg).generator_poly() is None for alg in algebras)

    def test_none_off_the_power_basis(self):
        f9 = monogenic_algebra(F3, P("T^2+1"))
        assert zero_ideal(tensor_algebra(f9, f9)).generator_poly() is None
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        lower = np.array([[1, 0, 0, 0], [2, 1, 0, 0], [3, 4, 1, 0], [1, 2, 3, 1]], dtype=np.int64)
        inv = rref(np.hstack([lower, np.eye(4, dtype=np.int64)]), 5)[0][:, 4:]
        mul = npmod(np.einsum("ai,bj,abk,lk->ijl", inv, inv, alg.mul, lower), 5)
        conj = SCAlgebra(F5, alg.basis, mul, matmul(lower, alg.unit, 5), generator=matmul(lower, alg.generator, 5))
        assert len(algebra_generators(conj)) == 1
        assert zero_ideal(conj).generator_poly() is None and modulus_by_reconstruction(conj) is None
        for d in monic_divisors(P("T^4-1", F5)):  # the rule reads every ideal of the conjugated copy
            ideal = IdealSubspace.from_poly(conj, d)
            assert ideal.polynomial == d.monic() and ideal.generator_poly() is None
        for gen in (alg.unit, alg.element_from_poly(P("T^2", F5))):  # a generator that does not generate
            stuck = unvalidated_algebra(F5, alg.basis, alg.mul, alg.unit, generator=gen)
            assert zero_ideal(stuck).generator_poly() is None and modulus_by_reconstruction(stuck) is None


class TestSplitMatrices:
    """The split forms one multiplication matrix per visited fixed vector u:
    L_u gives u·e for every current idempotent e at once. The number
    visited is read independently: written on the primitive idempotents,
    the first j fixed vectors split F into as many idempotents as they have
    distinct coordinate columns, and the split stops at the first j with
    all r."""

    @pytest.mark.parametrize("name", ["mu:13:12", "addetale:3:3", "mu:7:48", "mu:5:8", "fs3", "F3[T]/(T^9-T)", "mu:37:36"])
    def test_one_matrix_per_visited_fixed_vector(self, monkeypatch, name, request):
        alg = spectrum_algebra(name, request)
        p, n = alg.field.p, alg.dim
        fixed = nullspace(npmod(alg.frobenius - np.eye(n, dtype=np.int64), p), p)
        idems = [pt.idempotent for pt in maximal_spectrum(alg)]

        def scalar(u, e):  # the a with u·e = a·e
            j = np.flatnonzero(e)[0]
            return int(alg.mul_by(u, e[None])[0, j]) * alg.field.inv(int(e[j])) % p

        coords = [[scalar(u, e) for e in idems] for u in fixed]
        splits = [len(set(zip(*coords[:j]))) if j else 1 for j in range(len(fixed) + 1)]
        visited = splits.index(len(idems))

        fresh = unvalidated_algebra(alg.field, alg.basis, alg.mul, alg.unit, alg.generator)
        _ = fresh.frobenius, fresh.nil_frobenius  # formed before the split is counted
        own = []
        mul_matrices = SCAlgebra.mul_matrices

        def counted(self, u):
            if sys._getframe(1).f_code is algkernel.maximal_spectrum.__code__:
                own.append(np.array(u))
            return mul_matrices(self, u)

        monkeypatch.setattr(SCAlgebra, "mul_matrices", counted)
        pts = maximal_spectrum(fresh)
        assert [u.tolist() for u in own] == [[row] for row in fixed[:visited].tolist()], name
        assert [pt.idempotent.tolist() for pt in pts] == [e.tolist() for e in idems]

    def test_split_products_on_mu_37_36(self, monkeypatch):
        """On a fresh mu:37:36 maximal_spectrum's own frame makes at most 74
        matmul calls: u·e for each of the two visited u, one product of a
        coefficient row with the Krylov rows per primitive idempotent, and
        one kernel product per point. A Lagrange factor product per ordered
        pair of roots took 1,298."""
        alg = parse_builtin("mu:37:36").algebra
        fresh = unvalidated_algebra(alg.field, alg.basis, alg.mul, alg.unit, alg.generator)
        _ = fresh.frobenius, fresh.nil_frobenius
        calls = [0]
        original = algkernel.matmul

        def counted(*args):
            calls[0] += sys._getframe(1).f_code is algkernel.maximal_spectrum.__code__
            return original(*args)

        monkeypatch.setattr(algkernel, "matmul", counted)
        pts = maximal_spectrum(fresh)
        assert len(pts) == 36 and calls[0] <= 74, calls
        assert [pt.idempotent.tolist() for pt in pts] == [pt.idempotent.tolist() for pt in maximal_spectrum(alg)]


class TestGeneratorMatrices:
    """The generators' multiplication matrices are formed once, by the
    closure: _validate forms one stack (e_i s) e_j per generator s from
    them, and is_absorbing and hom_witness form none."""

    @staticmethod
    def rows_from(monkeypatch, *frames):
        rows = []
        mul_matrices = SCAlgebra.mul_matrices

        def counted(self, u):
            if sys._getframe(1).f_code in frames:
                rows.append(len(u))
            return mul_matrices(self, u)

        monkeypatch.setattr(SCAlgebra, "mul_matrices", counted)
        return rows

    @pytest.mark.parametrize("name", ["mu:7:48", "fs3", "F9(x)F9"])
    def test_validation_forms_one_stack_per_generator(self, monkeypatch, name, request):
        alg = spectrum_algebra(name, request)
        rows = self.rows_from(monkeypatch, SCAlgebra._validate.__code__)
        built = SCAlgebra(alg.field, alg.basis, alg.mul, alg.unit, alg.generator)
        assert rows == [alg.dim] * len(algebra_generators(built)), (name, rows)

    @pytest.mark.parametrize("name", ["mu:7:48", "fs3", "F9(x)F9"])
    def test_frobenius_forms_only_the_images_matrices(self, monkeypatch, name, request):
        """Without a stored generator, once the closure is formed the
        Frobenius makes one mul_matrices call, from its own frame: the
        matrices of the generators' images Frob(s). Each Krylov sequence
        runs under the closure's L_s, where powers(s, ...) formed L_s again."""
        alg = spectrum_algebra(name, request)
        bare = SCAlgebra(alg.field, alg.basis, alg.mul, alg.unit)
        _ = bare.closure
        frames = []
        mul_matrices = SCAlgebra.mul_matrices

        def counted(self, u):
            frames.append((sys._getframe(1).f_code, len(u)))
            return mul_matrices(self, u)

        monkeypatch.setattr(SCAlgebra, "mul_matrices", counted)
        frob = bare.frobenius
        assert frames == [(SCAlgebra.frobenius.func.__code__, len(algebra_generators(bare)))], (name, frames)
        assert (frob == frobenius_loop(alg)).all()

    @pytest.mark.parametrize("name", ["mu:37:36", "fs3"])
    def test_absorption_and_hom_checks_form_none(self, monkeypatch, name, request):
        alg = spectrum_algebra(name, request)
        pts = maximal_spectrum(alg)
        residues = [residue_field(pt) for pt in pts]
        rows = self.rows_from(monkeypatch, IdealSubspace.is_absorbing.__code__, algkernel.hom_witness.__code__)
        for pt, residue in zip(pts, residues):
            assert IdealSubspace(alg, pt.ideal.basis).is_absorbing()
            assert is_algebra_hom(pt.resmap, alg, residue)
        assert rows == [], (name, rows)


class TestAlgebraHom:
    def test_composed_projection_is_algebra_hom(self):
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        ideal = IdealSubspace.from_poly(alg, P("T^2-1", F5))
        quo, pi = quotient_algebra(alg, ideal)
        ideal2 = IdealSubspace.from_poly(quo, P("T-1", F5))
        quo2, pi2 = quotient_algebra(quo, ideal2)
        composed = matmul(pi2, pi, 5)
        assert is_algebra_hom(composed, alg, quo2)
        v = alg.element_from_poly(P("T^3+2T", F5))
        assert (matmul(composed, v, 5) == matmul(pi2, matmul(pi, v, 5), 5)).all()

    def test_non_hom_is_rejected(self):
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        quo, pi = quotient_algebra(alg, IdealSubspace.from_poly(alg, P("T^2-1", F5)))
        assert not is_algebra_hom(2 * pi % 5, alg, quo)  # misses the unit
        shear = pi.copy()
        shear[0, 1] = 1  # 1 still goes to 1, but t goes to 1 + t, whose square is not 1
        assert not is_algebra_hom(shear, alg, quo)

    @pytest.mark.parametrize("spec", ["mu:5:4", "addetale:3:2", "mu:3:6"])
    def test_equals_basis_product_oracle(self, spec):
        """is_algebra_hom, decided on the generator, against mat(e_i e_j) =
        mat(e_i) mat(e_j) and mat(1) = 1 over every basis pair, on residue
        maps and on single-entry mutants of them."""
        alg = parse_builtin(spec).algebra
        p = alg.field.p
        rng = np.random.default_rng(4)
        verdicts = set()
        for pt in maximal_spectrum(alg):
            residue = residue_field(pt)
            for k in range(6):
                mat = pt.resmap.copy()
                if k:
                    mat[rng.integers(0, mat.shape[0]), rng.integers(0, mat.shape[1])] += rng.integers(1, p)
                lhs = np.einsum("kx,ijx->kij", mat, alg.mul) % p
                rhs = np.einsum("ai,bj,abk->kij", mat, mat, residue.mul) % p
                want = bool((mat @ alg.unit % p == residue.unit).all() and (lhs == rhs).all())
                assert is_algebra_hom(mat, alg, residue) == want, (pt.label, k)
                verdicts.add(want)
        assert verdicts == {True, False}


class TestInt64Bound:
    """Every algebra product goes through SCAlgebra.mul_matrices, which raises
    unless dim * (p-1)^2 < 2^63; below the bound it agrees with Python ints."""

    @staticmethod
    def exact_mul(u, v, modulus, p):
        """u * v in F_p[T]/(modulus) with Python ints, coefficients lowest first."""
        prod = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] += a * b
        d = len(modulus) - 1
        for k in range(len(prod) - 1, d - 1, -1):
            top, prod[k] = prod[k], 0
            for i in range(d):
                prod[k - d + i] -= top * modulus[i]
        return [c % p for c in prod[:d]]

    def test_dim_2_at_p_2_31_minus_1_is_exact(self):
        p = 2**31 - 1
        modulus = [5, 7, 1]
        alg = monogenic_algebra(PrimeField(p), FpPoly.make(PrimeField(p), modulus))
        u, v = [p - 1, p - 2], [p - 3, p - 4]
        want = self.exact_mul(u, v, modulus, p)
        assert alg.mul_by(np.array(u), np.array([v, v])).tolist() == [want, want]
        assert alg.element_from_poly(FpPoly.make(PrimeField(p), [p - 1, p - 2])).tolist() == [p - 1, p - 2]

    def test_dim_3_at_p_2_31_minus_1_raises(self):
        p = 2**31 - 1
        modulus = FpPoly.make(PrimeField(p), [5, 7, 11, 1])
        with pytest.raises(ValueError, match="overflow int64"):
            monogenic_algebra(PrimeField(p), modulus)  # validation multiplies through the same bound
        from hyperspec.gfarith import power_basis_tensor

        alg = unvalidated_algebra(PrimeField(p), ["1", "t", "t2"], power_basis_tensor(modulus), [1, 0, 0])
        u, v = [p - 1, p - 2, p - 3], [p - 4, p - 5, p - 6]  # wrapped to [833, 1082, 1709], not [859, 1120, 1783]
        with pytest.raises(ValueError, match="overflow int64"):
            alg.mul_by(np.array(u), np.array([v]))

    def test_element_from_poly_past_dim_at_p_2_31_minus_1(self):
        """poly(g) for a degree-8 poly on a dim-2 algebra, where 9 terms of
        (p-1)^2 would pass 2^63: poly is reduced modulo the minimal
        polynomial of g first. Horner in Python ints is the oracle, for the
        power-basis generator and another one."""
        p = 2**31 - 1
        field = PrimeField(p)
        modulus = [5, 7, 1]
        alg = monogenic_algebra(field, FpPoly.make(field, modulus))
        poly = FpPoly.make(field, [p - 1 - k for k in range(9)])
        for gen in ([0, 1], [p - 3, p - 2]):
            want = [0, 0]
            for c in reversed(poly.coeffs):
                want = self.exact_mul(want, gen, modulus, p)
                want[0] = (want[0] + c) % p
            alg_g = SCAlgebra(field, alg.basis, alg.mul, alg.unit, generator=gen)
            assert alg_g.element_from_poly(poly).tolist() == want, gen

    @pytest.mark.parametrize("n", [3, 4])
    def test_split_above_2_21_is_exact(self, n):
        """The primitive idempotents of F_p[T]/(T^n - 1), p = 3355453 = 1 mod
        12, are (1/n) sum_j z^-j T^j over the n-th roots z. A Lagrange factor
        (u·f - b·f)/(a - b) scaled before it is reduced reaches (p-1)^3 > 2^63
        and wraps in int64 here; p just above 2^21 rarely gets that far."""
        p = 3_355_453
        field = PrimeField(p)
        alg = monogenic_algebra(field, FpPoly.make(field, [-1] + [0] * (n - 1) + [1]))
        w = next(w for w in (pow(a, (p - 1) // n, p) for a in range(2, p)) if len({pow(w, k, p) for k in range(n)}) == n)
        want = sorted([pow(n, -1, p) * pow(w, -k * j, p) % p for j in range(n)] for k in range(n))
        assert sorted(pt.idempotent.tolist() for pt in maximal_spectrum(alg)) == want

    def test_largest_accepted_prime(self):
        p = 3_037_000_493
        field = PrimeField(p)
        line = monogenic_algebra(field, FpPoly.make(field, [p - 2, 1]))  # dim 1: (p-1)^2 < 2^63
        assert line.mul_by(np.array([p - 1]), np.array([[p - 3]])).tolist() == [[3]]
        with pytest.raises(ValueError, match="overflow int64"):
            monogenic_algebra(field, FpPoly.make(field, [1, 0, 1]))  # dim 2: 2 (p-1)^2 >= 2^63
