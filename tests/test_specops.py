import dataclasses
import hashlib
import json
import random
import sys
import tracemalloc
from itertools import product
from math import isqrt, lcm
from types import CodeType, SimpleNamespace

import numpy as np
import pytest
from conftest import (
    LAW_ORACLES,
    LEMMA_ALGEBRAS,
    NON_REDUCED,
    batch_tensor_rank_class,
    classical_comparison_by_homs,
    classical_points,
    descent_by_pairs,
    generator_less,
    ideal_is_prime_by_quotient,
    point_maps,
    point_maps_by_ideal,
    presentation_value_sets_naive,
    residue_field,
    span_rank_classes,
    tilde_by_preimage,
    triple_ideal_points_by_rowspan,
    triple_sides,
    unvalidated_algebra,
    weak_assoc_by_triples,
)

from hyperspec import hopfkernel, hyperkernel
from hyperspec import specops as ops
from hyperspec.algkernel import IdealSubspace, SCAlgebra, field_algebra, maximal_spectrum, nilradical
from hyperspec.gfarith import PrimeField, parse_poly, prime_power
from hyperspec.hopfkernel import HopfData, descent_ideal, hopf_quotient, iterated_coproduct, parse_builtin
from hyperspec.linalg import enumerate_vectors, matmul, npmod, nullspace, reduce_rows
from hyperspec.specops import ForcedValue


def elem(h, text):
    return h.algebra.element_from_poly(parse_poly(text, h.algebra.field))


# Independent oracle for the additive 9-dimensional algebra over F_3:
# arithmetic with roots in F_9 = F_3(i), i^2 = -1, elements as pairs (a, b).

AE32_ROOTS = {
    "(T)": [(0, 0)],
    "(T-1)": [(1, 0)],
    "(T-2)": [(2, 0)],
    "(T^2+1)": [(0, 1), (0, 2)],
    "(T^2+T+2)": [(1, 1), (1, 2)],
    "(T^2+2T+2)": [(2, 1), (2, 2)],
}


def _f9_label(z):
    a, b = z
    if b == 0:
        return "(T)" if a == 0 else f"(T-{a})"
    c1 = (-2 * a) % 3
    c0 = (a * a + b * b) % 3
    mid = "" if c1 == 0 else ("+T" if c1 == 1 else f"+{c1}T")
    return f"(T^2{mid}+{c0})"


def ae32_oracle(f_label, g_label):
    out = set()
    for a1, b1 in AE32_ROOTS[f_label]:
        for a2, b2 in AE32_ROOTS[g_label]:
            out.add(_f9_label(((a1 + a2) % 3, (b1 + b2) % 3)))
    return out


class TestKPoints:
    def test_spectrum_order_and_labels(self, ae32):
        assert [kp.label for kp in ops.kpoints(ae32)][3:] == sorted(
            ["(T^2+1)", "(T^2+T+2)", "(T^2+2T+2)"],
            key=lambda s: [kp.label for kp in ops.kpoints(ae32)][3:].index(s),
        )
        assert len(ops.kpoints(ae32)) == 6

    def test_k_value_is_kernel_indicator(self, mu54):
        f = ops.point_by_label(mu54, "(T-2)")
        assert f.k_value(elem(mu54, "T-2")) == 0
        assert f.k_value(elem(mu54, "T-1")) == 1
        assert f.k_value(mu54.algebra.unit) == 1

    def test_k_value_multiplicative(self, ae32):
        f = ops.point_by_label(ae32, "(T^2+1)")
        alg = ae32.algebra
        for x, y in [("T", "T-1"), ("T^2+1", "T"), ("T-2", "T-1")]:
            vx, vy = elem(ae32, x), elem(ae32, y)
            assert f.k_value(alg.mul_by(vx, vy[None])[0]) == f.k_value(vx) * f.k_value(vy)

    def test_k_value_of_a_stack_is_elementwise(self, ae32):
        elems = enumerate_vectors(3, ae32.dim)
        for f in ops.kpoints(ae32):
            assert f.k_value(elems).tolist() == [bool(f.k_value(x)) for x in elems]

    def test_one_object_per_point(self, suite_algebras, fs3):
        for h in suite_algebras + [fs3]:
            pts = ops.kpoints(h)
            assert ops.kpoints(h) is pts
            spectrum = maximal_spectrum(h.algebra)
            assert len(pts) == len(spectrum)
            for i, pt in enumerate(pts):
                assert pt is spectrum[i]
                assert ops.point_by_label(h, pt.label) is pt


class TestIdentityAndAntipode:
    def test_identity_points(self, mu54, ae32, mu32):
        assert ops.identity_point(mu54).label == "(T-1)"
        assert ops.identity_point(ae32).label == "(T)"
        assert ops.identity_point(mu32).label == "(T-1)"

    def test_antipode_on_mu4(self, mu54):
        f = ops.point_by_label(mu54, "(T-2)")
        assert ops.antipode_point(mu54, f).label == "(T-3)"  # 2^3 = 8 = 3 mod 5

    def test_antipode_on_additive(self, ae32):
        f = ops.point_by_label(ae32, "(T-1)")
        assert ops.antipode_point(ae32, f).label == "(T-2)"  # -1 = 2 mod 3

    def test_antipode_fixes_identity(self, suite_algebras):
        for h in suite_algebras:
            e = ops.identity_point(h)
            assert ops.antipode_point(h, e).index == e.index

    def test_antipode_is_involution(self, ae32):
        perm = ops.antipode_permutation(ae32)
        for i, j in enumerate(perm):
            assert perm[j] == i


class TestForcedValue:
    def test_spec_examples_additive(self, ae32):
        d = ops.point_by_label(ae32, "(T^2+1)")
        assert ops.forced_value(ae32, d, d, elem(ae32, "T^3+T")) is ForcedValue.ZERO
        assert ops.forced_value(ae32, d, d, ae32.algebra.generator) is ForcedValue.FREE
        b = ops.point_by_label(ae32, "(T-1)")
        assert ops.forced_value(ae32, b, b, elem(ae32, "T-2")) is ForcedValue.ZERO

    def test_unit_is_forced_one(self, suite_algebras):
        for h in suite_algebras:
            pts = ops.kpoints(h)
            assert ops.forced_value(h, pts[0], pts[-1], h.algebra.unit) is ForcedValue.ONE

    def test_zero_is_forced_zero(self, mu54):
        pts = ops.kpoints(mu54)
        z = np.zeros(4, dtype=np.int64)
        assert ops.forced_value(mu54, pts[0], pts[1], z) is ForcedValue.ZERO

    def test_matches_minor_oracle_on_every_element(self):
        # forced_value counts rref pivots; the 2x2-minor classifier shares no
        # code with it: every element of mu:3:4 at every pair, among them
        # the 2 x 2 tensors of its degree-2 point, where all three classes occur
        h = parse_builtin("mu:3:4")
        xs = enumerate_vectors(3, h.dim)
        seen = set()
        for f, g in product(ops.kpoints(h), repeat=2):
            want = batch_tensor_rank_class(matmul(xs, pair_matrix(h, f, g).T, 3).reshape(-1, f.degree, g.degree), 3)
            got = [ops.forced_value(h, f, g, x) for x in xs]
            assert got == [(ForcedValue.ZERO, ForcedValue.ONE, ForcedValue.FREE)[c] for c in want], (f.label, g.label)
            seen.update(want.tolist())
        assert seen == {0, 1, 2}


class TestDeltaPreimage:
    """The forced-zero ideal {x : Delta(x) in Ker f ⊗ A + A ⊗ Ker g} of a
    pair and its primality, |f*g| = 1."""

    def test_mu4_example(self, mu54):
        f = ops.point_by_label(mu54, "(T-2)")
        g = ops.point_by_label(mu54, "(T-3)")
        res = ops.hyperop(mu54, f, g)
        assert str(res.forced_zero.generator_poly()) == "T-1"
        assert len(res.members) == 1

    def test_additive_linear_example(self, ae32):
        b = ops.point_by_label(ae32, "(T-1)")
        res = ops.hyperop(ae32, b, b)
        assert str(res.forced_zero.generator_poly()) == "T-2"
        assert len(res.members) == 1

    def test_additive_quadratic_example_not_prime(self, ae32):
        d = ops.point_by_label(ae32, "(T^2+1)")
        res = ops.hyperop(ae32, d, d)
        assert str(res.forced_zero.generator_poly()) == "T^3+T"
        assert len(res.members) == 2  # a genuine non-prime preimage

    def test_preimage_is_absorbing_ideal(self, ae32):
        for f, g in product(ops.kpoints(ae32), repeat=2):
            assert ops.hyperop(ae32, f, g).forced_zero.is_absorbing()


class TestHyperop:
    def test_mu4_entry(self, mu54):
        f = ops.point_by_label(mu54, "(T-2)")
        g = ops.point_by_label(mu54, "(T-3)")
        assert ops.hyperop(mu54, f, g).labels() == ["(T-1)"]

    def test_mu4_full_table_is_group(self, mu54):
        for a, b in product(range(1, 5), repeat=2):
            f = ops.point_by_label(mu54, f"(T-{a})")
            g = ops.point_by_label(mu54, f"(T-{b})")
            want = f"(T-{a * b % 5})"
            assert ops.hyperop(mu54, f, g).labels() == [want]

    def test_additive_quadratic_pair(self, ae32):
        d = ops.point_by_label(ae32, "(T^2+1)")
        res = ops.hyperop(ae32, d, d)
        assert res.labels() == ["(T)", "(T^2+1)"]

    def test_full_ae32_table_matches_root_oracle(self, ae32):
        pts = ops.kpoints(ae32)
        for f, g in product(pts, repeat=2):
            got = set(ops.hyperop(ae32, f, g).labels())
            assert got == ae32_oracle(f.label, g.label), (f.label, g.label)

    def test_identity_absorbs(self, suite_algebras):
        for h in suite_algebras:
            e = ops.identity_point(h)
            for f in ops.kpoints(h):
                assert ops.hyperop(h, e, f).labels() == [f.label]
                assert ops.hyperop(h, f, e).labels() == [f.label]

    def test_members_satisfy_membership_invariant(self, ae32):
        d = ops.point_by_label(ae32, "(T^2+1)")
        res = ops.hyperop(ae32, d, d)
        p = 3
        for m in res.members:
            if res.forced_zero.dim:
                assert not (m.resmap @ res.forced_zero.basis.T % p).any()


class TestLemmaChecks:
    def test_nonempty_all(self, suite_algebras):
        for h in suite_algebras:
            assert ops.nonempty_check(h).ok

    def test_identity_law(self, suite_algebras):
        for h in suite_algebras:
            assert ops.identity_law_check(h).ok

    def test_inverse_law(self, suite_algebras):
        for h in suite_algebras:
            assert ops.inverse_law_check(h).ok

    def test_reversibility(self, mu54, ae32):
        assert ops.reversibility_check(mu54).ok
        assert ops.reversibility_check(ae32).ok

    def test_weak_associativity_with_triple_ideal(self, ae32):
        pts = ops.kpoints(ae32)
        d = ops.point_by_label(ae32, "(T^2+1)")
        res = ops.weak_assoc_check(ae32, d, d, d)
        assert res.nonempty
        assert set(m.label for m in res.intersection) >= {"(T)"} or res.intersection
        # triple ideal points exist and at least one lies in the intersection
        assert res.triple_ideal_points
        assert res.triple_point_in_intersection

    def test_weak_assoc_identity_triples(self, mu54):
        e = ops.identity_point(mu54)
        f = ops.point_by_label(mu54, "(T-2)")
        g = ops.point_by_label(mu54, "(T-3)")
        res = ops.weak_assoc_check(mu54, e, f, g)
        fg = set(ops.hyperop(mu54, f, g).labels())
        assert set(m.label for m in res.left) == fg
        assert set(m.label for m in res.right) == fg
        assert set(m.label for m in res.intersection) == fg

    @pytest.mark.parametrize("name", ["mu54", "ae32", "fs3"])
    def test_triple_ideal_matches_kronecker_definition(self, name, request):
        """Every triple against the definition: Ker(kron(pi_f, pi_g, pi_k) @
        iterated coproduct) and the points whose residue map kills it.
        addetale:3:2 has the degree-2 point (T^2+1); F_3^{S_3} is not
        cocommutative, so the order of the legs shows."""
        h = request.getfixturevalue(name)
        p = h.algebra.field.p
        hmat = iterated_coproduct(h)
        pts = ops.kpoints(h)
        for f, g, k in product(pts, repeat=3):
            big = np.kron(np.kron(f.resmap, g.resmap), k.resmap)
            ideal = IdealSubspace(h.algebra, nullspace(matmul(big, hmat, p), p))
            want = tuple(
                kp for kp in pts if not (ideal.dim and npmod(kp.resmap @ ideal.basis.T, p).any())
            )
            res = ops.weak_assoc_check(h, f, g, k)
            assert "triple_ideal" not in vars(res)  # computed on first access only
            assert res.triple_ideal_points == want, (f.label, g.label, k.label)
            assert res.triple_ideal == ideal, (f.label, g.label, k.label)

    def test_mu4_triples_match_group(self, mu54):
        for a, b, c in product(range(1, 5), repeat=3):
            f, g, k = (ops.point_by_label(mu54, f"(T-{v})") for v in (a, b, c))
            res = ops.weak_assoc_check(mu54, f, g, k)
            want = {f"(T-{a * b * c % 5})"}
            assert set(m.label for m in res.left) == want
            assert set(m.label for m in res.right) == want


@pytest.fixture(scope="module")
def assoc_algebras(suite_algebras, fs3):
    return suite_algebras + [parse_builtin("mu:3:8"), fs3]


def side_disagreements(h):
    """The triples whose weak_assoc_check sides differ from hyperop's."""
    bad = []
    for f, g, k in product(ops.kpoints(h), repeat=3):
        res = ops.weak_assoc_check(h, f, g, k)
        left, right = triple_sides(h, f, g, k)
        got = tuple(frozenset(m.index for m in side) for side in (res.left, res.right, res.intersection))
        if got != (left, right, left & right):
            bad.append((f.label, g.label, k.label))
    return bad


class TestWeakAssocFromMemberSets:
    def test_report_matches_per_triple_oracle(self, assoc_algebras):
        for h in assoc_algebras:
            assert ops.weak_assoc_all(h).to_json() == weak_assoc_by_triples(h).to_json(), h.name
        # mu:3:8 has degree-2 points, whose products have several members
        mu38 = assoc_algebras[-2]
        assert any(len(ops.hyperop(mu38, f, g).members) > 1 for f, g in product(ops.kpoints(mu38), repeat=2))

    @pytest.mark.parametrize("block_bytes", [hyperkernel.UNION_BLOCK_BYTES, 1], ids=["one-block", "block-per-point"])
    def test_report_matches_oracle_in_blocks(self, monkeypatch, assoc_algebras, block_bytes):
        # the law engine's associativity blocks, one for all triples or one
        # per first point, on true and on mutated hyperoperation caches
        monkeypatch.setattr(hyperkernel, "UNION_BLOCK_BYTES", block_bytes)
        for h in assoc_algebras:
            h._cache.pop("laws", None)
            assert ops.weak_assoc_all(h).to_json() == weak_assoc_by_triples(h).to_json(), h.name
        h = parse_builtin("mu:3:8")
        failed = set()
        for _ in mutated_caches(h, 40, seed=16):
            got = ops.weak_assoc_all(h).to_json()
            assert got == weak_assoc_by_triples(h).to_json()
            failed |= {name for name, entry in got.items() if not entry["pass"]}
        assert failed == {"weak_associativity", "fully_associative"}

    def test_sides_match_per_triple_oracle(self, assoc_algebras):
        for h in assoc_algebras:
            assert side_disagreements(h) == [], h.name

    def test_union_dropping_a_member_is_caught(self, monkeypatch):
        """Mutation check: when the member lists that hyperkernel's
        unions read lose the last member of the first f*g with several
        members, weak_assoc_all disagrees with the oracle."""
        real = hyperkernel._members

        def dropping(cube):
            members = real(cube).copy()
            a, b = (int(v) for v in np.argwhere(cube.sum(axis=2) >= 2)[0])
            members[a, b, int(np.count_nonzero(members[a, b] < cube.shape[2])) - 1] = cube.shape[2]
            return members

        monkeypatch.setattr(hyperkernel, "_members", dropping)
        h = parse_builtin("mu:3:8")
        assert ops.weak_assoc_all(h).to_json() != weak_assoc_by_triples(h).to_json()

    def test_suite_check_makes_no_triple_call(self, monkeypatch):
        h = parse_builtin("mu:5:4")

        def forbidden(*args):
            raise AssertionError("weak_assoc_all called weak_assoc_check")

        monkeypatch.setattr(ops, "weak_assoc_check", forbidden)
        assert ops.weak_assoc_all(h).ok

    def test_triple_data_is_lazy(self, mu54):
        pts = ops.kpoints(mu54)
        res = ops.weak_assoc_check(mu54, pts[1], pts[2], pts[3])
        lazy = ("triple_map", "triple_ideal_points", "triple_point_in_intersection", "triple_ideal")
        assert not set(lazy) & set(vars(res))
        assert res.triple_point_in_intersection
        assert set(lazy) & set(vars(res)) == set(lazy[:3])  # the points are read from T(e_phi), not the ideal

    def test_triple_ideal_points_match_rowspan_oracle(self, assoc_algebras):
        for h in assoc_algebras:
            for f, g, k in product(ops.kpoints(h), repeat=3):
                res = ops.weak_assoc_check(h, f, g, k)
                assert res.triple_ideal_points == triple_ideal_points_by_rowspan(res), (h.name, f.label, g.label, k.label)


def mutated_caches(h, count, seed):
    """Yield `count` times, each time with h's hyperoperation cube holding
    one to three pairs whose members are replaced by a random subset of the
    points (possibly empty), and with the laws read from it dropped. hyperop
    reads its members from the cube, so the per-pair oracles see the same
    mutation. The true cube is restored at the end."""
    pts = ops.kpoints(h)
    true = ops.hyperop_cube(h)
    rng = random.Random(seed)
    for _ in range(count):
        cube = true.copy()
        for _ in range(rng.randint(1, 3)):
            f, g = rng.randrange(len(pts)), rng.randrange(len(pts))
            cube[f, g] = [rng.random() < 0.4 for _ in pts]
        cube.setflags(write=False)
        h._cache["cube"] = cube
        h._cache.pop("laws", None)
        yield
    h._cache["cube"] = true
    h._cache.pop("laws", None)


class TestLawsFromCube:
    """Each spectrum law reads one hyperoperation cube; its report, witness
    included, equals the per-pair loop over hyperop it replaced."""

    def test_reports_match_oracles(self, assoc_algebras):
        for h in assoc_algebras:
            for law, oracle in LAW_ORACLES:
                assert law(h).to_json() == oracle(h).to_json(), (h.name, law.__name__)

    @pytest.mark.parametrize("spec", ["mu:5:4", "mu:3:8", "fs3"])
    def test_reports_match_oracles_on_mutated_caches(self, spec, request):
        h = HopfData.from_json(request.getfixturevalue(spec).to_json()) if spec == "fs3" else parse_builtin(spec)
        failed = set()
        for _ in mutated_caches(h, 100, seed=len(spec)):
            for law, oracle in LAW_ORACLES:
                got = law(h).to_json()
                assert got == oracle(h).to_json(), (spec, law.__name__)
                failed |= {name for name, entry in got.items() if not entry["pass"]}
            assert side_disagreements(h) == []
        assert {"nonempty", "identity_law", "inverse_law", "reversibility", "weak_associativity"} <= failed

    @pytest.mark.parametrize("spec", ["mu:5:4", "mu:3:8"])
    def test_descent_matches_oracle_on_mutated_caches(self, spec):
        h = parse_builtin(spec)
        ideal = descent_ideal(h)
        names = ("fixed_locus_closed", "descent_equality")
        failed = set()
        for _ in mutated_caches(h, 60, seed=1):
            got = ops.descend_and_compare(h, ideal).to_json()
            assert got == descent_by_pairs(h, ideal).to_json(), spec
            failed |= {name for name in names if not got[name]["pass"]}
        assert failed == set(names)


class TestDescent:
    def test_mu4_descent(self, mu54):
        rep = ops.descend_and_compare(mu54, descent_ideal(mu54))
        assert rep.ok, rep.to_json()

    def test_additive_descent(self, ae32):
        rep = ops.descend_and_compare(ae32, descent_ideal(ae32))
        assert rep.ok, rep.to_json()

    def test_zero_ideal_descent_is_trivial(self, mu32):
        zero = IdealSubspace(mu32.algebra, np.zeros((0, 2), dtype=np.int64))
        rep = ops.descend_and_compare(mu32, zero)
        assert rep.ok

    def test_non_hopf_ideal_rejected(self, ae32):
        bad = IdealSubspace.from_poly(ae32.algebra, parse_poly("T-1", ae32.algebra.field))
        with pytest.raises(ValueError):
            ops.descend_and_compare(ae32, bad)

    def test_one_hopf_ideal_test_per_descent(self, monkeypatch, mu54):
        # hopf_quotient's test is the only one, and the ideal's projection
        # is built once for it and for the quotient algebra
        calls = []
        real = hopfkernel.is_hopf_ideal

        def counting(h, ideal):
            calls.append(ideal)
            return real(h, ideal)

        monkeypatch.setattr(hopfkernel, "is_hopf_ideal", counting)
        monkeypatch.setattr(ops, "is_hopf_ideal", counting, raising=False)
        ideal = descent_ideal(mu54)
        assert ops.descend_and_compare(mu54, ideal).ok
        assert calls == [ideal]
        pi, free = ideal.projection()
        assert ideal.projection()[0] is pi and not pi.flags.writeable


# Generator-less copies with points of degree 2 and 3: each carried hom
# scans its candidate lifts in A to a relation of degree d > 1
GENERATOR_LESS = ("bare-mu:3:4", "bare-mu:5:8", "bare-addetale:3:3")


def hopf_by_spec(spec, fs3):
    """F_3^{S_3} for "fs3", the generator-less copy of a builtin for
    "bare-" and its spec, else the builtin."""
    if spec == "fs3":
        return fs3
    if spec.startswith("bare-"):
        return generator_less(parse_builtin(spec[len("bare-") :]))
    return parse_builtin(spec)


class TestClassical:
    def test_mu4_over_f5(self, mu54):
        rep = ops.classical_comparison(mu54, 5)
        assert rep.ok
        assert rep.checks["classical_point_count"].witness == (4,)
        assert rep.checks["injective"].passed

    def test_addetale31_over_f3(self, ae31):
        rep = ops.classical_comparison(ae31, 3)
        assert rep.ok
        assert rep.checks["classical_point_count"].witness == (3,)

    def test_trivial_algebra_single_point(self):
        from hyperspec.hopfkernel import mu_hopf

        h = mu_hopf(5, 1)  # F_5 itself
        rep = ops.classical_comparison(h, 5)
        assert rep.ok
        assert rep.checks["classical_point_count"].witness == (1,)

    def test_larger_field_containment_still_holds(self, ae32):
        rep = ops.classical_comparison(ae32, 9)
        # injectivity genuinely fails at q > p (two embeddings share a kernel)
        assert not rep.checks["injective"].passed
        assert rep.checks["injective"].report_only
        assert rep.checks["containment"].passed
        assert rep.ok

    def test_rejects_wrong_characteristic(self, mu54):
        with pytest.raises(ValueError):
            ops.classical_comparison(mu54, 9)

    def test_prime_power_split(self, ae32):
        for q in (0, 1):
            with pytest.raises(ValueError, match=r"comparison needs \|F_q\| >= 3"):
                ops.classical_comparison(ae32, q)
        for q in (12, 2**5):
            with pytest.raises(ValueError, match=f"{q} is not a power of the base characteristic 3"):
                ops.classical_comparison(ae32, q)
        assert ops.classical_comparison(ae32, 3**4).checks["classical_point_count"].witness == (9,)

    # The report's JSON at the commit before F_q-points moved onto coordinate
    # vectors (SHA-256 of json.dumps), so any change to a verdict or witness
    # fails here; equal digests mean equal reports. The last four were
    # recorded from the all-pairs path before the orbit engine replaced it.
    GOLDEN = {
        ("mu:5:4", 5): "f1e94c2c87e5f3842b1c1fbfc9ae26f00f90ee686805efa5fe40e6ab8792e469",
        ("mu:5:4", 25): "b8acfaefc440226231c885e92d46df6bc84d7fe935343f1430332b077092548c",
        ("addetale:3:2", 3): "c239c045a6af73884b0f99587ce61e2ae2121b53b13988fdc32b4c095aaf1ece",
        ("addetale:3:2", 9): "078358ad12ff2acaf3ff32e6bea0508dfd0c5743b2033d7ec4ce656ca4b3dd95",
        ("addetale:3:2", 27): "73eba582dfc03467cde898cf5d4330ef81a14c685fabccbb2564ef52e9ad2cf4",
        ("mu:3:8", 9): "9c15da87bcd7dec371607cd8bdce99f67d6ce93b29513b776dfd66467ae84c50",
        ("mu:3:8", 81): "9c15da87bcd7dec371607cd8bdce99f67d6ce93b29513b776dfd66467ae84c50",
        ("mu:7:6", 49): "79e2e0db9a74d05b1c7abbc1279076680b44fe957bb1d7da7492a11e72f3a15c",
        ("fs3", 3): "464e721a8b6846e44965cc4e0dd6a99b5c4d6fbf665a18378b792edd49eb13c6",
        ("fs3", 9): "79e2e0db9a74d05b1c7abbc1279076680b44fe957bb1d7da7492a11e72f3a15c",
        ("mu:3:10", 81): "62c87d3b3493d20325bb2245a9dfb6edc81de3ca01af2029929634422856647b",
        ("addetale:3:3", 27): "f7273260de5d53df647fc735c63007ff549200a6f7b578baf4dafac1142ab470",
        ("mu:5:8", 25): "80d435e9b22dc6b6726bd7844af7d4cd203160a19faa72d25e2b8c7937bfc2d7",
        ("mu:13:12", 13): "7c46f52f994c437287b80e50fe1ef12de7b7da37069cd07b9cc9876610001a38",
    }

    @pytest.mark.parametrize("spec, q", list(GOLDEN))
    def test_golden_report(self, spec, q, fs3):
        h = fs3 if spec == "fs3" else parse_builtin(spec)
        doc = ops.classical_comparison(h, q).to_json()
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == self.GOLDEN[(spec, q)]

    @pytest.mark.parametrize("spec, q", list(GOLDEN) + list(zip(GENERATOR_LESS, (9, 25, 27))))
    def test_report_matches_all_pairs_oracle(self, spec, q, fs3):
        # one kernel per hom and one convolution per pair of homs, matched
        # by bytes, against the carried homs of the orbit engine; at q =
        # p^e, e the lcm of the degrees, on the GENERATOR_LESS copies
        h = hopf_by_spec(spec, fs3)
        assert ops.classical_comparison(h, q).to_json() == classical_comparison_by_homs(h, q).to_json()

    def test_convolution_is_the_group_law(self, mu54, ae32):
        # mu:5:4's F_5-points are the characters x -> zeta^k of Z/4, and
        # addetale:3:2's F_9-points the additive maps t -> a: the engine's
        # law multiplies, respectively adds, the values at the generator, on
        # every pair of homs; the homs, the conjugates of the carried ones,
        # are every hom of the all-pairs oracle
        for h, e, law in [(mu54, 1, "mul"), (ae32, 2, "add")]:
            p, gen = h.algebra.field.p, h.algebra.generator
            orbits = ops._orbit_fill(h, e)[0]
            homs = np.concatenate(orbits.conjugates)
            assert sorted(a.tobytes() for a in homs) == sorted(a.tobytes() for a in classical_points(h, p**e))
            fq, _ = field_algebra(p, e)
            at_gen = np.einsum("i,nie->ne", gen, homs) % p
            for a in range(len(homs)):
                conv = orbits.law(homs[a], homs)
                for b in range(len(homs)):
                    want = fq.mul_by(at_gen[a], at_gen[b][None])[0] if law == "mul" else (at_gen[a] + at_gen[b]) % p
                    assert (np.einsum("i,ie->e", gen, conv[b]) % p == want).all()

    def test_escaped_convolution_fails_closure(self, monkeypatch):
        # 2·a has a's kernel but sends 1 to 2, so every convolution with it
        # lies in no orbit: closure and containment fail at the first pair,
        # and orbit_cube raises
        h = parse_builtin("mu:5:4")
        carried = ops._carried_hom
        monkeypatch.setattr(ops, "_carried_hom", lambda pt, e: carried(pt, e) * (2 if pt.index == 1 else 1) % 5)
        rep = ops.classical_comparison(h, 5)
        label = ops.kpoints(h)[0].label, ops.kpoints(h)[1].label
        assert rep.checks["injective"].passed
        assert rep.checks["convolution_closed"].witness == (("convolution escaped the point set", *label),)
        assert rep.checks["containment"].witness == ("convolution escaped the point set", *label)
        with pytest.raises(ValueError, match="in no registered orbit"):
            ops.orbit_cube(h, 1)

    def test_shared_kernel_fails_injectivity(self, monkeypatch):
        # a point that carries another point's hom: the carried homs have
        # three kernels for four homs
        h = parse_builtin("mu:5:4")
        carried = ops._carried_hom
        monkeypatch.setattr(ops, "_carried_hom", lambda pt, e: carried(ops.kpoints(h)[0] if pt.index == 1 else pt, e))
        rep = ops.classical_comparison(h, 5)
        assert rep.checks["injective"].to_json() == {"pass": False, "witness": [3, 4]}
        assert not rep.ok

    def test_carried_homs_form_no_residue_powers(self, monkeypatch):
        """mu:7:48 has a stored generator g, so each carried point reads its
        rows pi(g^j) off the algebra's generator_powers: from _carried_hom's
        frame, classical_comparison(h, 7) takes powers only in F_7, once per
        carried point, and never in A, whose L_g the rows would form again.
        Its frame includes the generator expressions in its body."""
        h = parse_builtin("mu:7:48")
        own = ops._carried_hom.__code__
        frames = {own, *(c for c in own.co_consts if isinstance(c, CodeType))}
        on = []
        powers = SCAlgebra.powers

        def counted(self, v, start, k):
            if sys._getframe(1).f_code in frames:
                on.append(self)
            return powers(self, v, start, k)

        monkeypatch.setattr(SCAlgebra, "powers", counted)
        rep = ops.classical_comparison(h, 7)
        fq = field_algebra(7, 1)[0]
        assert rep.ok and rep.checks["classical_point_count"].witness == (6,)
        assert len(on) == 6 and all(alg is fq for alg in on)

    def test_carried_hom_needs_a_generator_of_full_degree(self):
        # F_3^4 posing as a point of degree 4, its zero ideal with the
        # identity as residue map: each of its elements has a minimal
        # polynomial of degree at most 3, so the candidate scan finds no
        # generator and raises an error naming the degree rather than
        # return a hom
        mul = np.zeros((4, 4, 4), dtype=np.int64)
        mul[range(4), range(4), range(4)] = 1
        alg = SCAlgebra(PrimeField(3), list("abcd"), mul, np.ones(4, dtype=np.int64))
        zero = IdealSubspace(alg, np.zeros((0, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="^the residue field has no element of full degree 4 to carry the hom$"):
            ops._carried_hom(SimpleNamespace(ideal=zero, degree=4, resmap=np.eye(4, dtype=np.int64)), 4)

    def test_containment_witness_is_the_first_missing_triple(self):
        # a member taken out of the hyperop cube: the first triple of the
        # orbit cube outside it is the witness, as the all-pairs oracle
        # finds it at q = p
        h = parse_builtin("mu:7:6")
        cube = ops.hyperop_cube(h).copy()
        f, g, phi = 2, 3, int(np.flatnonzero(cube[2, 3])[0])
        cube[f, g, phi] = False
        h._cache["cube"] = cube
        rep = ops.classical_comparison(h, 7)
        pts = ops.kpoints(h)
        assert rep.checks["convolution_closed"].passed
        assert rep.checks["containment"].witness == (pts[f].label, pts[g].label, pts[phi].label)
        assert rep.to_json() == classical_comparison_by_homs(h, 7).to_json()


# The 14 algebras of the CI verify suite
CI_SUITE = (
    "mu:3:2", "mu:5:4", "addetale:3:1", "addetale:3:2", "mu:7:6", "mu:3:8", "mu:5:8",
    "mu:3:10", "mu:3:6", "mu:3:9", "mu:13:12", "mu:11:10", "addetale:5:1", "addetale:3:3",
)


class TestOrbitCube:
    """The paper's theorem, f*g = {[a⋆b] : a over f, b over g}, from two
    engines that share no decision code: orbit_cube convolves homs in the
    Galois-orbit engine and never forms Q_fg."""

    @pytest.mark.parametrize("spec", CI_SUITE + ("fs3",) + GENERATOR_LESS)
    def test_equals_hyperop_cube(self, spec, fs3):
        h = hopf_by_spec(spec, fs3)
        for a in [h] if h.algebra.generator is None else [h, hopf_quotient(h, descent_ideal(h))[0]]:
            n = lcm(*(pt.degree for pt in ops.kpoints(a)))
            assert (ops.orbit_cube(a, n) == ops.hyperop_cube(a)).all()

    def test_points_outside_the_field_are_empty(self, ae32):
        # over F_3 only the three degree-1 points of addetale:3:2 have homs
        cube = ops.orbit_cube(ae32, 1)
        ones = [pt.index for pt in ops.kpoints(ae32) if pt.degree == 1]
        assert cube.any(axis=2).sum() == len(ones) ** 2
        assert (cube[np.ix_(ones, ones)] == ops.hyperop_cube(ae32)[np.ix_(ones, ones)]).all()


class TestPresentationOracle:
    def test_group_like_generator_forced_one(self, mu32):
        f = ops.point_by_label(mu32, "(T-1)")
        out = ops.presentation_oracle(mu32, f, f, mu32.algebra.generator, 5)
        assert out == frozenset({1})

    def test_zero_forced_zero(self, mu32):
        f = ops.point_by_label(mu32, "(T-1)")
        g = ops.point_by_label(mu32, "(T-2)")
        out = ops.presentation_oracle(mu32, f, g, np.zeros(2, dtype=np.int64), 5)
        assert out == frozenset({0})

    def test_mixed_points_example(self, mu32):
        f = ops.point_by_label(mu32, "(T-1)")
        g = ops.point_by_label(mu32, "(T-2)")
        x = elem(mu32, "T+1")
        out = ops.presentation_oracle(mu32, f, g, x, 5)
        expected = {
            ForcedValue.ZERO: frozenset({0}),
            ForcedValue.ONE: frozenset({1}),
            ForcedValue.FREE: frozenset({0, 1}),
        }[ops.forced_value(mu32, f, g, x)]
        assert out == expected

    def test_naive_enumeration_confirms_dp(self, mu32):
        # two-term presentations, literally enumerated
        f = ops.point_by_label(mu32, "(T-1)")
        sets = presentation_value_sets_naive(mu32, f, f, mu32.algebra.generator, 2)
        assert frozenset({1}) in sets
        assert frozenset({0}) not in sets
        inter = frozenset({0, 1})
        for s in sets:
            inter = inter & s
        assert inter == frozenset({1})

    def test_r_max_too_small(self, mu32):
        f = ops.point_by_label(mu32, "(T-1)")
        with pytest.raises(ValueError):
            ops.presentation_oracle(mu32, f, f, mu32.algebra.generator, 1)

    def test_r_max_too_small_to_present(self, ae31):
        # Delta(T^2) on addetale:3:1 at ((T), (T)) has no presentation with
        # two terms
        f = ops.point_by_label(ae31, "T")
        with pytest.raises(ValueError, match=r"^r_max=2 is too small to present the coproduct image \(tensor needs more terms\)$"):
            ops.presentation_oracle(ae31, f, f, [0, 0, 1], 2)
        assert ops.presentation_oracle(ae31, f, f, [0, 0, 1], 10)

    def test_algebra_over_the_state_bound_rejected(self, mu54):
        f = ops.kpoints(mu54)[0]
        with pytest.raises(ValueError, match=r"^presentation oracle needs p\^\(dim\^2\) <= 200000, not 5\^16 = 152587890625$"):
            ops.presentation_oracle(mu54, f, f, mu54.algebra.generator, 5)

    def test_exhaustive_dim2_at_rank_bound(self, mu32):
        # every (x, f, g) on the 2-dimensional algebra, r_max = dim^2 + 1
        pts = ops.kpoints(mu32)
        for x in enumerate_vectors(3, 2):
            for f, g in product(pts, repeat=2):
                ops.presentation_oracle(mu32, f, g, x, 5)  # raises on any mismatch

    def test_exhaustive_dim3_at_rank_bound(self, ae31):
        # the dim <= 3 soundness sweep: 27 elements x 9 pairs, r_max = dim^2 + 1
        pts = ops.kpoints(ae31)
        for x in enumerate_vectors(3, 3):
            for f, g in product(pts, repeat=2):
                ops.presentation_oracle(ae31, f, g, x, 10)


def term_sets(h, f, g):
    """T0, T1 and T0 ∪ T1 as rows of tensor coordinates: u⊗v for every u, v
    in A, in T1 iff both factors survive (k_value 1) and in T0 otherwise."""
    p = h.algebra.field.p
    elems = enumerate_vectors(p, h.dim)
    gv = [g.k_value(v) for v in elems]
    sets = (set(), set())
    for u in elems:
        fu = f.k_value(u)
        for v, gu in zip(elems, gv):
            sets[fu and gu].add(tuple(np.outer(u, v).reshape(-1) % p))
    return [np.array(sorted(s), dtype=np.int64) for s in (sets[0], sets[1], sets[0] | sets[1])]


def sumset_reach_by_step(h, f, g, steps):
    """The presentation DP with exact boolean sumsets and no transform: a
    step shifts the reached states by every term, digit by digit mod p, and
    every step runs. Returns the ever table after each step."""
    p, k = h.algebra.field.p, h.dim**2
    states = enumerate_vectors(p, k)  # row s holds the digits of state s
    weights = p ** np.arange(k, dtype=np.int64)
    t0, t1, t01 = term_sets(h, f, g)

    def plus(reached, terms):
        out = np.zeros(len(states), dtype=bool)
        fewer, more = sorted((states[reached], terms), key=len)
        for t in fewer:
            out[(more + t) % p @ weights] = True
        return out

    r0, r1, r2 = np.arange(len(states)) == 0, np.zeros(len(states), dtype=bool), np.zeros(len(states), dtype=bool)
    ever = np.zeros((len(states), 3), dtype=bool)
    tables = []
    for _ in range(steps):
        r0, r1, r2 = plus(r0, t0), plus(r1, t0) | plus(r0, t1), plus(r2, t01) | plus(r1, t1)
        ever = ever | np.stack([r0, r1, r2], axis=1)
        tables.append(ever)
    return tables


def transform_reach_every_step(h, f, g, r_max):
    """The presentation DP through specops' exact transform with all r_max
    steps run, no fixed-point stop, and the ever table accumulated."""
    p, k = h.algebra.field.p, h.dim**2
    q, omega = ops._transform_field(p, p**k)
    w_fwd = np.array([[pow(omega, i * j, q) for j in range(p)] for i in range(p)], dtype=np.int64)
    w_inv = np.array([[pow(omega, -i * j, q) for j in range(p)] for i in range(p)], dtype=np.int64)
    weights = p ** np.arange(k, dtype=np.int64)
    indicators = np.zeros((3, p**k), dtype=np.int64)
    for row, terms in zip(indicators, term_sets(h, f, g)):
        row[terms @ weights] = 1
    t0, t1, t01 = ops._group_transform(indicators, w_fwd, q, k)
    reached = np.zeros((3, p**k), dtype=np.int64)
    reached[0, 0] = 1
    ever = np.zeros((p**k, 3), dtype=bool)
    for _ in range(r_max):
        r0, r1, r2 = ops._group_transform(reached, w_fwd, q, k)
        counts = np.stack([r0 * t0 % q, (r1 * t0 + r0 * t1) % q, (r2 * t01 + r1 * t1) % q])
        reached = (ops._group_transform(counts, w_inv, q, k) != 0).astype(np.int64)
        ever |= reached.T.astype(bool)
    return ever


def is_prime_by_trial(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


class TestExactOracle:
    # mu:3:1 is F_3 itself, where the zero tensor is the only T0 term
    @pytest.mark.parametrize("name", ["mu:3:1", "mu:3:2", "mu:5:2", "mu:7:2"])
    def test_transform_matches_boolean_sumsets(self, name):
        h = parse_builtin(name)
        for f, g in product(ops.kpoints(h), repeat=2):
            tables = sumset_reach_by_step(h, f, g, 5)
            for r_max in range(1, 6):
                got = ops._pair_presentation_reach(h, f, g, r_max)
                want = tables[r_max - 1]
                assert got.shape == want.shape and (got == want).all(), (name, f.label, g.label, r_max)

    def test_fixed_point_stop_equals_every_step(self, ae31):
        for f, g in product(ops.kpoints(ae31), repeat=2):
            got = ops._pair_presentation_reach(ae31, f, g, 10)
            assert (got == transform_reach_every_step(ae31, f, g, 10)).all(), (f.label, g.label)

    def test_doubling_branches_match_boolean_sumsets(self):
        # on addetale:3:1 the fixed point comes at 4 terms, so R_2 -> R_4
        # still changes the sets: r_max 1 takes no step, 2 and 4 only
        # double, 3 and 5 double and then take one-term steps
        h = parse_builtin("addetale:3:1")
        f, g = ops.point_by_label(h, "T"), ops.point_by_label(h, "T-1")
        tables = sumset_reach_by_step(h, f, g, 5)
        for r_max in range(1, 6):
            assert (ops._pair_presentation_reach(h, f, g, r_max) == tables[r_max - 1]).all(), r_max

    def test_class_two_union_on_one_surviving_term(self):
        # T0 = {0} and T1 = {1} in F_5: j terms reach j mod 5 in class
        # min(j, 2), so class 2 needs R_a[1] + R_a[2] and R_a[2] + R_a[2]
        # (j = 3, 4 at r_max 4), which no admissible builtin tells apart
        want = np.zeros((3, 5), dtype=bool)
        want[0, 0] = True
        for r_max in range(1, 9):
            want[min(r_max, 2), r_max % 5] = True  # j = r_max joins
            assert (ops._presentation_reach(5, 1, np.array([0]), np.array([1]), r_max) == want).all(), r_max

    def test_doubling_transforms_at_most_20_rows_per_pair(self, monkeypatch):
        # T0, T1 and their union (3 rows), the inverse giving R_2 (3), then
        # R_4 and the unchanged R_8 (4 forward and 3 inverse rows each);
        # one-term steps from R_0 took 33 rows per pair. Of the 9 ordered
        # pairs of 3 points only 6 run the DP: (g, f) after (f, g) transposes
        # the cached table
        h = parse_builtin("addetale:3:1")
        rows = []
        transform = ops._group_transform

        def counted(x, *args):
            rows.append(x.shape[0])
            return transform(x, *args)

        monkeypatch.setattr(ops, "_group_transform", counted)
        for f, g in product(ops.kpoints(h), repeat=2):
            ops._pair_presentation_reach(h, f, g, 10)
        assert sum(rows) <= 120

    def test_one_pair_peak_memory(self):
        # at most 18 int64 rows of 3^9 states above the start, which bounds
        # the oracle's share of a fresh process's peak RSS
        h = parse_builtin("addetale:3:1")
        f = ops.kpoints(h)[0]
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            ops._pair_presentation_reach(h, f, f, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 18 * 8 * 3**9

    @pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2), (7, 2), (11, 2)])
    def test_transform_field(self, p, n):
        nstates = p ** (n * n)
        q, omega = ops._transform_field(p, nstates)
        assert is_prime_by_trial(q) and q % p == 1 and q > 2 * nstates
        assert not any(is_prime_by_trial(c) for c in range(2 * nstates + 1, q) if c % p == 1)
        assert omega != 1 and pow(omega, p, q) == 1  # order p, as p is prime

    @pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2), (7, 2)])
    def test_transform_equals_reduction_after_every_axis(self, p, n):
        k = n * n
        q, omega = ops._transform_field(p, p**k)
        run = ops._unreduced_axes(p, q)
        assert p**run * (q - 1) ** (run + 1) < 2**63 <= p ** (run + 1) * (q - 1) ** (run + 2)
        w = np.array([[pow(omega, i * j, q) for j in range(p)] for i in range(p)], dtype=np.int64)
        rows = np.random.default_rng(p * n).integers(0, q, size=(3, p**k))
        rows[0] = q - 1  # the entries at the bound
        want = rows.copy()
        for axis in range(k):
            want = w @ want.reshape(3 * p**axis, p, -1) % q
        assert (ops._group_transform(rows.copy(), w, q, k) == want.reshape(3, -1)).all()

    def test_overflow_guard_one_step_past_its_bound(self):
        # q_max is the largest prime q ≡ 1 (mod p) with p (q - 1)^2 < 2^63.
        # With 2N = q_max - 1 states doubled the field is F_q_max; one state
        # more and the next admissible prime is past the bound.
        p = 3
        q_max = isqrt((2**63 - 1) // p) + 1
        q_max -= (q_max - 1) % p
        while not is_prime_by_trial(q_max):
            q_max -= p
        assert ops._transform_field(p, (q_max - 1) // 2)[0] == q_max
        with pytest.raises(ValueError, match="overflow"):
            ops._transform_field(p, (q_max + 1) // 2)


class TestOracleGolden:
    # The benchmark's `oracle` invocation, presentation_oracle over every
    # (x, f, g) of addetale:3:1 at r_max 10, rebuilt in-process, with the
    # SHA-256 of its stdout, so any change to an oracle verdict fails here.
    DIGEST = "6afff63ebe8c0ebdb38619054700de7a5f5ce32fe62e297d550f19ea4a540225"

    def test_stdout_digest(self, ae31):
        pts = ops.kpoints(ae31)
        values = [
            sorted(ops.presentation_oracle(ae31, f, g, list(x), 10))
            for x in product(range(3), repeat=3)
            for f, g in product(pts, repeat=2)
        ]
        out = json.dumps({"algebra": "addetale:3:1", "r_max": 10, "cases": len(values), "values": values}) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGEST


def pair_matrix(h, f, g):
    """Q_fg = (pi_f ⊗ pi_g) ∘ Delta, straight from the definition."""
    return matmul(np.kron(f.resmap, g.resmap), h.delta, h.algebra.field.p)


def whole_algebra_forced_ones(h, f, g, zero_ideal):
    """The forced-one elements of the whole algebra, by a scan of all p^n
    elements; the rank-0 locus it finds must be the forced-zero ideal."""
    p = h.algebra.field.p
    xs = enumerate_vectors(p, h.dim)
    images = matmul(xs, pair_matrix(h, f, g).T, p).reshape(-1, f.degree, g.degree)
    cls = batch_tensor_rank_class(images, p)
    assert int((cls == 0).sum()) == p**zero_ideal.dim
    assert not reduce_rows(xs[cls == 0], zero_ideal.basis, zero_ideal.pivots, p).any()
    return xs[cls == 1]


def forced_one_representatives(h, f, g, zero_ideal):
    """The forced-one representatives modulo the forced-zero ideal: the
    vectors with zero pivot coordinates whose image under Q_fg has rank one,
    as rows in enumerate_vectors order of the remaining coordinates. The rank
    of the image depends only on that residue."""
    n = h.dim
    free = [c for c in range(n) if c not in zero_ideal.pivots]
    coeffs, cls = span_rank_classes(pair_matrix(h, f, g)[:, free].T, f.degree, g.degree, h.algebra.field.p)
    ones = np.zeros((int((cls == 1).sum()), n), dtype=np.int64)
    ones[:, free] = coeffs[cls == 1]
    return ones


class TestForcedZeroLemma:
    """f*g = V(Ker Q_fg): no point whose kernel contains the forced-zero
    ideal has a forced-one element in its kernel, so hyperop needs no
    rank scan. The scan lives here as the oracle."""

    @pytest.mark.parametrize("name", LEMMA_ALGEBRAS)
    def test_members_kill_no_forced_one(self, name, request):
        h = request.getfixturevalue("fs3") if name == "fs3" else parse_builtin(name)
        p = h.algebra.field.p
        pts = ops.kpoints(h)
        for f, g in product(pts, repeat=2):
            res = ops.hyperop(h, f, g)
            zero = res.forced_zero
            assert zero == IdealSubspace(h.algebra, nullspace(pair_matrix(h, f, g), p))
            killing = tuple(kp for kp in pts if not matmul(zero.basis, kp.resmap.T, p).any())
            assert res.members == killing, (name, f.label, g.label)
            ones = forced_one_representatives(h, f, g, zero)
            assert ones.shape[0] > 0  # the residue of the unit, 1⊗1, has rank one
            for m in res.members:
                assert matmul(ones, m.resmap.T, p).any(axis=1).all(), (name, f.label, g.label, m.label)
            assert res.to_json()["rejections"] == []

    @pytest.mark.parametrize("name", NON_REDUCED)
    def test_primitive_idempotents(self, name):
        """The stored e_phi are orthogonal idempotents summing to 1, e_phi
        maps to 1 at phi and to 0 at every other point, and each pair's
        Ker Q_fg is prime iff f*g has one member."""
        h = parse_builtin(name)
        alg = h.algebra
        p = alg.field.p
        assert nilradical(alg).dim > 0
        pts = ops.kpoints(h)
        idems = np.array([kp.idempotent for kp in pts])
        assert (npmod(idems.sum(axis=0), p) == alg.unit).all()
        for phi, psi in product(pts, repeat=2):
            prod = alg.mul_by(phi.idempotent, psi.idempotent[None])[0]
            assert (prod == (phi.idempotent if phi is psi else 0)).all(), (name, phi.label, psi.label)
            image = matmul(psi.resmap, phi.idempotent, p)
            assert (image == (residue_field(psi).unit if phi is psi else 0)).all(), (name, phi.label, psi.label)
        for f, g in product(pts, repeat=2):
            kernel = IdealSubspace(alg, nullspace(pair_matrix(h, f, g), p))
            prime = ideal_is_prime_by_quotient(alg, kernel)
            assert (len(ops.hyperop(h, f, g).members) == 1) == prime, (name, f.label, g.label)

    def test_representatives_match_whole_algebra_scan(self, request):
        # the representatives scan against a scan of every element of A
        for name in ("mu54", "ae32", "fs3"):
            h = request.getfixturevalue(name)
            p = h.algebra.field.p
            for f, g in product(ops.kpoints(h), repeat=2):
                zero = ops.hyperop(h, f, g).forced_zero
                full = whole_algebra_forced_ones(h, f, g, zero)
                reps = forced_one_representatives(h, f, g, zero)
                assert full.shape[0] == reps.shape[0] * p**zero.dim
                assert not reps[:, zero.pivots].any()
                assert {tuple(r) for r in reduce_rows(full, zero.basis, zero.pivots, p)} == {tuple(r) for r in reps}
                assert ops.forced_value(h, f, g, reps[-1]) is ForcedValue.ONE


class TestPairMaps:
    """Block (f, g) of the pair maps is Q_fg, checked against the definition
    (pi_f ⊗ pi_g) ∘ Delta on every pair."""

    @pytest.mark.parametrize("name", LEMMA_ALGEBRAS + NON_REDUCED)
    def test_blocks_are_the_pair_matrices(self, name, request):
        h = request.getfixturevalue("fs3") if name == "fs3" else parse_builtin(name)
        assert not ops._pair_maps(h).flags.writeable
        for f, g in product(ops.kpoints(h), repeat=2):
            assert (ops._pair_quotient_matrix(h, f, g) == pair_matrix(h, f, g)).all(), (name, f.label, g.label)


class TestPointMaps:
    """The point of every algebra map into a field that specops reads off
    the idempotents, the one phi with T(e_phi) != 0, equals the ideal-based
    lookup: the echelon basis of the kernel or preimage compared with every
    point's."""

    @pytest.mark.parametrize("name", LEMMA_ALGEBRAS)
    def test_equal_the_ideal_based_lookup(self, name, request):
        h = request.getfixturevalue("fs3") if name == "fs3" else parse_builtin(name)
        p = h.algebra.field.p
        for a in (h, hopf_quotient(h, descent_ideal(h))[0]):
            assert point_maps(a) == point_maps_by_ideal(a), (name, a.name)
            ideal = descent_ideal(a)
            aq, pi = hopf_quotient(a, ideal)
            tilde = tilde_by_preimage(a, aq, pi)
            stack, starts = ops._residue_stack(aq)
            assert ops._field_points(a, matmul(stack, pi, p), starts).tolist() == tilde, (name, a.name)
            assert ops.descend_and_compare(a, ideal).to_json() == descent_by_pairs(a, ideal).to_json(), (name, a.name)

    def test_map_into_a_non_field_raises(self, mu54):
        # the identity map has kernel 0, contained in all 4 points, and the
        # residue maps of two points, read as one map, have the intersection
        # of their kernels, contained in both: neither returns a point
        assert ops._kernel_points(mu54, np.eye(4, dtype=np.int64), [0]).tolist() == [[True] * 4]
        with pytest.raises(RuntimeError, match="4 points in its kernel"):
            ops._field_points(mu54, np.eye(4, dtype=np.int64), [0])
        pts = ops.kpoints(mu54)
        two = np.vstack([pts[0].resmap, pts[1].resmap])
        with pytest.raises(RuntimeError, match="2 points in its kernel"):
            ops._field_points(mu54, two, [0])
        assert ops._field_points(mu54, two, [0, 1]).tolist() == [0, 1]


class TestKernelContainmentFails:
    """kernel_containment decides each forced-zero ideal once for all its
    pairs, and still names the first failing pair in product order. The
    ideals are corrupted through a wrapper of hyperop, so no cache changes."""

    REASON = "Q_fg does not vanish on the forced-zero ideal"

    @staticmethod
    def corrupt(monkeypatch, h, ideals):
        """hyperop with the forced-zero ideal of each pair (f.index, g.index)
        in `ideals` replaced."""
        original = ops.hyperop

        def hyperop(hh, f, g):
            res = original(hh, f, g)
            key = (f.index, g.index)
            return dataclasses.replace(res, forced_zero=ideals[key]) if hh is h and key in ideals else res

        monkeypatch.setattr(ops, "hyperop", hyperop)

    def test_unit_ideal_on_one_pair(self, monkeypatch, ae32):
        from hyperspec.suite import _kernel_containment

        pts = ops.kpoints(ae32)
        assert _kernel_containment(ae32) == (True, {"pairs": len(pts) ** 2})
        unit = IdealSubspace(ae32.algebra, np.eye(ae32.dim, dtype=np.int64))
        for f, g in list(product(pts, repeat=2))[1:]:
            self.corrupt(monkeypatch, ae32, {(f.index, g.index): unit})
            ok, detail = _kernel_containment(ae32)
            assert not ok
            assert detail == {"pair": [f.label, g.label], "reason": self.REASON}
            monkeypatch.undo()

    def test_earlier_pair_in_product_order_is_reported(self, monkeypatch, mu54):
        """The later pair takes the ideal of the first pair, so its group is
        decided first; the earlier pair takes the unit ideal, a group of its
        own decided after it. The witness is still the earlier pair."""
        from hyperspec.suite import _kernel_containment

        pts = ops.kpoints(mu54)
        pairs = list(product(pts, repeat=2))
        first = ops.hyperop(mu54, *pairs[0])
        later = next(pr for pr in reversed(pairs) if ops.hyperop(mu54, *pr).members != first.members)
        earlier = pairs[1]
        assert pairs.index(earlier) < pairs.index(later)
        unit = IdealSubspace(mu54.algebra, np.eye(mu54.dim, dtype=np.int64))
        key = lambda pair: (pair[0].index, pair[1].index)
        self.corrupt(monkeypatch, mu54, {key(earlier): unit, key(later): first.forced_zero})
        ok, detail = _kernel_containment(mu54)
        assert not ok
        assert detail == {"pair": [earlier[0].label, earlier[1].label], "reason": self.REASON}
        # the later pair alone fails too, so the order decided the witness
        monkeypatch.undo()
        self.corrupt(monkeypatch, mu54, {key(later): first.forced_zero})
        assert _kernel_containment(mu54) == (False, {"pair": [later[0].label, later[1].label], "reason": self.REASON})


class TestResidueProductBound:
    """The int64 bound of the products of residue maps with vectors of the
    algebra, at p = 2^31 - 1 and dimension 3, where 3 (p-1)^2 >= 2^63. Every
    algebra product has the same bound, so the algebra is built unvalidated."""

    @pytest.fixture
    def big(self):
        from hyperspec.gfarith import FpPoly, PrimeField, power_basis_tensor

        field = PrimeField(2**31 - 1)
        tensor = power_basis_tensor(FpPoly.make(field, [5, 7, 11, 1]))
        alg = unvalidated_algebra(field, ["1", "t", "t2"], tensor, [1, 0, 0])
        h = HopfData(alg, np.zeros((9, 3), dtype=np.int64), [1, 0, 0], np.eye(3, dtype=np.int64))
        # no points, so that only the bound can raise: the Hopf axioms and
        # the spectrum would otherwise overflow first
        alg._spectrum = []
        return h

    def test_residue_stack(self, big):
        with pytest.raises(ValueError, match="overflow int64"):
            ops._residue_stack(big)
        assert "residue_stack" not in big._cache

    def test_kernel_containment(self, big):
        from hyperspec.suite import _kernel_containment

        with pytest.raises(ValueError, match="overflow int64"):
            _kernel_containment(big)
