import random
import sys
import weakref
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import numpy as np
import pytest
from conftest import crosscheck_by_triples, member_cube, span_rank_classes

from hyperspec import galoisline, gfarith, hyperkernel
from hyperspec.algkernel import OrbitClassifier, monogenic_algebra, tensor_algebra
from hyperspec.galoisline import (
    ADDITIVE,
    LAWS,
    MAX_LINE_POINTS,
    MULTIPLICATIVE,
    LinePoint,
    crosscheck,
    definitional_hyperop,
    definitional_hyperops,
    forced_zero_generators,
    galois_hyperop,
    line_antipode,
    line_identity,
    line_point_count,
    line_points,
    orbit_classifier,
    require_line_size,
)
from hyperspec.gfarith import (
    FpPoly,
    PrimeField,
    factor,
    find_irreducible,
    irreducibles_up_to,
    minimal_polynomial,
    parse_poly,
)
from hyperspec.linalg import matmul

F3 = PrimeField(3)
F5 = PrimeField(5)


def pt(text, law=ADDITIVE, field=F3):
    return LinePoint(law, parse_poly(text, field))


class TestLinePoint:
    def test_t_excluded_on_torus(self):
        with pytest.raises(ValueError):
            LinePoint(MULTIPLICATIVE, parse_poly("T", F3))

    def test_nonmonic_rejected(self):
        with pytest.raises(ValueError):
            LinePoint(ADDITIVE, parse_poly("2T+1", F3))

    def test_equal_points_from_different_routes_hash_equal(self):
        for law, text, mirror in [(ADDITIVE, "T^2+T+2", "T^2+2T+2"), (MULTIPLICATIVE, "T-2", "T-2")]:
            parsed = pt(text, law)
            via_antipode = line_antipode(pt(mirror, law))
            assert parsed is not via_antipode and parsed.poly is not via_antipode.poly
            assert parsed == via_antipode
            assert hash(parsed) == hash(via_antipode)
            assert len({parsed, via_antipode}) == 1
        # same coefficients, different law or different p: distinct points
        add, mul = pt("T-2", ADDITIVE), pt("T-2", MULTIPLICATIVE)
        over_f3, over_f5 = pt("T^2+1", field=F3), pt("T^2+1", field=F5)
        assert add.poly == mul.poly and add != mul and len({add, mul}) == 2
        assert over_f3.poly.coeffs == over_f5.poly.coeffs and over_f3 != over_f5 and len({over_f3, over_f5}) == 2
        assert add != add.poly

    def test_point_counts_degree_3(self):
        pts = line_points(3, ADDITIVE, 3)
        by_deg = {d: sum(1 for q in pts if q.degree == d) for d in (1, 2, 3)}
        assert by_deg == {1: 3, 2: 3, 3: 8}

    def test_torus_loses_only_t(self):
        add = line_points(3, ADDITIVE, 2)
        mul = line_points(3, MULTIPLICATIVE, 2)
        assert len(add) - len(mul) == 1


class TestGaloisEngine:
    def test_additive_quadratic_square(self):
        p = pt("T^2+1")
        got = galois_hyperop(3, ADDITIVE, p, p)
        assert [q.label for q in got] == ["(T)", "(T^2+1)"]

    def test_multiplicative_quadratic_square(self):
        p = pt("T^2+1", MULTIPLICATIVE)
        got = galois_hyperop(3, MULTIPLICATIVE, p, p)
        assert sorted(q.label for q in got) == ["(T-1)", "(T-2)"]

    def test_additive_identity(self):
        e = line_identity(3, ADDITIVE)
        for f in line_points(3, ADDITIVE, 2):
            assert galois_hyperop(3, ADDITIVE, e, f) == (f,)
            assert galois_hyperop(3, ADDITIVE, f, e) == (f,)

    def test_varying_the_fixed_root_changes_nothing(self):
        # galois_hyperop fixes the first root of f; every other root of f,
        # against the conjugates of g's first root, gives the same set
        pairs = [("T^2+1", "T^2+T+2"), ("T^2+1", "T^3+2T+1"), ("T^3+2T+1", "T^2+1")]
        for law, (f_text, g_text) in product(LAWS, pairs):
            f, g = pt(f_text, law), pt(g_text, law)
            roots = residue_roots(f.poly, lcm(f.degree, g.degree))
            assert len(roots) == f.degree
            for alpha in roots:
                assert orbit_model(3, law, f, g, alpha) == galois_hyperop(3, law, f, g), (law, f, g, alpha)


def coords(poly, k):
    """The first k coefficients of poly, padded with zeros."""
    return list(poly.coeffs) + [0] * (k - len(poly.coeffs))


@lru_cache(maxsize=None)
def residue_roots(poly, m):
    """The roots of poly among the residues mod find_irreducible(p, m), in
    lexicographic order of their coordinates, each found by Horner's rule in
    FpPoly arithmetic."""
    field = poly.field
    mod = find_irreducible(field.p, m)
    out = []
    for c in product(range(field.p), repeat=m):
        x = FpPoly.make(field, c)
        acc = FpPoly.zero(field)
        for a in reversed(poly.coeffs):
            acc = (acc * x + FpPoly.make(field, (a,))) % mod
        if acc.is_zero():
            out.append(x)
    return tuple(out)


def residue_minpoly(x, mod):
    """Minimal polynomial of the residue x: the irreducible of degree <= m =
    deg(mod) that vanishes at x, read off the residues of x^0, ..., x^m."""
    p, m = mod.field.p, mod.degree
    pows = [FpPoly.one(mod.field)]
    for _ in range(m):
        pows.append((pows[-1] * x) % mod)
    irreducibles = irreducibles_up_to(p, m)
    values = np.array([coords(q, m + 1) for q in irreducibles]) @ np.array([coords(y, m) for y in pows]) % p
    return irreducibles[int(np.flatnonzero(~values.any(axis=1))[0])]


def orbit_model(p, law, f, g, alpha=None):
    """The Galois engine on FpPoly residues mod find_irreducible(p, m): a root
    alpha of f (the first one by default), the Frobenius conjugates of g's
    first root by x -> x^p, and minimal polynomials as the irreducibles that
    vanish there. It shares no code with the structure tensors of
    field_algebra."""
    m = lcm(f.degree, g.degree)
    mod = find_irreducible(p, m)
    alpha = residue_roots(f.poly, m)[0] if alpha is None else alpha
    conj = residue_roots(g.poly, m)[0]
    out = set()
    for _ in range(g.degree):
        out.add(residue_minpoly(alpha + conj if law == ADDITIVE else (alpha * conj) % mod, mod))
        conj = conj.pow_mod(p, mod)
    return tuple(sorted((LinePoint(law, q) for q in out), key=LinePoint.sort_key))


class TestGaloisEngineAgainstOrbitModel:
    @pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
    @pytest.mark.parametrize("p, max_degree", [(3, 3), (5, 2), (7, 2)])
    def test_every_pair(self, p, max_degree, law):
        pts = line_points(p, law, max_degree)
        for f, g in product(pts, repeat=2):
            assert galois_hyperop(p, law, f, g) == orbit_model(p, law, f, g), (f, g)

    @pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
    def test_one_minimal_polynomial_per_orbit(self, monkeypatch, law):
        # on a fresh classifier, one crosscheck scans a root of each input
        # point and takes one minimal polynomial per point found past them:
        # the value that found a point is its carried root, and every
        # conjugate of a carried root is classified by lookup. A first run
        # builds the cached fields and residue algebras, whose validation
        # takes minimal polynomials too, so the count holds in any test order
        crosscheck(3, law, 3)
        polys, scans = [], []
        original = gfarith.minimal_polynomial

        def counted(*args, **kwargs):
            polys.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hyperspec" and getattr(module, "minimal_polynomial", None) is original:
                monkeypatch.setattr(module, "minimal_polynomial", counted)
        scan = galoisline.field_roots
        monkeypatch.setattr(galoisline, "field_roots", lambda poly, m: scans.append(poly) or scan(poly, m))
        orbit_classifier.cache_clear()
        try:
            crosscheck(3, law, 3)
            orbits = orbit_classifier(3, law, 6)
        finally:
            orbit_classifier.cache_clear()
        pts = line_points(3, law, 3)
        assert orbits.points[: len(pts)] == pts
        assert scans == [x.poly for x in pts]
        assert len(polys) == len(orbits.points) - len(pts) > 0


def residue_value(poly, x, mod):
    """poly evaluated at the residue x mod `mod` by Horner's rule in FpPoly
    arithmetic."""
    acc = FpPoly.zero(poly.field)
    for a in reversed(poly.coeffs):
        acc = (acc * x + FpPoly.make(poly.field, (a,))) % mod
    return acc


class TestOrbitClassifier:
    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("p, max_degree", [(3, 3), (5, 2), (7, 2)])
    def test_every_carried_root_is_a_root(self, p, max_degree, law):
        # each point carries a root, and the dict holds its deg distinct
        # conjugates, each a root of the point's polynomial in F_{p^N}
        crosscheck(p, law, max_degree)
        n = lcm(*range(1, max_degree + 1))
        orbits = orbit_classifier(p, law, n)
        mod = find_irreducible(p, n)
        as_residue = lambda v: FpPoly.make(PrimeField(p), v.tolist())
        by_point = {}
        for key, k in orbits.by_value.items():
            by_point.setdefault(k, []).append(np.frombuffer(key, dtype=np.int64))
        assert sorted(by_point) == list(range(len(orbits.points)))
        for k, (pt, conj) in enumerate(zip(orbits.points, orbits.conjugates)):
            root = conj[0]
            assert residue_value(pt.poly, as_residue(root), mod).is_zero(), pt
            assert any((root == r).all() for r in by_point[k]) and len(by_point[k]) == pt.degree, pt
            for r in by_point[k]:
                assert residue_value(pt.poly, as_residue(r), mod).is_zero(), (pt, r)

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("p, max_degree", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
    def test_report_matches_scanned_oracle(self, p, max_degree, law):
        assert crosscheck(p, law, max_degree) == crosscheck_by_triples(p, law, max_degree)

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("p, max_degree", [(3, 1), (3, 2), (3, 3), (7, 1), (7, 2)])
    def test_packed_sets_match_the_member_cubes(self, monkeypatch, p, max_degree, law):
        # the s*x and x*s sets that crosscheck sets from member indices
        # equal _packed of the bool cubes scattered from the same indices
        real, sides = galoisline._packed_members, []

        def recording(cells, xs, shape):
            sides.append((cells, xs, shape, real(cells, xs, shape)))
            return sides[-1][-1]

        monkeypatch.setattr(galoisline, "_packed_members", recording)
        crosscheck(p, law, max_degree)
        assert len(sides) == 2
        for cells, xs, shape, got in sides:
            assert np.array_equal(got, hyperkernel._packed(member_cube(cells, xs, shape))), shape

    @pytest.mark.parametrize("law", LAWS)
    def test_packed_sets_are_freed_before_the_definitional_engine(self, monkeypatch, law):
        # the s*x and x*s sets are dead once spectrum_laws returns, so they
        # add nothing to the definitional engine's memory
        member_sets, engine, refs, alive = galoisline._member_sets, galoisline.definitional_hyperops, [], []

        def recording(*args):
            sets = member_sets(*args)
            refs.extend(weakref.ref(side) for side in sets[:2])
            return sets

        def checking(*args):
            alive.append([ref() is not None for ref in refs])
            return engine(*args)

        monkeypatch.setattr(galoisline, "_member_sets", recording)
        monkeypatch.setattr(galoisline, "definitional_hyperops", checking)
        assert crosscheck(3, law, 2)["agree"]
        assert alive == [[False, False]]

    @pytest.mark.parametrize("law", LAWS)
    def test_repointed_root_is_caught(self, law):
        # the dict entry of one input point's carried root, re-pointed to the
        # next point: the crosscheck fails and leaves the oracle's report
        p, max_degree = 3, 2
        want = crosscheck_by_triples(p, law, max_degree)
        pts = line_points(p, law, max_degree)
        try:
            for victim in range(len(pts)):
                orbit_classifier.cache_clear()
                orbits = orbit_classifier(p, law, 2)
                ids = [orbits.point_index(x) for x in pts]
                orbits.by_value[orbits.conjugates[ids[victim]][0].tobytes()] = ids[(victim + 1) % len(pts)]
                doc = crosscheck(p, law, max_degree)
                assert not doc["agree"] and doc != want, pts[victim]
        finally:
            orbit_classifier.cache_clear()

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("p, max_degree", [(3, 3), (7, 2)])
    def test_no_pair_is_asked_twice(self, monkeypatch, p, max_degree, law):
        # the table of the points' pairs is reused for the first n columns
        # of x*s, so the engine computes every ordered pair once
        asked, row = [], OrbitClassifier.row

        def recording(self, i, js):
            asked.extend((i, j) for j in js)
            return row(self, i, js)

        monkeypatch.setattr(OrbitClassifier, "row", recording)
        crosscheck(p, law, max_degree)
        orbits = orbit_classifier(p, law, lcm(*range(1, max_degree + 1)))
        ids = [orbits.point_index(x) for x in line_points(p, law, max_degree)]
        assert len(asked) == len(set(asked))
        assert set(product(ids, repeat=2)) <= set(asked)

    @pytest.mark.parametrize("block_bytes", [hyperkernel.UNION_BLOCK_BYTES, 1], ids=["one-block", "block-per-point"])
    @pytest.mark.parametrize("law", LAWS)
    def test_failing_associativity_stops_where_the_triple_loop_does(self, monkeypatch, law, block_bytes):
        # corrupt one computed product at a time, through a wrapper of row:
        # the packed unions report the same verdict and first failing triple
        # as a loop over triples reading the same corrupted products, whether
        # the triples are compared in one block or one block per first point
        monkeypatch.setattr(hyperkernel, "UNION_BLOCK_BYTES", block_bytes)
        p, max_degree = 3, 2
        pts = line_points(p, law, max_degree)
        row, computed = OrbitClassifier.row, set()

        def corrupting(key, ids):
            def wrapped(self, i, js):
                out = row(self, i, js)
                computed.update((i, j) for j in js)
                for t, j in enumerate(js):
                    if (i, j) == key:
                        out[t] = (ids[0],) if out[t] != (ids[0],) else (ids[1],)
                return out

            return wrapped

        try:
            orbit_classifier.cache_clear()
            monkeypatch.setattr(OrbitClassifier, "row", corrupting(None, []))
            crosscheck(p, law, max_degree)
            keys = sorted(computed)
            failures = set()
            for key in keys[::5]:
                orbit_classifier.cache_clear()
                orbits = orbit_classifier(p, law, 2)
                ids = [orbits.point_index(x) for x in pts]
                monkeypatch.setattr(OrbitClassifier, "row", corrupting(key, ids))
                assoc = crosscheck(p, law, max_degree)["laws"]["associativity"]
                want = associativity_by_lookup(orbits, ids)
                assert (assoc["checked"], assoc["pass"]) == want, key
                if not want[1]:
                    failures.add(want[0])
            assert len(failures) > 1  # the first failing triple moves with the corrupted product
        finally:
            orbit_classifier.cache_clear()


def associativity_by_lookup(orbits, ids):
    """(checked, ok) of associativity over the triples of ids, by a loop that
    stops at the first triple whose two sides differ."""
    for t, (i, j, l) in enumerate(product(ids, repeat=3)):
        op = lambda a, b: orbits.row(a, [b])[0]
        left = {x for s in op(i, j) for x in op(s, l)}
        right = {x for s in op(j, l) for x in op(i, s)}
        if left != right:
            return t + 1, False
    return len(ids) ** 3, True


@lru_cache(maxsize=None)
def tensor_forced_zero_generator(p, law, f, g):
    """g_P computed as the definitional engine first did: the minimal
    polynomial of s in the full structure-constant algebra K_f ⊗ K_g, built
    and validated by tensor_algebra. Returns (g_P, the tensor algebra, s)."""
    field = PrimeField(p)
    kf, kg = monogenic_algebra(field, f.poly), monogenic_algebra(field, g.poly)
    ten = tensor_algebra(kf, kg)
    tf = np.kron(kf.generator, kg.unit) % p
    tg = np.kron(kf.unit, kg.generator) % p
    s = (tf + tg) % p if law == ADDITIVE else ten.mul_by(tf, tg[None])[0]
    return minimal_polynomial(s, ten), ten, s


def rank_filtered_definitional(p, law, f, g):
    """The definitional engine with the forced-one filter the lemma makes
    unnecessary: an irreducible factor pi of g_P is kept only if no element
    of (pi)/(g_P), spanned by pi(s)·s^j for j < deg g_P - deg pi, has a
    rank-one image in K_f ⊗ K_g, and T is skipped on the torus."""
    g_p, ten, s = tensor_forced_zero_generator(p, law, f, g)
    dgp = g_p.degree
    s_pows = np.zeros((dgp, ten.dim), dtype=np.int64)
    acc = ten.unit.copy()
    for k in range(dgp):
        s_pows[k] = acc
        acc = ten.mul_by(s, acc[None])[0]
    kept = []
    for pi, _mult in factor(g_p):
        if law == MULTIPLICATIVE and pi.coeffs[0] == 0:
            continue
        conv = np.zeros((dgp - pi.degree, dgp), dtype=np.int64)
        for j in range(conv.shape[0]):
            conv[j, j : j + pi.degree + 1] = pi.coeffs
        _, cls = span_rank_classes(matmul(conv, s_pows, p), f.degree, g.degree, p)
        if not (cls == 1).any():
            kept.append(LinePoint(law, pi))
    return tuple(sorted(kept, key=LinePoint.sort_key))


class TestDefinitionalEngine:
    def test_additive_quadratic_square(self):
        p = pt("T^2+1")
        got = definitional_hyperop(3, ADDITIVE, p, p)
        assert [q.label for q in got] == ["(T)", "(T^2+1)"]

    def test_linear_sum_collapses(self):
        f, g = pt("T-1"), pt("T-2")
        assert [q.label for q in definitional_hyperop(3, ADDITIVE, f, g)] == ["(T)"]

    def test_multiplicative_f5(self):
        f = pt("T-2", MULTIPLICATIVE, F5)
        g = pt("T-3", MULTIPLICATIVE, F5)
        assert [q.label for q in definitional_hyperop(5, MULTIPLICATIVE, f, g)] == ["(T-1)"]

    def test_engines_agree_on_mixed_degrees(self):
        f, g = pt("T-1"), pt("T^2+1")
        assert definitional_hyperop(3, ADDITIVE, f, g) == galois_hyperop(3, ADDITIVE, f, g)

    @pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
    def test_no_factor_is_rank_filtered(self, law):
        # every irreducible factor of g_P is a member: the rank filter drops none
        for f, g in product(line_points(3, law, 3), repeat=2):
            assert definitional_hyperop(3, law, f, g) == rank_filtered_definitional(3, law, f, g), (f, g)

    @pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
    @pytest.mark.parametrize("p, max_degree", [(3, 3), (5, 2), (7, 2)])
    def test_kronecker_operator_matches_tensor_algebra(self, p, max_degree, law):
        # g_P itself, not only its factors, equals the minimal polynomial of s
        # in the validated structure-constant tensor algebra: pair by pair,
        # and from the stacks of every pair, with the second points in a
        # seeded order of their own so that no stack row can stand in for
        # its transpose
        pts = line_points(p, law, max_degree)
        seconds = random.Random(p).sample(pts, len(pts))
        stacked = forced_zero_generators(p, law, pts, seconds)
        members = definitional_hyperops(p, law, pts, seconds)
        assert len(stacked) == len(members) == len(pts) ** 2
        for k, (f, g) in enumerate(product(pts, seconds)):
            g_p = tensor_forced_zero_generator(p, law, f, g)[0]
            assert stacked[k] == forced_zero_generators(p, law, [f], [g])[0] == g_p, (f, g)
            want = tuple(sorted((LinePoint(law, pi) for pi, _ in factor(g_p)), key=LinePoint.sort_key))
            assert members[k] == definitional_hyperop(p, law, f, g) == want, (f, g)

    def test_forced_zero_degree_bound(self):
        for f, g in product(line_points(3, ADDITIVE, 2), repeat=2):
            for q in definitional_hyperop(3, ADDITIVE, f, g):
                assert lcm(f.degree, g.degree) % q.degree == 0


class TestAntipode:
    def test_additive_negates_roots(self):
        assert line_antipode(pt("T-1")).label == "(T-2)"
        assert line_antipode(pt("T")).label == "(T)"
        assert line_antipode(pt("T^2+T+2")).label == "(T^2+2T+2)"

    def test_multiplicative_reciprocal_roots(self):
        f = pt("T-2", MULTIPLICATIVE, F5)
        assert line_antipode(f).label == "(T-3)"  # 1/2 = 3 mod 5

    def test_involution(self):
        for law in (ADDITIVE, MULTIPLICATIVE):
            for f in line_points(3, law, 3):
                assert line_antipode(line_antipode(f)) == f


class TestLineSize:
    @pytest.mark.parametrize("p, max_degree", [(3, 5), (5, 3), (7, 2), (11, 2), (13, 1)])
    @pytest.mark.parametrize("law", LAWS)
    def test_necklace_count_matches_enumeration(self, p, max_degree, law):
        assert line_point_count(p, law, max_degree) == len(line_points(p, law, max_degree))

    def test_every_configuration_run_elsewhere_is_accepted(self):
        for p, max_degree in ((3, 4), (5, 3), (7, 2)):
            for law in LAWS:
                require_line_size(p, law, max_degree)
        # 80 points, but crosscheck's field F_{3^60} is never built
        for law in LAWS:
            with pytest.raises(ValueError, match=r"N = lcm\(1\.\.5\) = 60 > 12"):
                require_line_size(3, law, 5)

    def test_first_size_past_the_bound_is_rejected(self):
        # 499 and 503 are consecutive primes; the torus leaves out (T)
        require_line_size(499, ADDITIVE, 1)
        require_line_size(499, MULTIPLICATIVE, 1)
        with pytest.raises(ValueError, match="more than 500 points"):
            require_line_size(503, ADDITIVE, 1)
        with pytest.raises(ValueError, match="more than 500 points"):
            require_line_size(503, MULTIPLICATIVE, 1)
        # p = 3: 196 points up to degree 6, within the point bound but past
        # the field bound; 508 up to degree 7, past the point bound, which
        # is checked first
        with pytest.raises(ValueError, match=r"N = lcm\(1\.\.6\) = 60 > 12"):
            require_line_size(3, ADDITIVE, 6)
        with pytest.raises(ValueError, match="more than 500 points"):
            crosscheck(3, ADDITIVE, 7)
        # N = 12 at degree 4 is the largest field accepted
        require_line_size(3, ADDITIVE, 4)

    def test_count_stops_past_the_bound(self):
        assert MAX_LINE_POINTS < line_point_count(3, ADDITIVE, 10**9) < 2 * MAX_LINE_POINTS
        assert line_point_count(1_000_003, ADDITIVE, 1) == 1_000_003


class TestCrosscheck:
    def test_p3_additive_d2(self):
        doc = crosscheck(3, ADDITIVE, 2)
        assert doc["agree"]
        assert all(pair["agree"] for pair in doc["pairs"])
        assert len(doc["pairs"]) == 36
        assert doc["laws"]["associativity"]["skipped"] == 0

    def test_p3_multiplicative_d2(self):
        doc = crosscheck(3, MULTIPLICATIVE, 2)
        assert doc["agree"]
        assert len(doc["pairs"]) == 25

    def test_p5_additive_d2(self):
        assert crosscheck(5, ADDITIVE, 2)["agree"]

    def test_commutativity_recorded(self):
        assert crosscheck(3, ADDITIVE, 2)["laws"]["commutativity"]

    def test_json_shape_contains_verbatim_pair(self):
        doc = crosscheck(3, ADDITIVE, 2)
        entry = [r for r in doc["pairs"] if r["f"] == [1, 0, 1] and r["g"] == [1, 0, 1]]
        assert entry and entry[0]["galois"] == [[0, 1], [1, 0, 1]]
        assert entry[0]["definitional"] == [[0, 1], [1, 0, 1]]
        assert entry[0]["agree"] is True

    @pytest.mark.parametrize(
        "p, law, max_degree", [(3, ADDITIVE, 3), (3, MULTIPLICATIVE, 3), (7, ADDITIVE, 2), (7, MULTIPLICATIVE, 2)]
    )
    def test_associativity_matches_per_triple_loop(self, p, law, max_degree):
        got = crosscheck(p, law, max_degree)["laws"]["associativity"]
        want = crosscheck_by_triples(p, law, max_degree)["laws"]["associativity"]
        assert got == want == {"checked": len(line_points(p, law, max_degree)) ** 3, "skipped": 0, "pass": True}

    def test_one_disagreeing_pair_clears_agree(self, monkeypatch):
        # the definitional engine drops one member of one pair: that pair and
        # the top-level verdict disagree, and nothing else changes
        p, law, max_degree = 3, ADDITIVE, 3
        want = crosscheck(p, law, max_degree)
        assert want["agree"]
        victim = next(k for k, pair in enumerate(want["pairs"]) if len(pair["definitional"]) > 1)
        stacked = galoisline.definitional_hyperops

        def dropping(*args):
            out = stacked(*args)
            out[victim] = out[victim][1:]
            return out

        monkeypatch.setattr(galoisline, "definitional_hyperops", dropping)
        doc = crosscheck(p, law, max_degree)
        assert [k for k, pair in enumerate(doc["pairs"]) if not pair["agree"]] == [victim]
        assert doc["agree"] is False
        assert {**doc, "pairs": want["pairs"], "agree": True} == want

    def test_failed_degree_bound_clears_agree(self, monkeypatch):
        # the degree bound reads lcm(deg f, deg g), the only two-argument lcm
        # of a crosscheck at max_degree 3; taken as 1, every member of degree
        # above 1 breaks the bound, and nothing else changes
        p, law, max_degree = 3, ADDITIVE, 3
        want = crosscheck(p, law, max_degree)
        assert want["degree_bound"] and want["agree"]
        real = galoisline.lcm
        monkeypatch.setattr(galoisline, "lcm", lambda *ds: 1 if len(ds) == 2 else real(*ds))
        doc = crosscheck(p, law, max_degree)
        assert doc["degree_bound"] is False and doc["agree"] is False
        assert {**doc, "degree_bound": True, "agree": True} == want

    @pytest.mark.parametrize(
        "law_name, key",
        [
            ("identity", "identity"),
            ("inverse", "antipode_inverse"),
            ("reversibility", "reversibility"),
            ("commutativity", "commutativity"),
            ("associativity", "associativity"),
        ],
    )
    def test_one_failing_law_clears_agree(self, monkeypatch, law_name, key):
        # spectrum_laws reports a first failure for one law only: its verdict
        # and the top-level verdict fail, and nothing else changes
        p, law, max_degree = 3, MULTIPLICATIVE, 2
        want = crosscheck(p, law, max_degree)
        assert want["agree"]
        laws = galoisline.spectrum_laws
        monkeypatch.setattr(galoisline, "spectrum_laws", lambda *args: {**laws(*args), law_name: (0, 0, 0)})
        doc = crosscheck(p, law, max_degree)
        assert doc["agree"] is False
        failed = {"checked": 1, "skipped": 0, "pass": False} if key == "associativity" else False
        assert doc["laws"][key] == failed
        assert {**doc, "laws": {**doc["laws"], key: want["laws"][key]}, "agree": True} == want

    def test_bad_args(self):
        with pytest.raises(ValueError):
            crosscheck(3, ADDITIVE, 0)

    @pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
    def test_characteristic_two_rejected(self, law):
        with pytest.raises(ValueError, match="odd prime"):
            crosscheck(2, law, 2)
        with pytest.raises(ValueError, match="odd prime"):
            line_points(2, law, 2)
        f2_line = LinePoint(law, parse_poly("T+1", PrimeField(2)))
        with pytest.raises(ValueError, match="odd prime"):
            definitional_hyperop(2, law, f2_line, f2_line)


def engine_mismatches(spec):
    """The pairs (f, g) of points of the builtin spec (addetale:p:k, or
    mu:p:n with n = p^k - 1) where hyperop_cube, galois_hyperop and
    definitional_hyperops do not give the same members, points matched by
    label, and the number of points. These builtins are the points of the
    line or torus of degree dividing k, and no two engines share decision
    code: idempotents and residue maps, roots in F_{p^N}, and Krylov
    relations with factorization."""
    from hyperspec import specops as ops
    from hyperspec.hopfkernel import parse_builtin

    h = parse_builtin(spec)
    p = h.algebra.field.p
    law = ADDITIVE if spec.startswith("addetale:") else MULTIPLICATIVE
    spectrum = ops.kpoints(h)
    by_label = {x.label: x for x in line_points(p, law, max(pt.degree for pt in spectrum))}
    pts = [by_label[pt.label] for pt in spectrum]
    cube = ops.hyperop_cube(h)
    definitional = definitional_hyperops(p, law, pts, pts)
    bad = []
    for (i, f), (j, g) in product(enumerate(pts), repeat=2):
        idempotent = {spectrum[k].label for k in np.flatnonzero(cube[i, j])}
        galois = {q.label for q in galois_hyperop(p, law, f, g)}
        if not idempotent == galois == {q.label for q in definitional[i * len(pts) + j]}:
            bad.append((f.label, g.label))
    return bad, len(pts)


class TestAgreementWithFiniteTruncations:
    def test_additive_identity_matches_spectrum_identity(self):
        from hyperspec import specops as ops
        from hyperspec.hopfkernel import parse_builtin

        h = parse_builtin("addetale:3:2")
        assert ops.identity_point(h).label == line_identity(3, ADDITIVE).label

    def test_multiplicative_identity_matches_spectrum_identity(self):
        from hyperspec import specops as ops
        from hyperspec.hopfkernel import parse_builtin

        h = parse_builtin("mu:5:4")
        assert ops.identity_point(h).label == line_identity(5, MULTIPLICATIVE).label

    @pytest.mark.parametrize("spec, points", [("addetale:3:3", 11), ("addetale:5:2", 15), ("mu:3:26", 10), ("mu:5:24", 14)])
    def test_three_engines_agree_on_every_pair(self, spec, points):
        assert engine_mismatches(spec) == ([], points)

    def test_truncation_shares_hyperop_values(self):
        # the 9-dimensional additive algebra is the degree<=2 fragment of the line
        from hyperspec import specops as ops
        from hyperspec.hopfkernel import parse_builtin

        h = parse_builtin("addetale:3:2")
        for f in line_points(3, ADDITIVE, 2):
            for g in line_points(3, ADDITIVE, 2):
                line_result = {q.label for q in galois_hyperop(3, ADDITIVE, f, g)}
                fa = ops.point_by_label(h, f.label)
                ga = ops.point_by_label(h, g.label)
                assert {m.label for m in ops.hyperop(h, fa, ga).members} == line_result
