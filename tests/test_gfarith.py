import random
from itertools import product
from math import gcd
import time

import numpy as np
import pytest
from conftest import charpoly, power, solve
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec.algkernel import field_algebra, field_roots, monogenic_algebra, tensor_algebra
from hyperspec import gfarith
from hyperspec.galoisline import ADDITIVE, MULTIPLICATIVE, line_points
from hyperspec.gfarith import (
    FpPoly,
    PrimeField,
    factor,
    factor_stack,
    find_irreducible,
    irreducibles_up_to,
    is_irreducible,
    minimal_polynomial,
    monic_polys,
    parse_poly,
    prime_power,
)
from hyperspec.hopfkernel import parse_builtin
from hyperspec.linalg import matmul

F3 = PrimeField(3)
F5 = PrimeField(5)


def P(text, field=F3):
    return parse_poly(text, field)


class TestPrimeField:
    def test_accepts_two(self):
        f2 = PrimeField(2)
        assert f2.inv(1) == 1
        with pytest.raises(ValueError, match="odd prime"):
            f2.require_odd()
        assert F3.require_odd() is F3

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(9)

    def test_rejects_p_beyond_int64_bound_at_once(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match=r"\(p-1\)\^2 < 2\^63"):
            PrimeField(2**61 - 1)  # a Mersenne prime; trial division to its root would not finish
        assert time.monotonic() - start < 1.0

    def test_bound_is_tight(self):
        assert PrimeField(3037000493).p == 3037000493  # the largest prime with (p-1)^2 < 2^63
        with pytest.raises(ValueError, match="2\\^63"):
            PrimeField(3037000507)  # the next prime

    def test_inverse(self):
        assert F5.inv(2) == 3
        with pytest.raises(ZeroDivisionError):
            F5.inv(0)


class TestPolyArithmetic:
    def test_normalization_strips_trailing_zeros(self):
        assert FpPoly.make(F3, [1, 2, 0, 0]).coeffs == (1, 2)
        assert FpPoly.make(F3, [0, 0]).is_zero()

    def test_degree_additivity(self):
        f, g = P("T^2+1"), P("2T^3+T+1")
        assert (f * g).degree == f.degree + g.degree

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=6), st.lists(st.integers(0, 2), min_size=1, max_size=6))
    def test_degree_additivity_random(self, a, b):
        f, g = FpPoly.make(F3, a), FpPoly.make(F3, b)
        if f.is_zero() or g.is_zero():
            assert (f * g).is_zero()
        else:
            assert (f * g).degree == f.degree + g.degree

    def test_divmod_roundtrip(self):
        f, g = P("T^4+2T+1"), P("T^2+T+2")
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
            P("T+1").divmod(FpPoly.zero(F3))

    def test_empty_string_rejected(self):
        for text in ("", "  "):
            with pytest.raises(ValueError, match="^empty polynomial string$"):
                parse_poly(text, F3)

    def test_power_basis_needs_a_monic_modulus(self):
        from hyperspec.gfarith import power_basis_tensor

        for modulus in (P("2T^2+1"), FpPoly.one(F3)):
            with pytest.raises(ValueError, match="^modulus must be monic of degree >= 1$"):
                power_basis_tensor(modulus)

    def test_monic_representative_is_canonical(self):
        f = P("2T^2+2")
        assert f.monic() == P("T^2+1")
        assert f.monic().is_monic()

    def test_str_forms(self):
        assert str(P("T-1")) == "T-1"
        assert str(P("T+2")) == "T-1"
        assert str(P("T^3+T")) == "T^3+T"
        assert str(P("T")) == "T"
        assert str(FpPoly.zero(F3)) == "0"

    def test_serialization_lowest_first(self):
        assert P("T^2+1").to_list() == [1, 0, 1]


class TestPowMod:
    """FpPoly.pow_mod, which gives the Frobenius its image of each algebra
    generator, against one product and one reduction per exponent."""

    @pytest.mark.parametrize("p", [3, 13, 2**31 - 1])
    def test_equals_repeated_product(self, p):
        field = PrimeField(p)
        rng = np.random.default_rng(p)
        for _ in range(4):
            modulus = FpPoly.make(field, [int(c) for c in rng.integers(0, p, size=int(rng.integers(1, 6)))] + [1])
            base = FpPoly.make(field, [int(c) for c in rng.integers(0, p, size=int(rng.integers(0, 8)))])
            acc = FpPoly.one(field)
            for e in range(300):
                assert base.pow_mod(e, modulus) == acc, (str(base), str(modulus), e)
                acc = acc * base % modulus


class TestIrreducibility:
    def test_t2_plus_1_over_f3(self):
        assert is_irreducible(P("T^2+1"))

    def test_t2_minus_1_reducible(self):
        assert not is_irreducible(P("T^2-1"))

    def test_degree_one(self):
        assert is_irreducible(parse_poly("T", F5))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(FpPoly.one(F3))


class TestFactor:
    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            factor(FpPoly.zero(F3))

    def test_t2_minus_one_f3(self):
        assert set(factor(P("T^2-1"))) == {(P("T-1"), 1), (P("T+1"), 1)}

    def test_t3_plus_t_f3(self):
        # oracle: trial division by all monic polynomials of degree <= 1
        target = P("T^3+T")
        divisors = [q for q in monic_polys(F3, 1) if (target % q).is_zero()]
        assert divisors == [P("T")]
        assert factor(target) == [(P("T"), 1), (P("T^2+1"), 1)]

    def test_t9_minus_t_f3(self):
        target = FpPoly.make(F3, [0, -1] + [0] * 7 + [1])
        got = factor(target)
        expected = sorted(
            [P("T"), P("T-1"), P("T-2"), P("T^2+1"), P("T^2+T+2"), P("T^2+2T+2")],
            key=lambda q: (q.degree, q.coeffs),
        )
        assert [q for q, _ in got] == expected
        assert all(m == 1 for _, m in got)
        prod = FpPoly.one(F3)
        for q, m in got:
            for _ in range(m):
                prod = prod * q
        assert prod == target

    def test_every_factor_is_irreducible(self):
        for q, _ in factor(P("T^6+T^4+2T^2+2")):
            assert is_irreducible(q)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_factor_multiply_roundtrip(self, data):
        field = PrimeField(data.draw(st.sampled_from([3, 5])))
        irr = list(irreducibles_up_to(field.p, 3))
        chosen = data.draw(st.lists(st.sampled_from(irr), min_size=1, max_size=3))
        if sum(q.degree for q in chosen) > 6:
            chosen = chosen[:1]
        prod = FpPoly.one(field)
        for q in chosen:
            prod = prod * q
        got = factor(prod)
        want = {}
        for q in chosen:
            want[q] = want.get(q, 0) + 1
        assert dict(got) == want


def trial_division_factor(poly):
    """factor by the loop it replaced: the monic remainder is divided by each
    monic candidate in monic_polys order, one FpPoly.divmod at a time."""
    rem, out, d = poly.monic(), [], 1
    while rem.degree >= 1:
        if d > rem.degree // 2:
            out.append((rem, 1))
            break
        found = first_monic_divisor(rem, d)
        if found is None:
            d += 1
            continue
        mult = 0
        while (rem % found).is_zero():
            rem, mult = rem // found, mult + 1
        out.append((found, mult))
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def trial_division_is_irreducible(poly):
    degrees = range(1, poly.degree // 2 + 1)
    return not any((poly % q).is_zero() for d in degrees for q in monic_polys(poly.field, d))


def first_monic_divisor(poly, d):
    """The first monic degree-d divisor of poly in monic_polys order, one
    FpPoly.divmod per candidate, or None."""
    return next((q for q in monic_polys(poly.field, d) if (poly % q).is_zero()), None)


def mixed_stack(p, seed):
    """A seeded stack for factor_stack: a monic polynomial of each degree
    up to 10 (p = 3) or 6, non-monic products with repeated factors, and a
    repeated row."""
    rng = random.Random(seed)
    field = PrimeField(p)
    stack = [FpPoly.make(field, [rng.randrange(p) for _ in range(d)] + [1]) for d in range(1, 11 if p == 3 else 7)]
    stack += non_monic_products(p, seed, count=12)
    stack.append(stack[3])
    rng.shuffle(stack)
    return stack


def non_monic_products(p, seed, count=30):
    """Seeded products c * q_1^e_1 * ... of irreducibles up to degree 3, with
    repeated factors and a leading coefficient c != 1."""
    rng = random.Random(seed)
    field = PrimeField(p)
    irr = irreducibles_up_to(p, 3)
    out = []
    for _ in range(count):
        poly = FpPoly.make(field, [rng.randrange(2, p)])
        for q in rng.sample(irr, rng.randint(1, 3)):
            for _ in range(rng.randint(1, 3)):
                poly = poly * q
        out.append(poly)
    return out


class TestBatchedTrialDivision:
    @pytest.mark.parametrize("p, max_degree", [(3, 7), (5, 4), (7, 3)])
    def test_every_monic_polynomial(self, p, max_degree):
        field = PrimeField(p)
        for d in range(1, max_degree + 1):
            for poly in monic_polys(field, d):
                assert factor(poly) == trial_division_factor(poly), str(poly)
                assert is_irreducible(poly) == trial_division_is_irreducible(poly), str(poly)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_non_monic_with_repeated_factors(self, p):
        for poly in non_monic_products(p, seed=p):
            assert not poly.is_monic()
            got = factor(poly)
            assert got == trial_division_factor(poly), str(poly)
            prod = FpPoly.make(poly.field, [poly.coeffs[-1]])
            for q, m in got:
                for _ in range(m):
                    prod = prod * q
            assert prod == poly
            assert is_irreducible(poly) == trial_division_is_irreducible(poly) == (len(got) == 1 and got[0][1] == 1)
        for q in irreducibles_up_to(p, 3):
            assert is_irreducible(q.scale(p - 1))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_stack_factors_row_by_row(self, p):
        # one stack mixing degrees, repeated factors, non-monic rows and
        # duplicates: each row factors as trial division factors it alone
        stack = mixed_stack(p, seed=p)
        got = factor_stack(stack)
        assert len(got) == len(stack)
        for poly, fs in zip(stack, got):
            assert fs == trial_division_factor(poly) == factor(poly), str(poly)
        assert factor_stack([]) == []
        with pytest.raises(ValueError, match="zero"):
            factor_stack([P("T"), FpPoly.zero(F3)])

    @pytest.mark.parametrize("rows", [gfarith.TRIAL_DIVISION_ROWS, 1, 5])
    def test_row_cap_changes_nothing(self, monkeypatch, rows):
        # blocks of `rows` (row, candidate) pairs, including a last partial
        # block when rows does not divide p^d or the stack height, give the
        # same first divisors, one polynomial at a time or as one stack
        monkeypatch.setattr(gfarith, "TRIAL_DIVISION_ROWS", rows)
        polys = [q for p, k in [(3, 6), (5, 3)] for d in range(1, k + 1) for q in monic_polys(PrimeField(p), d)]
        polys += non_monic_products(7, seed=rows, count=10)
        for poly in polys:
            assert factor(poly) == trial_division_factor(poly), str(poly)
            assert is_irreducible(poly) == trial_division_is_irreducible(poly), str(poly)
        for p in (3, 5, 7):
            stack = mixed_stack(p, seed=rows)
            assert factor_stack(stack) == [trial_division_factor(poly) for poly in stack], p

    def test_divisor_is_the_first_in_monic_polys_order(self):
        # (T-1)(T-2)(T^2+1) over F_3: T-2 = T+1 precedes T-1 = T+2, and
        # T^2+1 precedes (T-1)(T-2) = T^2+2, whichever rows share the stack;
        # on seeded stacks each row gets the divisor a search of its own finds
        poly = P("T-1") * P("T-2") * P("T^2+1")
        rows = np.array([poly.coeffs, (1, 0, 1, 0, 0), (0, 2, 1, 0, 0)], dtype=np.int64)
        first = lambda d: [None if k < 0 else list(monic_polys(F3, d))[k] for k in gfarith._first_divisors(rows, d, 3)]
        assert first(1) == [P("T-2"), None, P("T")]
        assert first(2)[0] == P("T^2+1")
        for p in (3, 5):
            stack = mixed_stack(p, seed=11)
            rows = np.zeros((len(stack), max(q.degree for q in stack) + 1), dtype=np.int64)
            for r, q in enumerate(stack):
                rows[r, : q.degree + 1] = q.monic().coeffs
            for d in (1, 2, 3):
                want = [first_monic_divisor(q.monic(), d) for q in stack]
                got = [None if k < 0 else list(monic_polys(PrimeField(p), d))[k] for k in gfarith._first_divisors(rows, d, p)]
                assert got == want, (p, d)

    def test_int64_bound_raises(self):
        # a p with (p-1)^2 + p >= 2^63 never reaches trial division: PrimeField
        # rejects it first, so the bound is met here through p^d
        with pytest.raises(ValueError, match="2\\^63"):
            PrimeField(3037000507)
        big = PrimeField(3037000493)  # the largest prime PrimeField accepts; p^3 >= 2^63
        with pytest.raises(ValueError, match="overflows int64"):
            gfarith._first_divisors(np.array([FpPoly.make(big, [1, 0, 0, 0, 0, 0, 1]).coeffs]), 3, big.p)


def sympy_factors(poly):
    """factor's result computed by sympy over GF(p): (monic factor, multiplicity)
    pairs with coefficients in [0, p), sorted as factor sorts them."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = poly.field.p
    _, pairs = sympy.Poly(list(reversed(poly.coeffs)), x, modulus=p).factor_list()
    out = [(FpPoly.make(poly.field, [int(c) % p for c in reversed(q.all_coeffs())]), m) for q, m in pairs]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


class TestAgainstSympy:
    def test_every_monic_polynomial_up_to_degree_4_over_f3(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for d in range(1, 5):
            for poly in monic_polys(F3, d):
                want = sympy_factors(poly)
                assert factor(poly) == want, str(poly)
                assert is_irreducible(poly) == sympy.Poly(list(reversed(poly.coeffs)), x, modulus=3).is_irreducible
                assert is_irreducible(poly) == (want == [(poly, 1)])

    @pytest.mark.parametrize("p", [5, 7])
    def test_seeded_polynomials(self, p):
        pytest.importorskip("sympy")
        rng = random.Random(p)
        field = PrimeField(p)
        for _ in range(40):
            degree = rng.randint(1, 6)
            coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            poly = FpPoly.make(field, coeffs)
            want = sympy_factors(poly)
            assert factor(poly) == want, str(poly)
            assert is_irreducible(poly) == (want == [(poly.monic(), 1)])

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_stacks(self, p):
        # factor_stack on stacks mixing degrees, repeated factors and
        # non-monic rows, row by row against sympy
        pytest.importorskip("sympy")
        for seed in range(3):
            stack = mixed_stack(p, seed) + non_monic_products(p, seed + 100, count=10)
            assert factor_stack(stack) == [sympy_factors(poly) for poly in stack], (p, seed)


def assert_minimal_by_sympy(v, alg):
    """minimal_polynomial(v, alg) checked in sympy's arithmetic mod p against
    the multiplication matrix L_v built from the structure constants: m is
    monic, m(L_v) = 0, m divides the characteristic polynomial of L_v, and
    (m/q)(L_v) != 0 for every irreducible factor q of m. Matrix products run
    over the integers and are reduced into GF(p) only for the zero test."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    p, n = alg.field.p, alg.dim
    zz, dom = sympy.ZZ, sympy.GF(p)
    x = sympy.Symbol("x")
    lv = [[zz(sum(int(v[i]) * int(alg.mul[i, j, k]) for i in range(n))) for j in range(n)] for k in range(n)]
    mat = DomainMatrix(lv, (n, n), zz)
    m = minimal_polynomial(v, alg)
    powers = [DomainMatrix.eye(n, zz)]
    for _ in range(m.degree):
        powers.append(powers[-1] * mat)

    def vanishes_at_mat(poly):
        acc = DomainMatrix.zeros((n, n), zz)
        for k, c in enumerate(reversed(poly.all_coeffs())):
            acc = acc + powers[k] * zz(int(c))
        return acc.convert_to(dom).is_zero_matrix

    assert m.is_monic()
    mp = sympy.Poly(list(reversed(m.coeffs)), x, modulus=p)
    assert vanishes_at_mat(mp)
    assert sympy.Poly([int(c) for c in mat.charpoly()], x, modulus=p).rem(mp).is_zero
    for q, _mult in mp.factor_list()[1]:
        assert not vanishes_at_mat(mp.quo(q)), (str(m), str(q))


class TestMinimalPolynomialAgainstSympy:
    @pytest.mark.parametrize("law", [ADDITIVE, MULTIPLICATIVE])
    def test_coproduct_generator_images_of_line_pairs(self, law):
        # the element s whose minimal polynomial the definitional line engine factors
        for f, g in product(line_points(3, law, 2), repeat=2):
            kf, kg = monogenic_algebra(F3, f.poly), monogenic_algebra(F3, g.poly)
            ten = tensor_algebra(kf, kg)
            tf = np.kron(kf.generator, kg.unit) % 3
            tg = np.kron(kf.unit, kg.generator) % 3
            assert_minimal_by_sympy((tf + tg) % 3 if law == ADDITIVE else ten.mul_by(tf, tg[None])[0], ten)

    @pytest.mark.parametrize("spec", ["addetale:3:2", "mu:5:4"])
    def test_seeded_elements(self, spec):
        alg = parse_builtin(spec).algebra
        rng = random.Random(spec)
        for _ in range(50):
            assert_minimal_by_sympy(np.array([rng.randrange(alg.field.p) for _ in range(alg.dim)]), alg)


class TestMinimalPolynomial:
    def test_unit_gives_t_minus_1(self):
        alg = monogenic_algebra(F3, P("T^2+1"))
        assert minimal_polynomial(alg.unit, alg) == P("T-1")

    def test_defining_relation(self):
        alg = monogenic_algebra(F3, P("T^2+1"))
        assert minimal_polynomial(alg.generator, alg) == P("T^2+1")

    def test_tensor_element_t3_plus_t(self):
        # T⊗1 + 1⊗T inside F_9 ⊗ F_9, both factors F_3[i]
        f9 = monogenic_algebra(F3, P("T^2+1"))
        ten = tensor_algebra(f9, f9)
        elem = (np.kron(f9.generator, f9.unit) + np.kron(f9.unit, f9.generator)) % 3
        m = minimal_polynomial(elem, ten)
        assert m == P("T^3+T")
        # independent check: m kills the element, nothing of lower degree does
        acc = np.zeros(4, dtype=np.int64)
        for c in reversed(m.coeffs):
            acc = ten.mul_by(elem, acc[None])[0]
            acc = (acc + c * ten.unit) % 3
        assert not acc.any()
        for d in range(1, m.degree):
            for cand in monic_polys(F3, d):
                acc = np.zeros(4, dtype=np.int64)
                for c in reversed(cand.coeffs):
                    acc = ten.mul_by(elem, acc[None])[0]
                    acc = (acc + c * ten.unit) % 3
                assert acc.any()

    def test_divides_charpoly_of_multiplication(self):
        alg = monogenic_algebra(F5, P("T^4-1", F5))
        for v in [alg.generator, power(alg, alg.generator, 2), (alg.generator + alg.unit) % 5]:
            m = minimal_polynomial(v, alg)
            cp = FpPoly.make(F5, charpoly(alg.left_mul_matrix(v), 5))
            assert (cp % m).is_zero()


def solve_loop_relation(powers, field):
    """Reference for gfarith._first_monic_relation: one linear solve for each
    candidate degree d = 1, 2, ... until powers[d] lies in the span of the
    lower powers."""
    p = field.p
    for d in range(1, len(powers)):
        sol = solve(powers[:d].T, powers[d], p)
        if sol is not None:
            return FpPoly.make(field, [(-int(c)) % p for c in sol] + [1])
    raise AssertionError("no relation among the powers")


def power_rows(alg, elem, unit):
    rows = [np.asarray(unit, dtype=np.int64)]
    for _ in range(alg.dim):
        rows.append(alg.mul_by(elem, rows[-1][None])[0])
    return np.array(rows)


MODULI = {3: ["T-1", "T^2+1", "T^3-T", "T^3", "T^4+T+2", "T^2"], 5: ["T^2+2", "T^4-1", "T^3+T+1"]}


class TestFirstMonicRelation:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_solve_loop(self, data):
        p = data.draw(st.sampled_from([3, 5]))
        field = PrimeField(p)
        algs = [monogenic_algebra(field, P(text, field)) for text in MODULI[p]]
        alg = data.draw(st.sampled_from(algs))
        if data.draw(st.booleans()):
            small = [a for a in algs if a.dim <= 2]
            alg = tensor_algebra(alg if alg.dim <= 3 else small[0], data.draw(st.sampled_from(small)))
        elem = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=alg.dim, max_size=alg.dim)))
        powers = power_rows(alg, elem, alg.unit)
        want = solve_loop_relation(powers, field)
        assert gfarith._first_monic_relation(powers, field) == want
        assert minimal_polynomial(elem, alg) == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_idempotent_unit_matches_solve_loop(self, data):
        # F_3[T]/(T^9-T) is a product of copies of F_3 and F_9, so x^8 is an
        # idempotent for every x; maximal_spectrum passes such a unit
        alg = monogenic_algebra(F3, P("T^9-T"))
        draw_vec = st.lists(st.integers(0, 2), min_size=9, max_size=9).filter(any)
        unit = power(alg, np.array(data.draw(draw_vec)), 8)
        assert (alg.mul_by(unit, unit[None])[0] == unit).all()
        elem = alg.mul_by(unit, np.array([data.draw(draw_vec)]))[0]
        powers = power_rows(alg, elem, unit)
        want = solve_loop_relation(powers, F3)
        assert gfarith._first_monic_relation(powers, F3) == want
        assert gfarith._first_monic_relation(alg.powers(elem, unit, alg.dim + 1), F3) == want


def field_elements(p, m):
    """Every element of field_algebra(p, m) as a coordinate row, in
    lexicographic order of the coordinates."""
    return np.array(list(product(range(p), repeat=m)), dtype=np.int64).reshape(-1, m)


class TestPrimePower:
    def test_split(self):
        got = {q: prime_power(q) for q in (0, 1, 2, 12, 13, 2**5, 3**4, 7**3 * 2)}
        assert got == {0: None, 1: None, 2: (2, 1), 12: None, 13: (13, 1), 32: (2, 5), 81: (3, 4), 686: None}


class TestFq:
    def test_frobenius_additivity_exhaustive(self):
        # (a+b)^p = a^p + b^p for every pair, all fields with p^k <= 81, with
        # x^p by repeated squaring; the Frobenius matrix is that same map
        for p, k in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]:
            fq, frob = field_algebra(p, k)
            elems = field_elements(p, k)
            pows = np.array([power(fq, x, p) for x in elems])
            assert (matmul(elems, frob.T, p) == pows).all()
            place = p ** np.arange(k - 1, -1, -1)  # row index of a coordinate vector
            sums = (elems[:, None, :] + elems[None, :, :]) % p @ place
            assert (pows[sums] == (pows[:, None, :] + pows[None, :, :]) % p).all()

    def test_frobenius_fixes_exactly_fp(self):
        _, frob = field_algebra(3, 2)
        elems = field_elements(3, 2)
        assert elems[(matmul(elems, frob.T, 3) == elems).all(axis=1)].tolist() == [[0, 0], [1, 0], [2, 0]]

    @pytest.mark.parametrize("p, m", [(3, 1), (3, 4), (3, 6), (5, 2), (5, 3), (7, 2)])
    def test_frobenius_powers_fix_the_subfields(self, p, m):
        # Frob^d fixes F_{p^m} ∩ F_{p^d} = F_{p^gcd(d, m)}, so exactly p^d
        # elements when d | m; counted over the whole field
        _, frob = field_algebra(p, m)
        elems = field_elements(p, m)
        images = elems
        for d in range(1, m + 1):
            images = matmul(images, frob.T, p)
            assert int((images == elems).all(axis=1).sum()) == p ** gcd(d, m), d

    def test_minpoly_over_fp(self):
        fq, _ = field_algebra(3, 2)  # F_3[T]/(T^2+1)
        assert minimal_polynomial([0, 1], fq) == P("T^2+1")
        assert minimal_polynomial([1, 1], fq) == P("T^2+T+2")

    def test_find_irreducible_is_the_lex_first_irreducible(self):
        # find_irreducible skips the constant-term-0 candidates of degree >= 2;
        # the lex-first search over every monic polynomial is the reference
        for p, max_e in [(3, 7), (5, 4), (7, 3)]:
            for e in range(1, max_e + 1):
                lex_first = next(q for q in monic_polys(PrimeField(p), e) if is_irreducible(q))
                assert find_irreducible(p, e) == lex_first, (p, e)

    def test_find_irreducible_over_f2(self):
        expected = {2: (1, 1, 1), 3: (1, 0, 1, 1), 4: (1, 0, 0, 1, 1), 5: (1, 0, 0, 1, 0, 1)}
        for e, coeffs in expected.items():
            assert find_irreducible(2, e).coeffs == coeffs

    @pytest.mark.parametrize("d", (0, -2))
    def test_degree_below_one_is_rejected(self, d):
        # no field has degree d < 1: a ValueError naming d, from
        # find_irreducible and from field_algebra, which builds on it
        for build in (find_irreducible, field_algebra):
            with pytest.raises(ValueError, match=rf"^F_5\^{d} is no field: the degree must be at least 1$"):
                build(5, d)


class TestPolyRootsInFq:
    """field_roots, against a schoolbook evaluation over the whole field."""

    @staticmethod
    def batch_scan(poly, mod):
        """Every element of F_q at which poly vanishes, in lexicographic order
        of coordinates, as coefficient lists: each power x^k by schoolbook
        product with x and long division by the modulus, all elements at once."""
        p, k = mod.field.p, mod.degree
        xs = np.array(list(product(range(p), repeat=k)), dtype=np.int64)
        xpow = np.zeros_like(xs)
        xpow[:, 0] = 1
        value = np.zeros_like(xs)
        for c in poly.coeffs:
            value = (value + c * xpow) % p
            prod = np.zeros((xs.shape[0], 2 * k - 1), dtype=np.int64)
            for i in range(k):
                prod[:, i : i + k] += xpow[:, i : i + 1] * xs
            for top in range(2 * k - 2, k - 1, -1):
                lead = prod[:, top] % p
                for i, m in enumerate(mod.coeffs):
                    prod[:, top - k + i] -= lead * m
            xpow = prod[:, :k] % p
        return xs[~value.any(axis=1)].tolist()

    @staticmethod
    def roots(poly, m):
        """The roots of any nonzero poly in F_{p^m}, sorted: the roots of
        each irreducible factor whose degree divides m."""
        return sorted(r for q, _ in factor(poly) if m % q.degree == 0 for r in field_roots(q, m).tolist())

    def test_scan_order(self):
        # find_irreducible(3, 2) is T^2+1, so t is a root of T^2+1
        assert field_roots(P("T^2+1"), 2).tolist() == [[0, 1], [0, 2]]

    @pytest.mark.parametrize(
        "text, k",
        [pytest.param(text, 2, id=text) for text in ["T^2+1", "T^9-T", "T^3-T", "T^4+T+2", "T+1", "T^2+T+2"]]
        + [pytest.param("T^3-T^2", 3, id="T^3-T^2 in F_27"), pytest.param("T^3+2T+1", 3, id="T^3+2T+1 in F_27")],
    )
    def test_matches_exhaustive_evaluation(self, text, k):
        poly = P(text)
        assert self.roots(poly, k) == self.batch_scan(poly, find_irreducible(3, k))

    # every irreducible of degree dividing m, so both d < m and d = m; a
    # linear one also scaled, as its root is read off, not scanned
    @pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 1), (7, 2), (13, 1), (13, 2)])
    def test_every_irreducible_matches_schoolbook_scan(self, p, m):
        mod = find_irreducible(p, m)
        for q in irreducibles_up_to(p, m):
            if m % q.degree == 0:
                for poly in [q.scale(c) for c in range(1, p)] if q.degree == 1 else [q]:
                    assert field_roots(poly, m).tolist() == self.batch_scan(poly, mod), poly

    # F_{3^9} meets F_9 in F_3, so only the linear factors and cubics split
    @pytest.mark.parametrize("text, count", [("T^9-T", 3), ("T^3+2T+1", 3), ("T^3-T^2", 2), ("T^6+T^4+2T^2+2", 2)])
    def test_field_larger_than_one_block(self, text, count):
        poly = P(text)
        roots = self.roots(poly, 9)
        assert roots == self.batch_scan(poly, find_irreducible(3, 9))
        assert len(roots) == count

    def test_degree_nine_roots_in_f_3_9(self):
        # d = m = 9: the subfield is the whole field of 19,683 elements
        mod = find_irreducible(3, 9)
        t = [0, 1] + [0] * 7
        for q in (mod, P("T^9+T^4+2")):
            roots = field_roots(q, 9).tolist()
            assert roots == self.batch_scan(q, mod)
            assert len(roots) == 9 and (t in roots) == (q == mod)

    def test_rejects_degree_not_dividing(self):
        with pytest.raises(ValueError, match="degree must divide"):
            field_roots(P("T^2+1"), 3)

    @pytest.mark.parametrize(
        "text, m",
        [("T^2", 2), ("T^2+T", 2), ("T^3+T", 3), ("T^4+2T^2+1", 4), ("T^4+T^3+T+2", 4)],
    )
    def test_rejects_reducible(self, text, m):
        # T^2+T and (T^2+1)(T^2+T+2) = T^4+T^3+T+2 have deg many roots, but
        # not the Frobenius conjugates of one element
        poly = P(text)
        assert not is_irreducible(poly)
        with pytest.raises(ValueError, match="not irreducible"):
            field_roots(poly, m)
