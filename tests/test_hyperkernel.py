import json
import random
from itertools import product

import numpy as np
import pytest
from conftest import hypergroup_report_by_einsum, hyperring_report_by_einsum, member_cube, members_by_argsort
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec import hyperkernel
from hyperspec.hyperkernel import (
    HyperRingTable,
    HyperTable,
    check_hypergroup,
    check_hyperring,
    check_hyperring_hom,
    cyclic_unit_subgroups,
    extend_to_subsets,
    field_ring,
    hyperring_isomorphic_to_krasner,
    krasner_hyperfield,
    quotient_hyperring,
    sign_hyperfield,
    zmod_ring,
)

K = krasner_hyperfield()
S = sign_hyperfield()
MODES = ("strong", "marty", "canonical")


def table_from_cube(names, cube) -> HyperTable:
    n = len(names)
    return HyperTable(names, {(names[a], names[b]): [names[x] for x in np.nonzero(cube[a, b])[0]]
                              for a in range(n) for b in range(n)})


def ring_with(r: HyperRingTable, cube, mul) -> HyperRingTable:
    """r with its addition cube and multiplication table replaced."""
    names = r.carrier
    n = len(names)
    return HyperRingTable(table_from_cube(names, cube),
                          {(names[a], names[b]): names[mul[a, b]] for a in range(n) for b in range(n)},
                          r.zero, r.one)


def quotient_corpus() -> list[HyperRingTable]:
    """K, S and F_q/G for every prime power q <= 27 and every subgroup G."""
    out = [K, S]
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        ring = field_ring(q)
        out.extend(quotient_hyperring(ring, g) for g in cyclic_unit_subgroups(ring))
    return out


def mutants(r: HyperRingTable, rng: random.Random) -> list[HyperRingTable]:
    """Three mutated copies of r: one member of one sum toggled (kept
    nonempty), the same plus one product changed, and one product changed."""
    n = len(r.carrier)
    cube = r.add.cube.copy()
    a, b, x = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    cube[a, b, x] ^= True
    cube[a, b, x] |= not cube[a, b].any()
    mul = r.mul.copy()
    mul[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
    return [ring_with(r, cube, r.mul), ring_with(r, cube, mul), ring_with(r, r.add.cube, mul)]


CORPUS = quotient_corpus()
MUTANTS = [m for i, r in enumerate(CORPUS) for m in mutants(r, random.Random(i))]


class TestExtendToSubsets:
    def test_one_plus_one_in_krasner(self):
        assert extend_to_subsets(K.add, ["1"], ["1"]) == frozenset({"0", "1"})

    def test_singletons_reduce_to_op(self):
        for a, b in product(K.carrier, repeat=2):
            assert extend_to_subsets(K.add, [a], [b]) == K.add.op(a, b)

    def test_signs_pair_plus_zero(self):
        assert extend_to_subsets(S.add, ["1", "-1"], ["0"]) == frozenset({"1", "-1"})

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            extend_to_subsets(K.add, [], ["1"])


class TestHypergroupChecks:
    def test_krasner_addition_is_canonical(self):
        assert check_hypergroup(K.add, "canonical").ok

    def test_signs_addition_is_canonical(self):
        assert check_hypergroup(S.add, "canonical").ok

    def test_missing_inverse_detected(self):
        t = HyperTable(
            ["0", "1"],
            {("0", "0"): ["0"], ("0", "1"): ["1"], ("1", "0"): ["1"], ("1", "1"): ["1"]},
        )
        rep = check_hypergroup(t, "canonical")
        assert not rep.ok
        assert not rep.checks["inverses_unique"].passed
        assert rep.checks["inverses_unique"].witness[0] == "1"

    def test_strong_pass_implies_marty_pass(self):
        for table in (K.add, S.add):
            if check_hypergroup(table, "strong").ok:
                assert check_hypergroup(table, "marty").ok

    def test_canonical_zero_in_a_plus_minus_a(self):
        # 0 lies in a + (-a) whenever the canonical checks pass
        for table in (K.add, S.add):
            rep = check_hypergroup(table, "canonical")
            assert rep.ok
            ids = [e for e in table.carrier if table.op(e, e) == frozenset({e})
                   and all(table.op(e, a) == frozenset({a}) for a in table.carrier)]
            e = ids[0]
            for a in table.carrier:
                inv = [b for b in table.carrier if e in table.op(a, b) and e in table.op(b, a)]
                assert len(inv) == 1
                assert e in table.op(a, inv[0])

    def test_associativity_failure_has_witness(self):
        t = HyperTable(
            ["0", "1"],
            {("0", "0"): ["0"], ("0", "1"): ["0"], ("1", "0"): ["1"], ("1", "1"): ["0"]},
        )
        rep = check_hypergroup(t, "strong")
        if not rep.checks["associativity"].passed:
            assert len(rep.checks["associativity"].witness) == 5

    def test_marty_mode_passes_on_hyperfield_addition(self):
        assert check_hypergroup(K.add, "marty").ok
        assert check_hypergroup(S.add, "marty").ok

    def test_marty_reproducibility_failure(self):
        t = HyperTable(
            ["0", "1"],
            {("0", "0"): ["0"], ("0", "1"): ["0"], ("1", "0"): ["0"], ("1", "1"): ["0"]},
        )
        rep = check_hypergroup(t, "marty")
        assert not rep.ok
        assert not rep.checks["reproducibility"].passed
        assert rep.checks["reproducibility"].witness

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check_hypergroup(K.add, "weak")


class TestPackedKernelsAgainstEinsum:
    """The packed member-set unions against the einsum n^4 cubes they
    replaced: whole reports, witnesses included."""

    @pytest.mark.parametrize(
        "r", CORPUS + MUTANTS, ids=[f"table{i}" for i in range(len(CORPUS))] + [f"mutant{i}" for i in range(len(MUTANTS))]
    )
    def test_corpus_and_mutants(self, r):
        assert check_hyperring(r).to_json() == hyperring_report_by_einsum(r).to_json()
        for mode in MODES:
            assert check_hypergroup(r.add, mode).to_json() == hypergroup_report_by_einsum(r.add, mode).to_json()

    def test_mutants_reach_witnesses(self):
        # the comparison above compares witnesses only if mutants fail
        reports = [check_hyperring(m) for m in MUTANTS]
        assert sum(not rep.checks["distributivity"].passed for rep in reports) > len(MUTANTS) // 4
        assert sum(not check_hypergroup(m.add).checks["associativity"].passed for m in MUTANTS) > len(MUTANTS) // 4

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(any), min_size=n * n, max_size=n * n))))
    @settings(max_examples=150, deadline=None)
    def test_random_hypergroups(self, drawn):
        n, rows = drawn
        t = table_from_cube([str(i) for i in range(n)], np.array(rows, dtype=bool).reshape(n, n, n))
        for mode in MODES:
            assert check_hypergroup(t, mode).to_json() == hypergroup_report_by_einsum(t, mode).to_json()

    def test_union_that_drops_a_member_is_caught(self, monkeypatch):
        # a _members that loses the last member of the first a*b with two or
        # more members: the unions then disagree with the einsum cubes
        def dropping(cube):
            members = real(cube).copy()
            a, b = (int(v) for v in np.argwhere(cube.sum(axis=2) >= 2)[0])
            last = int(np.count_nonzero(members[a, b] < cube.shape[2])) - 1
            members[a, b, last] = cube.shape[2]
            return members

        real = hyperkernel._members
        multi = [r for r in CORPUS if not r.add.is_single_valued()]
        monkeypatch.setattr(hyperkernel, "_members", dropping)
        caught = [r for r in multi if check_hyperring(r).to_json() != hyperring_report_by_einsum(r).to_json()]
        assert caught == multi


def laws_of(left, right, e, anti):
    """hyperkernel.spectrum_laws on the packed sets of bool cubes."""
    return hyperkernel.spectrum_laws(hyperkernel._packed(left), hyperkernel._packed(right), e, anti)


def laws_by_loops(left, right, e, anti):
    """hyperkernel.spectrum_laws by loops over the definitions, on member
    sets: the first failing index of each law, in index order."""
    n, s, m = right.shape
    table = left[:n]
    member = lambda a, b: {x for x in range(m) if table[a, b, x]}
    lside = lambda f, g, k: {z for x in member(f, g) for z in range(m) if left[x, k, z]}
    rside = lambda f, g, k: {z for y in member(g, k) for z in range(m) if right[f, y, z]}
    pts = range(n)

    def first(fails, *ranges):
        return next((idx for idx in product(*ranges) if fails(*idx)), None)

    return {
        "nonempty": first(lambda f, g: not member(f, g), pts, pts),
        "identity": first(lambda f: member(e, f) != {f} or member(f, e) != {f}, pts),
        "inverse": first(lambda f: not (table[f, anti[f], e] and table[anti[f], f, e]), pts),
        "reversibility": first(lambda f, g, x: table[f, g, x] != table[anti[g], anti[f], anti[x]], pts, pts, range(s)),
        "commutativity": first(lambda f, g: member(f, g) != member(g, f), pts, pts),
        "associativity": first(lambda f, g, k: lside(f, g, k) != rside(f, g, k), pts, pts, pts),
        "weak_associativity": first(lambda f, g, k: not lside(f, g, k) & rside(f, g, k), pts, pts, pts),
    }


def cube_of(sets, m):
    """The bool cube C[a, b, x] = (x in sets[a][b]), m positions wide."""
    cube = np.zeros((len(sets), len(sets[0]), m), dtype=bool)
    for a, row in enumerate(sets):
        for b, xs in enumerate(row):
            cube[a, b, list(xs)] = True
    return cube


def z3_with(**changes):
    """The Cayley table of Z/3 as a cube, with the sets at the "ab" keys of
    changes replaced."""
    sets = [[{(a + b) % 3} for b in range(3)] for a in range(3)]
    for key, xs in changes.items():
        sets[int(key[1])][int(key[2])] = xs
    return cube_of(sets, 3)


Z3_ANTI = [0, 2, 1]

# (cube, antipode, the law made to fail, its first failing index)
ENGINE_CASES = [
    (z3_with(), Z3_ANTI, None, None),
    (z3_with(_21=set()), Z3_ANTI, "nonempty", (2, 1)),
    (z3_with(_10={1, 2}), Z3_ANTI, "identity", (1,)),
    (z3_with(), [0, 1, 2], "inverse", (1,)),
    (z3_with(_00={0, 1}), Z3_ANTI, "reversibility", (0, 0, 1)),
    (z3_with(_12={0, 1}), Z3_ANTI, "commutativity", (1, 2)),
    (z3_with(_11={0, 2}), Z3_ANTI, "associativity", (1, 1, 2)),
    (z3_with(_11={0}), Z3_ANTI, "weak_associativity", (1, 1, 2)),
    # both sides of every triple empty: disjoint, yet equal
    (np.zeros((2, 2, 2), dtype=bool), [0, 1], "weak_associativity", (0, 0, 0)),
]


def rectangular(right_12):
    """Two points, e = 0 and 1 with 1*1 = {0, 2}: s = 3 positions hold the
    points and that member, 2*1 = {1, 3} adds a fourth, and position 4 is
    the all-false position that the antipode of 2 maps to. right_12 is
    1*2; {1, 3}, equal to 2*1, keeps every triple associative."""
    table = [[{0}, {1}], [{1}, {0, 2}]]
    left = cube_of(table + [[{2}, {1, 3}]], 5)
    right = cube_of([[{0}, {1}, {2}], [{1}, {0, 2}, right_12]], 5)
    return left, right, [0, 1, 4]


class TestMemberSets:
    """The law engine's two forms of member sets, against their oracles:
    _members against a stable argsort of each cell (members_by_argsort),
    and _packed_members against _packed of the cube set by a scatter
    (member_cube)."""

    @staticmethod
    def random_cubes(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            shape = tuple(int(v) for v in rng.integers(1, 8, 3))
            yield rng.random(shape) < rng.uniform(0, 0.7)  # at low density, many cells are empty

    def test_members_match_argsort(self):
        empty = np.zeros((3, 4, 5), dtype=bool)
        full_cell = empty.copy()
        full_cell[1, 2] = True
        for cube in [*self.random_cubes(28, 300), empty, full_cell, np.ones((2, 2, 70), dtype=bool)]:
            for view in (cube, cube[:, :, : max(1, cube.shape[2] - 2)]):  # the engine reads a slice of its table
                got = hyperkernel._members(view)
                assert got.dtype == np.int64
                assert np.array_equal(got, members_by_argsort(view)), view.shape
        assert np.array_equal(hyperkernel._members(empty), np.full((3, 4, 1), 5))
        assert np.array_equal(hyperkernel._members(full_cell)[1, 2], np.arange(5))

    def test_packed_members_match_packed_cube(self):
        rng = np.random.default_rng(29)
        for cube in [*self.random_cubes(29, 300), np.ones((2, 3, 128), dtype=bool), np.ones((2, 3, 129), dtype=bool)]:
            rows, cols, width = cube.shape
            a, b, x = np.nonzero(cube)
            cells, xs = a * cols + b, x
            perm = rng.permutation(len(cells))  # members in any order, some listed twice
            cells, xs = np.concatenate([cells[perm], cells[: len(cells) // 3]]), np.concatenate([xs[perm], xs[: len(xs) // 3]])
            got = hyperkernel._packed_members(cells, xs, cube.shape)
            assert np.array_equal(member_cube(cells, xs, cube.shape), cube)
            assert got.shape == (-(-width // 64), rows, cols)
            assert np.array_equal(got, hyperkernel._packed(cube)), cube.shape
            unpacked = hyperkernel._unpacked(got)
            assert np.array_equal(unpacked[:, :, :width], cube) and not unpacked[:, :, width:].any()


class TestLawEngine:
    """hyperkernel.spectrum_laws on hand-built cubes in which each law
    fails first at a known index, against loops over the definitions."""

    @pytest.mark.parametrize("block_bytes", [hyperkernel.UNION_BLOCK_BYTES, 1], ids=["one-block", "block-per-point"])
    @pytest.mark.parametrize("cube, anti, law, index", ENGINE_CASES, ids=[str(c[2]) for c in ENGINE_CASES])
    def test_first_failure_of_each_law(self, monkeypatch, cube, anti, law, index, block_bytes):
        monkeypatch.setattr(hyperkernel, "UNION_BLOCK_BYTES", block_bytes)
        got = laws_of(cube, cube, 0, anti)
        assert got == laws_by_loops(cube, cube, 0, anti)
        if law is None:
            assert set(got.values()) == {None}
        else:
            assert got[law] == index

    def test_rectangular_cubes(self):
        left, right, anti = rectangular({1, 3})
        want = dict.fromkeys(laws_by_loops(left, right, 0, anti))
        want["reversibility"] = (1, 1, 2)  # 2 is in 1*1, its antipode in nothing
        assert laws_of(left, right, 0, anti) == laws_by_loops(left, right, 0, anti) == want
        left, right, anti = rectangular({2})  # (1*1)*1 = {1, 3}, 1*(1*1) = {1, 2}
        got = laws_of(left, right, 0, anti)
        assert got == laws_by_loops(left, right, 0, anti)
        assert (got["associativity"], got["weak_associativity"]) == ((1, 1, 1), None)

    @pytest.mark.parametrize("block_bytes", [hyperkernel.UNION_BLOCK_BYTES, 1], ids=["one-block", "block-per-point"])
    def test_random_rectangular_cubes(self, monkeypatch, block_bytes):
        monkeypatch.setattr(hyperkernel, "UNION_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            s = n + int(rng.integers(0, 3))
            m = s + int(rng.integers(0, 3))
            density = rng.uniform(0.1, 0.6)
            left = rng.random((s, n, m)) < density
            left[:n, :, s:] = False  # the table's members lie in the first s positions
            right = rng.random((n, s, m)) < density
            if rng.random() < 0.5:
                right[:, :n] = left[:n]  # f*y for a point y, read from the table
            anti = np.concatenate([rng.permutation(n), rng.integers(0, m, s - n)])
            e = int(rng.integers(0, n))
            assert laws_of(left, right, e, anti) == laws_by_loops(left, right, e, anti)

    @pytest.mark.parametrize("block_bytes", [hyperkernel.UNION_BLOCK_BYTES, 1], ids=["one-block", "block-per-point"])
    def test_check_hypergroup_in_blocks(self, monkeypatch, block_bytes):
        monkeypatch.setattr(hyperkernel, "UNION_BLOCK_BYTES", block_bytes)
        for r in CORPUS + MUTANTS:
            for mode in MODES:
                assert check_hypergroup(r.add, mode).to_json() == hypergroup_report_by_einsum(r.add, mode).to_json()


class TestHyperringChecks:
    def test_krasner_is_hyperfield(self):
        rep = check_hyperring(K)
        assert rep.ok
        assert rep.checks["hyperfield"].passed

    def test_signs_is_hyperfield(self):
        rep = check_hyperring(S)
        assert rep.ok
        assert rep.checks["hyperfield"].passed

    def test_broken_multiplication_fails(self):
        mul = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "0"}
        broken = HyperRingTable(K.add, mul, "0", "1")
        rep = check_hyperring(broken)
        assert not rep.ok
        assert not rep.checks["multiplicative_monoid"].passed

    def test_zero_equals_one_fails(self):
        t = HyperTable(["0"], {("0", "0"): ["0"]})
        r = HyperRingTable(t, {("0", "0"): "0"}, "0", "0")
        rep = check_hyperring(r)
        assert not rep.checks["zero_not_one"].passed


    def test_declared_zero_that_is_not_the_additive_identity(self):
        # K's tables with "1" declared zero (and one): the addition is a
        # canonical hypergroup, but its identity is "0"
        mul = {(a, b): K.mul_of(a, b) for a, b in product(K.carrier, repeat=2)}
        rep = check_hyperring(HyperRingTable(K.add, mul, "1", "1"))
        assert rep.to_json() == {
            "additive_canonical_hypergroup": {"pass": False, "witness": [["identity differs from declared zero"]]},
            "multiplicative_monoid": {"pass": True, "witness": []},
            "distributivity": {"pass": True, "witness": []},
            "zero_absorbs": {"pass": False, "witness": ["1"]},
            "zero_not_one": {"pass": False, "witness": ["1"]},
            "hyperfield": {"pass": False, "witness": [], "report_only": True},
        }


Z2_ADD, Z2_MUL = [[0, 1], [1, 0]], [[0, 0], [0, 1]]


class TestFiniteRingValidation:
    # hand-built two-element tables, each breaking one ring axiom
    @pytest.mark.parametrize(
        "add, mul, zero, one, message",
        [
            (Z2_ADD, [[0, 1], [0, 1]], 0, 1, "ring tables must be commutative"),
            ([[1, 0], [0, 0]], Z2_MUL, 0, 1, "addition is not associative"),  # NOR
            (Z2_ADD, [[1, 0], [0, 0]], 0, 1, "multiplication is not associative"),
            (Z2_ADD, Z2_MUL, 1, 1, "zero/one are not identities"),
            ([[0, 1], [1, 1]], Z2_MUL, 0, 1, "additive inverses missing"),  # OR: 1 has no negative
            (Z2_ADD, [[0, 1], [1, 1]], 0, 0, "distributivity fails"),  # OR over XOR
        ],
    )
    def test_each_error(self, add, mul, zero, one, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            hyperkernel.FiniteRing(["a", "b"], np.array(add), np.array(mul), zero, one)

    def test_z2_tables_pass(self):
        assert hyperkernel.FiniteRing(["0", "1"], np.array(Z2_ADD), np.array(Z2_MUL), 0, 1).units() == [1]


class TestQuotientHyperring:
    def test_f3_mod_units_is_krasner(self):
        ring = field_ring(3)
        q = quotient_hyperring(ring, ring.units())
        assert check_hyperring(q).ok
        assert hyperring_isomorphic_to_krasner(q)

    def test_f5_mod_units_is_krasner(self):
        ring = field_ring(5)
        q = quotient_hyperring(ring, ring.units())
        assert hyperring_isomorphic_to_krasner(q)

    def test_f7_mod_squares_frozen_table(self):
        # cosets {0}, G = {1,2,4}, N = 3G = {3,5,6}; representatives 0, 1, 3.
        # Hyperaddition computed by brute force over c = ax + by, x, y in G.
        ring = field_ring(7)
        q = quotient_hyperring(ring, [1, 2, 4])
        assert check_hyperring(q).ok
        assert check_hyperring(q).checks["hyperfield"].passed
        assert set(q.carrier) == {"0", "1", "3"}
        assert q.add.op("1", "1") == frozenset({"1", "3"})
        assert q.add.op("1", "3") == frozenset({"0", "1", "3"})
        assert q.add.op("3", "3") == frozenset({"1", "3"})
        assert q.add.op("0", "1") == frozenset({"1"})
        assert q.mul_of("3", "3") == "1"  # 3*3 = 9 = 2 in G
        # independent brute force over all coset representative sums
        g = [1, 2, 4]
        rep = {0: "0", **{ring.mult[1, x]: "1" for x in g}, **{int(ring.mult[3, x]): "3" for x in g}}
        for ra, rb in product([0, 1, 3], repeat=2):
            sums = {rep[int(ring.addt[ring.mult[ra, x], ring.mult[rb, y]])] for x in g for y in g}
            assert q.add.op(rep[ra], rep[rb]) == frozenset(sums)

    def test_f4_and_f8_tables(self):
        f4 = field_ring(4)
        assert f4.names == ("0", "1", "1t^1", "1+1t^1")
        assert f4.addt.tolist() == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        assert f4.mult.tolist() == [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
        f8 = field_ring(8)
        assert f8.names == ("0", "1", "1t^1", "1+1t^1", "1t^2", "1+1t^2", "1t^1+1t^2", "1+1t^1+1t^2")
        assert f8.addt.tolist() == [[i ^ j for j in range(8)] for i in range(8)]
        assert f8.mult.tolist() == [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 2, 3, 4, 5, 6, 7],
            [0, 2, 4, 6, 5, 7, 1, 3],
            [0, 3, 6, 5, 1, 2, 7, 4],
            [0, 4, 5, 1, 7, 3, 2, 6],
            [0, 5, 7, 2, 3, 6, 4, 1],
            [0, 6, 1, 7, 2, 4, 3, 5],
            [0, 7, 3, 4, 6, 1, 5, 2],
        ]

    def test_prime_power_split(self):
        for q in (0, 1, 12):
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                field_ring(q)
        for q in (2**5, 3**4):
            ring = field_ring(q)
            assert len(ring.names) == q
            assert len(ring.units()) == q - 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 83])
    def test_prime_field_is_integers_mod_p(self, p):
        # at q = p the power-basis tables are those of Z/p, names included
        ring, zmod = field_ring(p), zmod_ring(p)
        assert ring.names == zmod.names
        assert (ring.addt == zmod.addt).all() and (ring.mult == zmod.mult).all()
        assert (ring.zero, ring.one) == (zmod.zero, zmod.one)

    def test_krasner_recognition_matches_table_comparison(self):
        # hyperring_isomorphic_to_krasner (a strict hom onto K) against a
        # direct comparison of both tables under zero -> 0, other -> 1
        def by_tables(r):
            if len(r.carrier) != 2 or next(c for c in r.carrier if c != r.zero) != r.one:
                return False
            f = {r.zero: "0", r.one: "1"}
            return all(
                {f[c] for c in r.add.op(a, b)} == set(K.add.op(f[a], f[b])) and f[r.mul_of(a, b)] == K.mul_of(f[a], f[b])
                for a, b in product(r.carrier, repeat=2)
            )

        corpus = quotient_corpus()
        verdicts = [hyperring_isomorphic_to_krasner(r) for r in corpus]
        assert verdicts == [by_tables(r) for r in corpus]
        # K itself and F_q modulo its whole unit group for each q >= 3
        assert sum(verdicts) == 15 and verdicts[0] and not verdicts[1]

    def test_trivial_subgroup_reproduces_ring_addition(self):
        ring = field_ring(5)
        q = quotient_hyperring(ring, [ring.one])
        assert q.add.is_single_valued()
        assert check_hyperring(q).ok

    def test_non_subgroup_rejected(self):
        ring = field_ring(7)
        with pytest.raises(ValueError):
            quotient_hyperring(ring, [1, 2])  # not closed: 2*2=4 missing

    @pytest.mark.parametrize(
        "subgroup, message",
        [([], "subgroup elements must be units"), ([0, 1], "subgroup elements must be units"), ([6], "subgroup must contain 1")],
    )
    def test_input_errors(self, subgroup, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            quotient_hyperring(field_ring(7), subgroup)

    def test_non_cyclic_unit_group_rejected(self):
        # the units of Z/8 are {1, 3, 5, 7}, each of order at most 2
        with pytest.raises(ValueError, match="^unit group is not cyclic$"):
            cyclic_unit_subgroups(zmod_ring(8))

    def test_zmod_quotient_also_works(self):
        ring = zmod_ring(9)
        q = quotient_hyperring(ring, [1, 8])
        assert check_hyperring(q).ok

    @given(st.sampled_from([3, 4, 5, 7, 8, 9, 11, 13]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_every_quotient_passes_hyperring_laws(self, qsize, data):
        ring = field_ring(qsize)
        sub = data.draw(st.sampled_from(cyclic_unit_subgroups(ring)))
        quo = quotient_hyperring(ring, sub)
        assert check_hyperring(quo).ok
        # strong-mode pass implies marty-mode pass on every corpus table
        if check_hypergroup(quo.add, "strong").ok:
            assert check_hypergroup(quo.add, "marty").ok


class TestHyperringHom:
    def test_identity_on_krasner_is_strict(self):
        rep = check_hyperring_hom({"0": "0", "1": "1"}, K, K)
        assert rep.ok
        assert rep.checks["strict"].passed

    def test_sign_map_is_lax(self):
        f = {"-1": "1", "0": "0", "1": "1"}
        rep = check_hyperring_hom(f, S, K)
        assert rep.ok
        assert not rep.checks["strict"].passed  # 1+1={1} in S maps into {0,1} properly

    def test_collapsing_map_fails(self):
        f = {"0": "0", "1": "0"}
        rep = check_hyperring_hom(f, K, K)
        assert not rep.ok
        assert not rep.checks["one_preserved"].passed


    def test_map_that_breaks_the_product(self):
        # S -> K with -1 -> 0: (-1)(-1) = 1 goes to 1, but 0 * 0 = 0
        rep = check_hyperring_hom({"-1": "0", "0": "0", "1": "1"}, S, K)
        assert rep.checks["zero_preserved"].passed and rep.checks["one_preserved"].passed
        assert rep.checks["mul_monoid_hom"].witness == ("-1", "-1", "1", "0")
        assert rep.checks["hyperadd_hom"].witness == ("-1", "1", ["0", "1"], ["1"])
        assert not rep.ok

    def test_map_that_breaks_hyperaddition(self):
        # K -> S with 1 -> 1: 1 + 1 = {0, 1} in K, and {0, 1} is not in {1}
        rep = check_hyperring_hom({"0": "0", "1": "1"}, K, S)
        assert rep.checks["mul_monoid_hom"].passed
        assert rep.checks["hyperadd_hom"].witness == ("1", "1", ["0", "1"], ["1"])
        assert not rep.ok and not rep.checks["strict"].passed

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError, match="^map is not total: missing 1$"):
            check_hyperring_hom({"0": "0"}, K, K)


class TestSerialization:
    def test_hypertable_roundtrip(self):
        doc = K.add.to_json()
        again = HyperTable.from_json(doc)
        assert again.to_json() == doc

    def test_hyperring_roundtrip(self):
        doc = S.to_json()
        again = HyperRingTable.from_json(doc)
        assert again.to_json() == doc

    def test_json_shape(self):
        doc = K.to_json()
        assert doc["carrier"] == ["0", "1"]
        assert doc["op"]["1,1"] == ["0", "1"]
        assert doc["mul"]["1,1"] == "1"
        assert doc["zero"] == "0" and doc["one"] == "1"
        json.dumps(doc)  # serializable

    def test_hyperring_keys_parse_like_hypertable_keys(self):
        doc = S.to_json()
        assert HyperRingTable.from_json(doc).add.cube.tolist() == HyperTable.from_json(doc).cube.tolist()

    @pytest.mark.parametrize("table", [K.add, K], ids=["hypergroup", "hyperring"])
    def test_comma_in_carrier_label_rejected(self, table):
        doc = json.loads(json.dumps(table.to_json()).replace('"1"', '"a,b"'))
        with pytest.raises(ValueError, match="'a,b'"):
            (HyperRingTable if "mul" in doc else HyperTable).from_json(doc)
