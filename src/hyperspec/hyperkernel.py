"""Finite hyperstructures as explicit tables.

A hyperoperation maps each ordered pair of carrier elements to a nonempty
subset of the carrier. Tables are immutable once built; every law checker
returns a LawReport with a concrete witness tuple for each failing axiom
instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from .gfarith import find_irreducible, power_basis_tensor, prime_power
from .linalg import enumerate_vectors, matmul, npmod


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: tuple = ()
    report_only: bool = False

    def to_json(self) -> dict:
        out: dict = {"pass": self.passed, "witness": list(self.witness)}
        if self.report_only:
            out["report_only"] = True
        return out


@dataclass
class LawReport:
    checks: dict[str, CheckResult] = field(default_factory=dict)

    def add(self, name: str, passed: bool, witness: tuple = (), report_only: bool = False) -> None:
        self.checks[name] = CheckResult(bool(passed), witness, report_only)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks.values() if not c.report_only)

    def failures(self) -> list[str]:
        return [k for k, c in self.checks.items() if not c.passed and not c.report_only]

    def to_json(self) -> dict:
        return {name: c.to_json() for name, c in self.checks.items()}


class HyperTable:
    """A finite hyperoperation: carrier labels plus a total map
    carrier x carrier -> nonempty subset, stored as a boolean cube."""

    def __init__(self, carrier: Iterable[str], op: Mapping[tuple[str, str], Iterable[str]]):
        self.carrier = tuple(str(c) for c in carrier)
        if not self.carrier:
            raise ValueError("carrier must not be empty")
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier labels must be distinct")
        n = len(self.carrier)
        self.index = {c: i for i, c in enumerate(self.carrier)}
        hits: list[int] = []  # flat indices (a * n + b) * n + x of the members x of a*b
        for ab, (a, b) in enumerate(product(self.carrier, repeat=2)):
            try:
                vals = op[(a, b)]
            except KeyError:
                raise ValueError(f"hyperoperation is not total: missing ({a},{b})")
            try:
                members = [ab * n + self.index[str(v)] for v in vals]
            except KeyError as exc:
                raise ValueError(f"value {exc.args[0]!r} of ({a},{b}) is not a carrier label") from None
            if not members:
                raise ValueError(f"empty value set at ({a},{b}): hyperoperations return nonempty subsets")
            hits += members
        cube = np.zeros(n**3, dtype=bool)
        cube[hits] = True
        self.cube = cube.reshape(n, n, n)
        self.cube.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.carrier)

    def op(self, a: str, b: str) -> frozenset[str]:
        row = self.cube[self.index[a], self.index[b]]
        return frozenset(self.carrier[i] for i in np.nonzero(row)[0])

    def is_single_valued(self) -> bool:
        return bool((self.cube.sum(axis=2) == 1).all())

    def to_json(self) -> dict:
        return {
            "carrier": list(self.carrier),
            "op": {
                f"{a},{b}": sorted(self.op(a, b), key=self.index.get)
                for a in self.carrier
                for b in self.carrier
            },
        }

    @staticmethod
    def from_json(doc: dict) -> "HyperTable":
        if not isinstance(doc, dict):
            raise ValueError(f"table JSON must be an object with 'carrier' and 'op' keys, got {type(doc).__name__}")
        carrier = _table_key(doc, "carrier")
        if not isinstance(carrier, list) or not carrier:
            raise ValueError(f"table 'carrier' must be a non-empty array of labels, got {type(carrier).__name__}")
        carrier = [str(c) for c in carrier]
        for c in carrier:
            if "," in c:
                raise ValueError(f"carrier label {c!r} contains ',', which separates the two labels of a table key")
        op = _pair_entries(doc, "op", carrier)
        for (a, b), vals in op.items():
            if not isinstance(vals, list):
                raise ValueError(f"table 'op' value at '{a},{b}' must be an array of labels, got {type(vals).__name__}")
        return HyperTable(carrier, op)


def _table_key(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"table JSON has no {name!r} key")
    return doc[name]


def _pair_entries(doc: dict, name: str, carrier: list[str]) -> dict[tuple[str, str], object]:
    """doc[name], an object keyed "a,b" by carrier labels a and b, keyed by
    the pairs (a, b). A key outside the carrier is an input error rather
    than an ignored entry; a missing key is left to the table's totality
    check."""
    entries = _table_key(doc, name)
    if not isinstance(entries, dict):
        raise ValueError(f"table {name!r} must be an object keyed 'a,b', got {type(entries).__name__}")
    pairs = {}
    for a in carrier:
        for b in carrier:
            key = f"{a},{b}"
            if key in entries:
                pairs[(a, b)] = entries[key]
    if len(pairs) != len(entries):
        known = {f"{a},{b}" for a, b in pairs}
        key = next(k for k in entries if k not in known)
        raise ValueError(f"table {name!r} key {key!r} is not a pair 'a,b' of carrier labels")
    return pairs


def extend_to_subsets(t: HyperTable, a_set: Iterable[str], b_set: Iterable[str]) -> frozenset[str]:
    """A*B = union of a*b over a in A, b in B."""
    a_set, b_set = list(a_set), list(b_set)
    if not a_set or not b_set:
        raise ValueError("subset extension requires nonempty subsets")
    ai = [t.index[a] for a in a_set]
    bi = [t.index[b] for b in b_set]
    mask = t.cube[np.ix_(ai, bi)].any(axis=(0, 1))
    return frozenset(t.carrier[i] for i in np.nonzero(mask)[0])


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """The first index of mask, in index order, at which it is true."""
    hits = np.argwhere(mask)
    return tuple(int(v) for v in hits[0]) if len(hits) else None


def _packed(cube: np.ndarray) -> np.ndarray:
    """P[w, a, b], word w of the bitset of a*b in a bool cube [a, b, x], in
    64-bit words, member x at bit x % 64 of word x // 64: a gather moves
    whole words, and a test of whole sets such as sides.any(axis=0) is an
    elementwise pass per word, not a reduction."""
    rows = np.packbits(cube, axis=2, bitorder="little")
    rows = np.pad(rows, ((0, 0), (0, 0), (0, -rows.shape[2] % 8)))
    return np.ascontiguousarray(np.moveaxis(rows.view("<u8"), 2, 0))


def _packed_members(cells: np.ndarray, xs: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """_packed of the bool cube of the given shape [a, b, x] whose true
    entries are the members xs[k] of the flat cells a * shape[1] + b =
    cells[k], set bit by bit, so that the cube itself is never formed."""
    rows, cols, width = shape
    sets = np.zeros((-(-width // 64), rows * cols), dtype="<u8")
    np.bitwise_or.at(sets, (xs >> 6, cells), np.uint64(1) << (xs & 63).astype(np.uint64))
    return sets.reshape(-1, rows, cols)


def _unpacked(sets: np.ndarray) -> np.ndarray:
    """The bool cube [a, b, x] of packed sets P[w, a, b], 64 positions x per
    word (more than the cube _packed was given, the extra ones false)."""
    words = np.ascontiguousarray(np.moveaxis(sets, 0, 2), dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=2, bitorder="little").view(bool)


def _members(cube: np.ndarray) -> np.ndarray:
    """M[a, b, r], the r-th member of a*b in a bool cube [a, b, x], in index
    order, or n = cube.shape[2] past its last member, for r below the
    largest |a*b| (at least one slot, so an all-empty cube has one). One
    np.nonzero lists the members cell by cell, each cell in index order, and
    the rank r of a member is its distance from its cell's first member, so
    no sort of the cube is formed."""
    a, b, x = np.nonzero(cube)
    cells = a * cube.shape[1] + b
    rank = np.arange(len(cells)) - np.searchsorted(cells, cells)
    members = np.full((cube.shape[0] * cube.shape[1], int(rank.max(initial=0)) + 1), cube.shape[2], dtype=np.int64)
    members[cells, rank] = x
    return members.reshape(*cube.shape[:2], -1)


def _union(sets: np.ndarray, members: np.ndarray, axis: int) -> np.ndarray:
    """The OR of packed sets over the members of a*b, one member slot of M
    per step, gathered along axis 1 or 2 of sets [w, ., .]: at axis 1, entry
    [w, a, b, c] is the OR of sets[w, x, c] over the members x of a*b; at
    axis 2, of sets[w, a, y] over the members y of b*c, laid out as at
    axis 1, so the two compare without a strided pass. The index n =
    sets.shape[axis] past the last member adds nothing: it reads the member
    in slot 0 again, and the entries of an empty a*b, whose slot 0 is n,
    are cleared at the end, so sets is never copied. Every temporary holds
    n^3 packed sets; none has n^4 entries."""
    n = sets.shape[axis]
    members = np.where(members < n, members, members[..., :1])
    out = sets.take(members[..., 0], axis=axis, mode="clip")
    for r in range(1, members.shape[-1]):
        out |= sets.take(members[..., r], axis=axis, mode="clip")
    out[(slice(None),) * axis + (members[..., 0] == n,)] = 0
    return out


# The law engine, for spectra (specops), the line (galoisline) and tables.
# Its input is two sides of packed sets (_packed): left [w, x, k] holds x*k
# for the first s positions x and the n points k, and right [w, f, y] holds
# f*y. The table is the first n rows of left, n <= s, with its members in
# the first s positions.

UNION_BLOCK_BYTES = 1 << 25  # packed member sets per side of one associativity block


def assoc_failures(left: np.ndarray, right: np.ndarray) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """(differ, disjoint): the first triple (f, g, k), in index order, at
    which (f*g)*k and f*(g*k) differ, and the first at which they are
    disjoint, or None. The sides are ORs of the packed sets left[x, k] over
    x in f*g and right[f, y] over y in g*k, formed in blocks of first
    points, UNION_BLOCK_BYTES per side, until both triples are found."""
    n, s = right.shape[1:]
    members = _members(_unpacked(left[:, :n])[:, :, :s])
    step = max(1, UNION_BLOCK_BYTES // (n * n * left.shape[0] * left.itemsize))
    differ = disjoint = None
    for lo in range(0, n, step):
        lhs = _union(left, members[lo : lo + step], 1)
        rhs = _union(right[:, lo : lo + step], members, 2)
        if differ is None and (bad := _first((lhs != rhs).any(axis=0))):
            differ = (lo + bad[0], *bad[1:])
        if disjoint is None and (bad := _first(~(lhs & rhs).any(axis=0))):
            disjoint = (lo + bad[0], *bad[1:])
        if differ and disjoint:
            break
    return differ, disjoint


def _first_irreversible(table: np.ndarray, anti: np.ndarray) -> tuple[int, ...] | None:
    """The first (f, g, x), x < s = len(anti), at which x in f*g and x~ in
    g~*f~ differ, compared one point f at a time, so that no n x n x s
    array is formed."""
    inv = anti[: len(table)]
    for f, row in enumerate(table[:, :, : len(anti)]):
        bad = _first(row != table[inv, inv[f]][:, anti])
        if bad is not None:
            return (f, *bad)
    return None


def spectrum_laws(left: np.ndarray, right: np.ndarray, e: int, anti) -> dict[str, tuple[int, ...] | None]:
    """The first failing index of each law, or None where it holds, for the
    identity point e and the antipodes anti[x] of the first s positions x
    (points to points): nonempty (f, g); identity e*f = f*e = {f} (f,);
    inverse, e in f*f~ and f~*f (f,); reversibility, x in f*g iff x~ in
    g~*f~ (f, g, x); commutativity (f, g); associativity and
    weak_associativity, (f*g)*k equal to f*(g*k) and meeting it (f, g, k).
    Reversibility reads x < s only: a later x is in no f*g, and were x~ in
    g~*f~, the check at (g~, f~, x~) would fail. Laws on whole sets read
    the packed table; the bool table is unpacked after the associativity
    blocks are done, so the two never coexist."""
    n, s = right.shape[1:]
    differ, disjoint = assoc_failures(left, right)
    sets = left[:, :n]
    table = _unpacked(sets)
    anti = np.asarray(anti, dtype=np.int64)[:s]
    inv, idx = anti[:n], np.arange(n)
    eye = np.eye(n, table.shape[2], dtype=bool)
    return {
        "nonempty": _first(~sets.any(axis=0)),
        "identity": _first(((table[e] != eye) | (table[:, e] != eye)).any(axis=1)),
        "inverse": _first(~(table[idx, inv, e] & table[inv, idx, e])),
        "reversibility": _first_irreversible(table, anti),
        "commutativity": _first((sets != sets.transpose(0, 2, 1)).any(axis=0)),
        "associativity": differ,
        "weak_associativity": disjoint,
    }


def _identities(cube: np.ndarray) -> list[int]:
    n = cube.shape[0]
    eye = np.eye(n, dtype=bool)
    out = []
    for e in range(n):
        if (cube[e] == eye).all() and (cube[:, e, :] == eye).all():
            out.append(e)
    return out


def check_hypergroup(t: HyperTable, mode: str = "strong") -> LawReport:
    """Check hypergroup axioms exhaustively.

    mode "strong": associativity, unique two-sided identity, unique inverses.
    mode "marty": associativity plus a*H = H*a = H.
    mode "canonical": strong plus commutativity and reversibility.
    """
    if mode not in ("strong", "marty", "canonical"):
        raise ValueError(f"unknown mode {mode!r}")
    rep = LawReport()
    cube = t.cube
    names = t.carrier

    sets = _packed(cube)
    bad = assoc_failures(sets, sets)[0]
    witness = ()
    if bad is not None:
        a, b, c = bad
        sides = cube[cube[a, b]][:, c].any(axis=0), cube[a][cube[b, c]].any(axis=0)
        witness = (names[a], names[b], names[c], *(sorted(names[i] for i in np.flatnonzero(x)) for x in sides))
    rep.add("associativity", bad is None, witness)

    if mode == "marty":
        bad = _first(~cube.any(axis=1).all(axis=1)) or _first(~cube.any(axis=0).all(axis=1))
        rep.add("reproducibility", bad is None, () if bad is None else (names[bad[0]],))
        return rep

    ids = _identities(cube)
    if len(ids) == 1:
        rep.add("identity_unique", True)
        e = ids[0]
    else:
        rep.add("identity_unique", False, (sorted(names[i] for i in ids),))
        e = None

    inv = None
    if e is None:
        rep.add("inverses_unique", False, ("no unique identity",))
    else:
        both = cube[:, :, e] & cube[:, :, e].T  # both[a, b]: e in a*b and in b*a
        bad = _first(both.sum(axis=1) != 1)
        inv = both.argmax(axis=1) if bad is None else None
        witness = () if bad is None else (names[bad[0]], sorted(names[i] for i in np.flatnonzero(both[bad[0]])))
        rep.add("inverses_unique", bad is None, witness)

    if mode == "canonical":
        bad = _first((cube != cube.transpose(1, 0, 2)).any(axis=2))
        rep.add("commutativity", bad is None, () if bad is None else (names[bad[0]], names[bad[1]]))
        if e is None or inv is None:
            rep.add("reversibility", False, ("needs identity and inverses",))
        else:
            back = cube[:, inv]  # back[c, a, b]: b in c*a~
            bad = _first(cube & ~(back.transpose(1, 2, 0) & back.transpose(2, 1, 0)))
            rep.add("reversibility", bad is None, () if bad is None else tuple(names[i] for i in bad))
    return rep


class HyperRingTable:
    """Hyperaddition table plus a single-valued commutative multiplication."""

    def __init__(
        self,
        add: HyperTable,
        mul: Mapping[tuple[str, str], str],
        zero: str,
        one: str,
    ):
        self.add = add
        self.carrier = add.carrier
        self.index = add.index
        n = add.size
        products: list[int] = []
        for a, b in product(self.carrier, repeat=2):
            try:
                v = str(mul[(a, b)])
            except KeyError:
                raise ValueError(f"multiplication is not total: missing ({a},{b})") from None
            if v not in self.index:
                raise ValueError(f"product {v!r} of ({a},{b}) is not a carrier label")
            products.append(self.index[v])
        self.mul = np.array(products, dtype=np.int64).reshape(n, n)
        self.mul.setflags(write=False)
        self.zero = str(zero)
        self.one = str(one)
        if self.zero not in self.index or self.one not in self.index:
            raise ValueError("zero/one must be carrier elements")

    def mul_of(self, a: str, b: str) -> str:
        return self.carrier[self.mul[self.index[a], self.index[b]]]

    def to_json(self) -> dict:
        doc = self.add.to_json()
        doc["mul"] = {f"{a},{b}": self.mul_of(a, b) for a in self.carrier for b in self.carrier}
        doc["zero"] = self.zero
        doc["one"] = self.one
        return doc

    @staticmethod
    def from_json(doc: dict) -> "HyperRingTable":
        add = HyperTable.from_json(doc)
        mul = _pair_entries(doc, "mul", list(add.carrier))
        return HyperRingTable(add, mul, _table_key(doc, "zero"), _table_key(doc, "one"))


def check_hyperring(r: HyperRingTable) -> LawReport:
    """Axioms: canonical hypergroup under +, commutative monoid under *,
    distributivity, zero absorbs, zero != one; plus a report-only hyperfield flag."""
    rep = LawReport()
    names = r.carrier
    n = len(names)
    zero, one = r.index[r.zero], r.index[r.one]

    addrep = check_hypergroup(r.add, "canonical")
    add_ok = addrep.ok
    ids = _identities(r.add.cube)
    if add_ok and ids != [zero]:
        add_ok = False
    rep.add(
        "additive_canonical_hypergroup",
        add_ok,
        () if add_ok else (addrep.failures() or ["identity differs from declared zero"],),
    )

    mu, ar = r.mul, np.arange(n)
    monoid = (
        ("commutativity", _first(mu != mu.T)),
        ("associativity", _first(mu[mu, :] != mu[:, mu])),
        ("identity", _first(mu[one] != ar) or _first(mu[:, one] != ar)),
    )
    law, bad = next(((law, bad) for law, bad in monoid if bad is not None), (None, None))
    rep.add("multiplicative_monoid", bad is None, () if bad is None else (law, *(names[i] for i in bad)))

    # a*(b+c) against a*b + a*c, then (a+b)*c against a*c + b*c: the sums
    # are unions of the one-hot packed sets of the products over members
    packed, members = _packed(r.add.cube), _members(r.add.cube)
    products = _packed(np.eye(n, dtype=bool)[mu])
    witness: tuple = ()
    bad = _first((_union(products, members, 2) != packed[:, mu[:, :, None], mu[:, None, :]]).any(axis=0))
    if bad is not None:
        witness = (*(names[i] for i in bad), "left")
    else:
        bad = _first((_union(products, members, 1) != packed[:, mu[:, None, :], mu[None, :, :]]).any(axis=0))
        if bad is not None:
            witness = (*(names[i] for i in bad), "right")
    rep.add("distributivity", bad is None, witness)

    absorb = (mu[zero] == zero).all() and (mu[:, zero] == zero).all()
    rep.add("zero_absorbs", bool(absorb), () if absorb else (r.zero,))
    rep.add("zero_not_one", zero != one, () if zero != one else (r.zero,))

    nz = [i for i in range(n) if i != zero]
    closed = all(mu[a, b] != zero for a in nz for b in nz)
    invertible = all(any(mu[a, b] == one for b in nz) for a in nz)
    rep.add("hyperfield", bool(closed and invertible and rep.checks["multiplicative_monoid"].passed), (), report_only=True)
    return rep


def check_hyperring_hom(
    f: Mapping[str, str], src: HyperRingTable, dst: HyperRingTable
) -> LawReport:
    """Hyperring homomorphism check: f(a+b) subset of f(a)+f(b), monoid map on
    multiplication, zero and one preserved. Adds a report-only "strict" entry
    recording whether the containment is an equality everywhere."""
    rep = LawReport()
    for a in src.carrier:
        if a not in f:
            raise ValueError(f"map is not total: missing {a}")
    rep.add("zero_preserved", f[src.zero] == dst.zero, (f[src.zero],))
    rep.add("one_preserved", f[src.one] == dst.one, (f[src.one],))

    mul_ok: tuple | None = None
    for a, b in product(src.carrier, repeat=2):
        if f[src.mul_of(a, b)] != dst.mul_of(f[a], f[b]):
            mul_ok = (a, b, f[src.mul_of(a, b)], dst.mul_of(f[a], f[b]))
            break
    rep.add("mul_monoid_hom", mul_ok is None, mul_ok or ())

    contain: tuple | None = None
    strict = True
    for a, b in product(src.carrier, repeat=2):
        image = frozenset(f[c] for c in src.add.op(a, b))
        target = dst.add.op(f[a], f[b])
        if not image <= target:
            contain = (a, b, sorted(image), sorted(target))
            break
        if image != target:
            strict = False
    rep.add("hyperadd_hom", contain is None, contain or ())
    rep.add("strict", contain is None and strict, (), report_only=True)
    return rep


# ---------------------------------------------------------------------------
# Table-based finite commutative rings (the raw material for quotient
# hyperrings). Char 2 fields are legitimate here: the standing hypothesis is
# |k| >= 3, about size, not characteristic.
# ---------------------------------------------------------------------------


class FiniteRing:
    def __init__(self, names: Iterable[str], add: np.ndarray, mul: np.ndarray, zero: int, one: int):
        self.names = tuple(names)
        self.addt = np.asarray(add, dtype=np.int64)
        self.mult = np.asarray(mul, dtype=np.int64)
        self.zero = zero
        self.one = one
        self._validate()

    @property
    def size(self) -> int:
        return len(self.names)

    def _validate(self) -> None:
        n = self.size
        ar = np.arange(n)
        a, m = self.addt, self.mult
        if not (a == a.T).all() or not (m == m.T).all():
            raise ValueError("ring tables must be commutative")
        if not (a[a, :] == a[:, a]).all():
            raise ValueError("addition is not associative")
        if not (m[m, :] == m[:, m]).all():
            raise ValueError("multiplication is not associative")
        if not (a[self.zero] == ar).all() or not (m[self.one] == ar).all():
            raise ValueError("zero/one are not identities")
        if not all((a[i] == self.zero).any() for i in range(n)):
            raise ValueError("additive inverses missing")
        lhs = m[ar[:, None, None], a[None, :, :]]
        rhs = a[m[:, :, None], m[:, None, :]]
        if not (lhs == rhs).all():
            raise ValueError("distributivity fails")

    def units(self) -> list[int]:
        return [i for i in range(self.size) if (self.mult[i] == self.one).any()]


def zmod_ring(n: int) -> FiniteRing:
    ar = np.arange(n)
    add = (ar[:, None] + ar[None, :]) % n
    mul = (ar[:, None] * ar[None, :]) % n
    return FiniteRing([str(i) for i in range(n)], add, mul, 0, 1)


def field_ring(q: int) -> FiniteRing:
    """The finite field F_q as explicit tables, q = p^e any prime power >= 2."""
    power = prime_power(q)
    if power is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = power

    # elements are coordinate vectors on the power basis of F_p[T]/(modulus),
    # lowest coordinate fastest, so vector v has index v @ place
    elems = enumerate_vectors(p, e)
    place = p ** np.arange(e, dtype=np.int64)
    add = npmod(elems[:, None, :] + elems[None, :, :], p) @ place
    # [a, j, k] = elems[a] e_j, then [a, b, k] = elems[a] elems[b], two products of inner length e
    left = matmul(elems, power_basis_tensor(find_irreducible(p, e)).reshape(e, e * e), p).reshape(-1, e, e)
    mul = matmul(elems, left, p) @ place
    names = ["+".join(f"{c}t^{k}" if k else f"{c}" for k, c in enumerate(el) if c) or "0" for el in elems.tolist()]
    return FiniteRing(names, add, mul, 0, 1)


def cyclic_unit_subgroups(ring: FiniteRing) -> list[list[int]]:
    """All subgroups of the unit group, assuming it is cyclic (true for fields):
    one per divisor of its order, smallest first. With pows the powers of a
    generator, the subgroup of order d is every (order/d)-th power."""
    units = ring.units()
    order = len(units)
    for u in units:
        pows = [ring.one]
        x = u
        while x != ring.one:
            pows.append(x)
            x = int(ring.mult[x, u])
        if len(pows) == order:
            break
    else:
        raise ValueError("unit group is not cyclic")
    return [sorted(pows[:: order // d]) for d in range(1, order + 1) if order % d == 0]


def quotient_hyperring(ring: FiniteRing, subgroup: Iterable[int]) -> HyperRingTable:
    """Cosets of a multiplicative unit subgroup, with aG * bG = abG and
    aG + bG = {cG : c = ax + by, x, y in G}."""
    g = sorted(set(int(x) for x in subgroup))
    units = set(ring.units())
    if not g or any(x not in units for x in g):
        raise ValueError("subgroup elements must be units")
    if ring.one not in g:
        raise ValueError("subgroup must contain 1")
    for x, y in product(g, repeat=2):
        if int(ring.mult[x, y]) not in g:
            raise ValueError("set is not closed under multiplication")

    n = ring.size
    rep = [-1] * n
    for a in range(n):
        if rep[a] != -1:
            continue
        orbit = sorted(int(ring.mult[a, x]) for x in g)
        for b in orbit:
            rep[b] = orbit[0]
    reps = sorted(set(rep))
    label = {r: ring.names[r] for r in reps}
    cos_index = {r: i for i, r in enumerate(reps)}

    addop: dict[tuple[str, str], set[str]] = {}
    mulop: dict[tuple[str, str], str] = {}
    for ra, rb in product(reps, repeat=2):
        mulop[(label[ra], label[rb])] = label[rep[int(ring.mult[ra, rb])]]
        sums = set()
        for x, y in product(g, repeat=2):
            c = int(ring.addt[ring.mult[ra, x], ring.mult[rb, y]])
            sums.add(label[rep[c]])
        addop[(label[ra], label[rb])] = sums

    add = HyperTable([label[r] for r in reps], addop)
    return HyperRingTable(add, mulop, label[rep[ring.zero]], label[rep[ring.one]])


def krasner_hyperfield() -> HyperRingTable:
    """K = {0,1}: 1+1 = {0,1}, usual multiplication."""
    add = HyperTable(
        ["0", "1"],
        {("0", "0"): ["0"], ("0", "1"): ["1"], ("1", "0"): ["1"], ("1", "1"): ["0", "1"]},
    )
    mul = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}
    return HyperRingTable(add, mul, "0", "1")


def sign_hyperfield() -> HyperRingTable:
    """S = {-1,0,1} with hyperaddition by the rule of signs."""
    c = ["-1", "0", "1"]
    add = {
        ("0", "0"): ["0"],
        ("0", "1"): ["1"],
        ("1", "0"): ["1"],
        ("0", "-1"): ["-1"],
        ("-1", "0"): ["-1"],
        ("1", "1"): ["1"],
        ("-1", "-1"): ["-1"],
        ("1", "-1"): ["-1", "0", "1"],
        ("-1", "1"): ["-1", "0", "1"],
    }
    mul = {
        ("0", "0"): "0",
        ("0", "1"): "0",
        ("1", "0"): "0",
        ("0", "-1"): "0",
        ("-1", "0"): "0",
        ("1", "1"): "1",
        ("-1", "-1"): "1",
        ("1", "-1"): "-1",
        ("-1", "1"): "-1",
    }
    return HyperRingTable(HyperTable(c, add), mul, "0", "1")


def hyperring_isomorphic_to_krasner(r: HyperRingTable) -> bool:
    """True iff r is the two-element Krasner hyperfield under zero -> 0,
    other -> 1 (the only candidate map): that map is a strict hyperring
    homomorphism onto K."""
    if len(r.carrier) != 2:
        return False
    other = next(c for c in r.carrier if c != r.zero)
    if other != r.one:
        return False
    rep = check_hyperring_hom({r.zero: "0", r.one: "1"}, r, krasner_hyperfield())
    return rep.ok and rep.checks["strict"].passed
