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
from .linalg import einsum_mod, enumerate_vectors, npmod


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


def _members(cube: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The member sets of a hyperoperation in two forms: the bitset rows
    P = packbits(cube, axis=2), and M[a, b, r], the r-th member of a*b in
    index order, or n = cube.shape[2] past its last member, for r below the
    largest |a*b|."""
    n = cube.shape[2]
    counts = cube.sum(axis=2)
    m = int(counts.max())
    order = np.argsort(~cube, axis=2, kind="stable")[:, :, :m]
    return np.packbits(cube, axis=2), np.where(np.arange(m) < counts[:, :, None], order, n)


def _union_left(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Entry [a, b, c] is the OR of the packed rows rows[x, c] over the
    members x of a*b, one member slot of M per step. The index n past the
    last member reads an appended all-zero row. Every temporary holds n^3
    packed rows; none has n^4 entries."""
    padded = np.concatenate([rows, np.zeros_like(rows[:1])])
    out = padded[members[..., 0]]
    for r in range(1, members.shape[-1]):
        out |= padded[members[..., r]]
    return out


def _union_right(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Entry [a, b, c] is the OR of the packed rows rows[a, y] over the
    members y of b*c."""
    return _union_left(rows.swapaxes(0, 1), members).transpose(2, 0, 1, 3)


def _first_mismatch(left: np.ndarray, right: np.ndarray) -> tuple[int, int, int] | None:
    """The first (a, b, c) in index order at which two [a, b, c] arrays of
    packed member sets differ, or None when they are equal."""
    if np.array_equal(left, right):
        return None
    a, b, c = (int(v) for v in np.argwhere((left != right).any(axis=3))[0])
    return a, b, c


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
    n = t.size
    names = t.carrier

    packed, members = _members(cube)
    left, right = _union_left(packed, members), _union_right(packed, members)
    bad = _first_mismatch(left, right)
    if bad is None:
        rep.add("associativity", True)
    else:
        a, b, c = bad
        rep.add(
            "associativity",
            False,
            (
                names[a],
                names[b],
                names[c],
                sorted(names[i] for i in np.nonzero(np.unpackbits(left[a, b, c], count=n))[0]),
                sorted(names[i] for i in np.nonzero(np.unpackbits(right[a, b, c], count=n))[0]),
            ),
        )

    if mode == "marty":
        rows_ok = cube.any(axis=1).all()
        cols_ok = cube.any(axis=0).all()
        if rows_ok and cols_ok:
            rep.add("reproducibility", True)
        else:
            bad = np.argwhere(~cube.any(axis=1).all(axis=1))
            a = int(bad[0][0]) if bad.size else int(np.argwhere(~cube.any(axis=0).all(axis=1))[0][0])
            rep.add("reproducibility", False, (names[a],))
        return rep

    ids = _identities(cube)
    if len(ids) == 1:
        rep.add("identity_unique", True)
        e = ids[0]
    else:
        rep.add("identity_unique", False, (sorted(names[i] for i in ids),))
        e = None

    inv: dict[int, int] | None = None
    if e is None:
        rep.add("inverses_unique", False, ("no unique identity",))
    else:
        bad = None
        inv = {}
        for a in range(n):
            cands = np.nonzero(cube[a, :, e] & cube[:, a, e])[0]
            if cands.size != 1:
                bad = (names[a], sorted(names[int(i)] for i in cands))
                break
            inv[a] = int(cands[0])
        if bad is None:
            rep.add("inverses_unique", True)
        else:
            rep.add("inverses_unique", False, bad)
            inv = None

    if mode == "canonical":
        if (cube == cube.transpose(1, 0, 2)).all():
            rep.add("commutativity", True)
        else:
            a, b = (int(v) for v in np.argwhere((cube != cube.transpose(1, 0, 2)).any(axis=2))[0])
            rep.add("commutativity", False, (names[a], names[b]))
        if e is None or inv is None:
            rep.add("reversibility", False, ("needs identity and inverses",))
        else:
            triples = np.argwhere(cube)
            aa, bb, cc = triples[:, 0], triples[:, 1], triples[:, 2]
            inv_arr = np.array([inv[i] for i in range(n)])
            ok1 = cube[cc, inv_arr[aa], bb]
            ok2 = cube[cc, inv_arr[bb], aa]
            good = ok1 & ok2
            if good.all():
                rep.add("reversibility", True)
            else:
                k = int(np.nonzero(~good)[0][0])
                rep.add("reversibility", False, (names[int(aa[k])], names[int(bb[k])], names[int(cc[k])]))
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

    mu = r.mul
    comm = (mu == mu.T).all()
    assoc_cube_l = mu[mu, :]
    assoc_cube_r = mu[:, mu]
    assoc = (assoc_cube_l == assoc_cube_r).all()
    unital = (mu[one] == np.arange(n)).all() and (mu[:, one] == np.arange(n)).all()
    if comm and assoc and unital:
        rep.add("multiplicative_monoid", True)
    elif not comm:
        a, b = (int(v) for v in np.argwhere(mu != mu.T)[0])
        rep.add("multiplicative_monoid", False, ("commutativity", names[a], names[b]))
    elif not assoc:
        a, b, c = (int(v) for v in np.argwhere(assoc_cube_l != assoc_cube_r)[0])
        rep.add("multiplicative_monoid", False, ("associativity", names[a], names[b], names[c]))
    else:
        a = int(np.argwhere(mu[one] != np.arange(n))[0][0]) if (mu[one] != np.arange(n)).any() else int(
            np.argwhere(mu[:, one] != np.arange(n))[0][0]
        )
        rep.add("multiplicative_monoid", False, ("identity", names[a]))

    # a*(b+c) against a*b + a*c, then (a+b)*c against a*c + b*c: the sums
    # are unions of the one-hot packed rows of the products over members
    packed, members = _members(r.add.cube)
    products = np.packbits(np.eye(n, dtype=bool), axis=1)[mu]
    witness: tuple = ()
    bad = _first_mismatch(_union_right(products, members), packed[mu[:, :, None], mu[:, None, :]])
    if bad is not None:
        witness = (*(names[i] for i in bad), "left")
    else:
        bad = _first_mismatch(_union_left(products, members), packed[mu[:, None, :], mu[None, :, :]])
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

    if e == 1:
        r = zmod_ring(p)
        return FiniteRing([str(i) for i in range(p)], r.addt, r.mult, 0, 1)

    # elements are coordinate vectors on the power basis of F_p[T]/(modulus),
    # lowest coordinate fastest, so vector v has index v @ place
    elems = enumerate_vectors(p, e)
    place = p ** np.arange(e, dtype=np.int64)
    add = npmod(elems[:, None, :] + elems[None, :, :], p) @ place
    mul = einsum_mod("ai,bj,ijk->abk", elems, elems, power_basis_tensor(find_irreducible(p, e)), p=p) @ place
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
    other -> 1 (the only candidate map)."""
    if len(r.carrier) != 2:
        return False
    other = next(c for c in r.carrier if c != r.zero)
    if other != r.one:
        return False
    k = krasner_hyperfield()
    f = {r.zero: "0", r.one: "1"}
    for a, b in product(r.carrier, repeat=2):
        if {f[c] for c in r.add.op(a, b)} != set(k.add.op(f[a], f[b])):
            return False
        if f[r.mul_of(a, b)] != k.mul_of(f[a], f[b]):
            return False
    return True
