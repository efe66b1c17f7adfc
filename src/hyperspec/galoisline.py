"""Closed points of the affine line and the torus over F_p, with the
spectrum hyperoperation computed two independent ways.

The Galois-orbit engine adds (or multiplies) roots in one field F_{p^N} that
holds them all and sorts the results into Galois orbits, one minimal
polynomial per orbit (algkernel.OrbitClassifier, the engine that also
serves the F_q-points of Hopf data). The definitional engine works with
the image s of the coproduct generator in the residue-field tensor
product: its minimal polynomial g_P generates the forced-zero ideal,
and f*g is every irreducible factor of g_P. It runs on stacks: the Krylov
sequences of s for every pair of one degree pair (deg f, deg g) are one
int64 array, each g_P is the first relation of its own sequence, and the
distinct g_P of one degree are factored as one stack by trial division
(gfarith.factor_stack). No factor has to be filtered
out by the forced-one (rank-one) rule: (pi)/(g_P) is a proper ideal of the
subalgebra F_p[s] of K_f ⊗ K_g, and a rank-one tensor u⊗v = (u⊗1)(1⊗v) is a
unit there, so no element of it has a rank-one image. Agreement of the two
engines on every pair is the checkable content of the orbit description of
these spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from math import lcm

import numpy as np

from .algkernel import OrbitClassifier, field_algebra, field_roots
from .gfarith import FpPoly, PrimeField, _first_monic_relation, factor_stack, irreducibles_up_to, minimal_polynomial
from .hyperkernel import _packed_members, spectrum_laws
from .linalg import npmod, require_int64_sum, two_sided

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
LAWS = (ADDITIVE, MULTIPLICATIVE)


@dataclass(frozen=True)
class LinePoint:
    """A closed point: a monic irreducible polynomial. The multiplicative law
    lives on F_p[T, 1/T], so (T) is excluded there."""

    law: str
    poly: FpPoly

    def __post_init__(self) -> None:
        if self.law not in LAWS:
            raise ValueError(f"unknown law {self.law!r}")
        if not self.poly.is_monic() or self.poly.degree < 1:
            raise ValueError("line points are monic irreducible polynomials")
        if self.law == MULTIPLICATIVE and self.poly.coeffs[0] == 0:
            raise ValueError("(T) is invertible on the torus and is not a point there")
        # points key the engines' caches: one key decides equality, and its
        # hash is kept because the caches hash points far more often than
        # points are made
        key = (self.law, self.poly.field.p, self.poly.coeffs)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinePoint) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def label(self) -> str:
        return f"({self.poly})"

    def sort_key(self) -> tuple:
        return (self.poly.degree, self.poly.coeffs)

    def __repr__(self) -> str:
        return f"LinePoint{self.label}"


MAX_LINE_POINTS = 500  # so at most 250,000 pairs per crosscheck


def _mobius(n: int) -> int:
    sign, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            sign = -sign
        q += 1
    return -sign if n > 1 else sign


def line_point_count(p: int, law: str, max_degree: int) -> int:
    """The number of points of degree <= max_degree, without listing them:
    by the necklace formula F_p has (1/d) * sum over e | d of mu(e) p^(d/e)
    monic irreducibles of degree d, and the torus leaves out (T). The count
    stops at the first degree that takes it past MAX_LINE_POINTS, so it is
    exact up to that bound and only known to exceed it beyond."""
    total = -1 if law == MULTIPLICATIVE else 0
    for d in range(1, max_degree + 1):
        total += sum(_mobius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        if total > MAX_LINE_POINTS:
            break
    return total


def require_line_size(p: int, law: str, max_degree: int) -> None:
    """Raise ValueError, before any point is enumerated, if the points of
    degree <= max_degree number more than MAX_LINE_POINTS, or if crosscheck's
    field F_{p^N}, N = lcm(1..max_degree), has N > 12: building that field
    takes find_irreducible(p, N), which does not finish at N = 60."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if line_point_count(p, law, max_degree) > MAX_LINE_POINTS:
        raise ValueError(
            f"the {law} line over F_{p} has more than {MAX_LINE_POINTS} points of degree <= {max_degree}"
            f" (over {MAX_LINE_POINTS ** 2:,} pairs); use a smaller p or max-degree"
        )
    n = lcm(*range(1, max_degree + 1))
    if n > 12:
        raise ValueError(
            f"degree <= {max_degree} needs the field F_{{{p}^{n}}}, N = lcm(1..{max_degree}) = {n} > 12;"
            " use max-degree 4 or less"
        )


def line_points(p: int, law: str, max_degree: int) -> list[LinePoint]:
    PrimeField(p).require_odd()
    pts = []
    for q in irreducibles_up_to(p, max_degree):
        if law == MULTIPLICATIVE and q.coeffs[0] == 0:
            continue
        pts.append(LinePoint(law, q))
    return pts


def line_identity(p: int, law: str) -> LinePoint:
    field = PrimeField(p)
    if law == ADDITIVE:
        return LinePoint(law, FpPoly.x(field))
    return LinePoint(law, FpPoly.make(field, (-1, 1)))


def line_antipode(pt: LinePoint) -> LinePoint:
    """Roots a -> -a (additive) or a -> 1/a (multiplicative), normalized monic."""
    field = pt.poly.field
    if pt.law == ADDITIVE:
        minus_t = FpPoly.make(field, (0, -1))
        return LinePoint(pt.law, pt.poly.compose(minus_t).monic())
    return LinePoint(pt.law, FpPoly.make(field, tuple(reversed(pt.poly.coeffs))).monic())


@lru_cache(maxsize=None)
def orbit_classifier(p: int, law: str, n: int) -> OrbitClassifier:
    """The Galois-orbit engine of a law on the line in F_{p^n}, one per
    (p, law, n): an input point carries a root from field_roots, a scan of
    its subfield, and a new orbit is named by the minimal polynomial of the
    value that meets it, so no member root is ever scanned."""
    field, _ = field_algebra(p, n)
    if law == ADDITIVE:
        combine = lambda a, bs: npmod(a + bs, p)
    else:
        combine = field.mul_by
    carry = lambda pt: field_roots(pt.poly, n)[0]
    return OrbitClassifier(p, n, combine, carry, lambda val: LinePoint(law, minimal_polynomial(val, field)))


def galois_hyperop(p: int, law: str, f: LinePoint, g: LinePoint) -> tuple[LinePoint, ...]:
    """Orbit-model hyperoperation in F_{p^m}, m = lcm(deg f, deg g), the
    least field that holds a root of each: the minimal polynomials of the
    sums (additive) or products (multiplicative) of their roots."""
    orbits = orbit_classifier(p, law, lcm(f.degree, g.degree))
    return tuple(orbits.points[k] for k in orbits.row(orbits.point_index(f), [orbits.point_index(g)])[0])


def _companion(poly: FpPoly) -> np.ndarray:
    """Multiplication by t on the power basis of F_p[T]/(poly), poly monic:
    ones below the diagonal, and last column -c_0, ..., -c_(d-1)."""
    c = np.eye(poly.degree, k=-1, dtype=np.int64)
    c[:, -1] = [-x % poly.field.p for x in poly.coeffs[:-1]]
    return c


def forced_zero_generators(p: int, law: str, fs: list[LinePoint], gs: list[LinePoint]) -> list[FpPoly]:
    """g_P of every pair (f, g) in fs x gs, row-major: the minimal polynomial
    of the coproduct-generator image s in K_f ⊗ K_g, s = t_f⊗1 + 1⊗t_g
    (additive) or t_f⊗t_g (multiplicative).

    An element of K_f ⊗ K_g is the deg f x deg g matrix V of its coordinates
    on the power bases, and with the companion matrices L_f, L_g of
    multiplication by t_f and t_g ([[a]] for T - a), multiplication by s is
    the Kronecker operator V -> L_f V + V L_g^T or V -> L_f V L_g^T
    (linalg.two_sided). The powers of s are the Krylov sequence of 1⊗1 =
    e_0⊗e_0 under it, and g_P is their first monic relation. The pairs of
    one degree pair (a, b) form one int64 stack of Krylov sequences, shape
    (pairs, ab + 1, ab), each step one broadcast product; each g_P is then
    read from its own sequence."""
    field = PrimeField(p).require_odd()
    out: dict[tuple[int, int], FpPoly] = {}
    for a, b in product(sorted({f.degree for f in fs}), sorted({g.degree for g in gs})):
        fi = [i for i, f in enumerate(fs) if f.degree == a]
        gj = [j for j, g in enumerate(gs) if g.degree == b]
        lf = np.array([_companion(fs[i].poly) for i in fi])[:, None]  # (F, 1, a, a)
        lg = np.array([_companion(gs[j].poly) for j in gj])[None]  # (1, G, b, b)
        v = np.zeros((len(fi), len(gj), a, b), dtype=np.int64)
        v[:, :, 0, 0] = 1
        powers = np.empty((len(fi), len(gj), a * b + 1, a * b), dtype=np.int64)
        powers[:, :, 0] = v.reshape(len(fi), len(gj), a * b)
        if law == ADDITIVE:
            require_int64_sum(a + b, 2, p, "Kronecker step")
        for k in range(1, a * b + 1):
            if law == ADDITIVE:
                v = npmod(lf @ v + v @ lg.swapaxes(-1, -2), p)
            else:
                v = two_sided(lf, v, lg, p)
            powers[:, :, k] = v.reshape(len(fi), len(gj), a * b)
        for ij, seq in zip(product(fi, gj), powers.reshape(-1, a * b + 1, a * b)):
            out[ij] = _first_monic_relation(seq, field)
    return [out[ij] for ij in product(range(len(fs)), range(len(gs)))]


def definitional_hyperops(p: int, law: str, fs: list[LinePoint], gs: list[LinePoint]) -> list[tuple[LinePoint, ...]]:
    """Membership-condition hyperoperation of every pair in fs x gs,
    row-major, computed in the residue tensor: the forced-zero ideal is
    generated by g_P (forced_zero_generators), and f*g is every irreducible
    factor of g_P (no element of (pi)/(g_P) has a rank-one image; see the
    module docstring). The distinct g_P of one degree are factored as one
    stack (gfarith.factor_stack). On the torus s = t_f⊗t_g is a unit, so T
    never divides g_P."""
    g_ps = forced_zero_generators(p, law, fs, gs)
    by_degree: dict[int, list[FpPoly]] = {}
    for q in dict.fromkeys(g_ps):
        by_degree.setdefault(q.degree, []).append(q)
    members = {}
    for _, polys in sorted(by_degree.items()):
        for q, fs_q in zip(polys, factor_stack(polys)):
            members[q] = tuple(sorted((LinePoint(law, pi) for pi, _mult in fs_q), key=LinePoint.sort_key))
    return [members[q] for q in g_ps]


def definitional_hyperop(p: int, law: str, f: LinePoint, g: LinePoint) -> tuple[LinePoint, ...]:
    """f*g by the definitional engine: the one-pair case of
    definitional_hyperops."""
    return definitional_hyperops(p, law, [f], [g])[0]


def _first_seen(ks: np.ndarray) -> np.ndarray:
    """The distinct entries of ks in order of first appearance."""
    _, first = np.unique(ks, return_index=True)
    return ks[np.sort(first)]


def _flat(rows: list[list[tuple[int, ...]]]) -> tuple[np.ndarray, np.ndarray]:
    """The members of a block of rows of sets, concatenated in row-major
    order, and the flat cell a * len(rows[0]) + b of each."""
    cells = list(chain.from_iterable(rows))
    ks = np.fromiter(chain.from_iterable(cells), dtype=np.int64)
    return ks, np.repeat(np.arange(len(cells)), list(map(len, cells)))


def _member_sets(
    orbits: OrbitClassifier, ids: list[int], table: list[list[tuple[int, ...]]]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The law engine's input for the pair table of the points ids: the
    packed sets of s*x and of x*s for the points x and the sources s, which
    are the points and the members of their pairs, set from the member
    indices, and the antipode position of each source. Positions are local:
    the points first, then the other sources, then whatever s*x and x*s
    add, each in order of first appearance, so the table is the first n
    rows of s*x and the first n columns of x*s: the engine is asked only
    for the pairs with a source outside the points, each once. The member
    lists are freed when this returns, before the law engine runs."""
    n = len(ids)
    sources = _first_seen(np.concatenate([ids, _flat(table)[0]])).tolist()
    left = _flat(table + [orbits.row(s, ids) for s in sources[n:]])  # s*x
    right = _flat([row + orbits.row(x, sources[n:]) for x, row in zip(ids, table)])  # x*s
    order = _first_seen(np.concatenate([sources, left[0], right[0]]))
    m = len(order)
    local = np.full(len(orbits.points), m, dtype=np.int64)
    local[order] = np.arange(m)
    # an antipode that holds no position goes to an extra all-false
    # position m, where reversibility fails
    anti = [m if (k := orbits.index.get(line_antipode(orbits.points[s]))) is None else int(local[k]) for s in sources]
    s_x = _packed_members(left[1], local[left[0]], (len(sources), n, m + 1))
    x_s = _packed_members(right[1], local[right[0]], (n, len(sources), m + 1))
    return s_x, x_s, anti


def crosscheck(p: int, law: str, max_degree: int) -> dict:
    """Run both engines on every pair of points of degree <= max_degree and
    check the hypergroup laws on the fragment; returns the report document
    that `hyperspec line` prints. The Galois engine runs in one field
    F_{p^N}, N = lcm(1, ..., max_degree): each member of f*g has degree
    dividing lcm(deg f, deg g), which divides N, so every root the checks
    need lies there and no associativity triple is skipped ("skipped" is
    always 0). The engine is asked for each ordered pair once, and the
    table of the points' pairs, which _member_sets reads and the report
    prints, is the one copy of their products. The laws are spectrum_laws
    on _member_sets. Raises ValueError on more than MAX_LINE_POINTS points."""
    require_line_size(p, law, max_degree)
    pts = line_points(p, law, max_degree)
    orbits = orbit_classifier(p, law, lcm(*range(1, max_degree + 1)))
    ids = [orbits.point_index(x) for x in pts]
    n = len(pts)

    table = [orbits.row(a, ids) for a in ids]
    s_x, x_s, anti = _member_sets(orbits, ids, table)
    laws = spectrum_laws(s_x, x_s, pts.index(line_identity(p, law)), anti)
    del s_x, x_s  # freed before the definitional engine runs
    bad = laws["associativity"]

    pairs = []
    degree_ok = True
    definitional = definitional_hyperops(p, law, pts, pts)
    for (i, f), (j, g) in product(enumerate(pts), repeat=2):
        gal, defn = tuple(orbits.points[k] for k in table[i][j]), definitional[i * n + j]
        degree_ok = degree_ok and not any(lcm(f.degree, g.degree) % q.degree for q in gal)
        pairs.append({
            "f": f.poly.to_list(),
            "g": g.poly.to_list(),
            "galois": [q.poly.to_list() for q in gal],
            "definitional": [q.poly.to_list() for q in defn],
            "agree": gal == defn,
        })

    verdicts = {
        "identity": laws["identity"] is None,
        "antipode_inverse": laws["inverse"] is None,
        "reversibility": laws["reversibility"] is None,
        "commutativity": laws["commutativity"] is None,
    }
    return {
        "p": p,
        "law": law,
        "max_degree": max_degree,
        "pairs": pairs,
        "laws": {
            **verdicts,
            "associativity": {
                "checked": n**3 if bad is None else (bad[0] * n + bad[1]) * n + bad[2] + 1,
                "skipped": 0,
                "pass": bad is None,
            },
        },
        "degree_bound": degree_ok,
        "agree": all(r["agree"] for r in pairs) and all(verdicts.values()) and bad is None and degree_ok,
    }
