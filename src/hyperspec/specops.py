"""K-points of a finite-dimensional Hopf algebra and the coproduct-induced
hyperoperation on its spectrum, computed exactly.

The membership condition quantifies over all presentations of Delta(x); across
presentations the achievable K-value sets collapse to a rank trichotomy of the
image tensor t = (pi_f ⊗ pi_g)(Delta x):

    rank 0 -> the value is forced to 0,
    rank 1 -> forced to 1 (splitting a term u⊗v into halves needs 1/2, hence
              the standing restriction to odd p),
    rank >= 2 -> free in {0,1}.

So phi lies in f*g iff Ker(phi) contains the rank-0 locus and avoids the
rank-1 locus. The rank-0 locus is the ideal Ker Q_fg of the algebra map
Q_fg = (pi_f ⊗ pi_g)∘Delta, and the second condition follows from the
first: a rank-one tensor u⊗v = (u⊗1)(1⊗v) is a unit of K_f ⊗ K_g, hence a
unit of the subalgebra Q_fg(A), and if Ker(phi) contains Ker Q_fg then
Q_fg(Ker phi) is a proper ideal of Q_fg(A), which holds no unit. Hence
f*g = V(Ker Q_fg), the points whose kernel contains the forced-zero ideal.
presentation_oracle is the independent brute-force court of appeal for the
rank rule.

The idempotent lemma reads V(Ker Q_fg) off one vector per point. Split A
into local factors A_psi, whose units e_psi are the primitive idempotents;
e_phi is the one outside m_phi = Ker(phi). Then phi is in f*g iff
Q_fg(e_phi) != 0. Proof: Ker Q_fg = ⊕_psi e_psi·Ker Q_fg. If Q_fg(e_phi) = 0,
e_phi is in Ker Q_fg but not in m_phi. Otherwise e_phi·Ker Q_fg is a proper
ideal of the local ring A_phi, so it lies in m_phi·A_phi, and every A_psi
with psi != phi lies in m_phi; so Ker Q_fg ⊆ m_phi. As A/Ker Q_fg embeds in
the reduced ring K_f ⊗ K_g, Ker Q_fg = ∩_{phi in f*g} m_phi, which is prime
iff |f*g| = 1. For étale A, e_phi is the indicator of the Galois orbit phi:
the paper's orbit description read on idempotents.

The same split gives the points of any ideal I: V(I) = {phi : e_phi not in
I}. If e_phi is in I, I is not in m_phi. Otherwise e_phi·I is a proper
ideal of the local ring A_phi and every other A_psi lies in m_phi, so
I = ⊕_psi e_psi·I lies in m_phi. So the points of the kernel of an algebra
map T are the phi with T(e_phi) != 0, one for a map into a field: so are
the identity, antipode, descent and classical point maps read.

The oracle is exact integer arithmetic. Its reachability DP doubles the
number of terms, R_2a = R_a + R_a with class 2 (R_a[1] + R_a[1]) ∪ (A_a +
R_a[2]) for A_a the union of R_a's classes, then adds one term at a time.
A class sums at most two sumsets over (F_p)^(n^2), of at most p^(n^2) pairs
each, through a transform over a prime field F_q with q > 2 * p^(n^2), so a
state is reached iff its count is nonzero mod q. The zero tensor is a term,
so R_a ⊆ R_(a+1) ⊆ R_2a: the DP stops at the first step that changes nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .algkernel import (
    IdealSubspace,
    OrbitClassifier,
    PrimePoint,
    field_algebra,
    field_roots,
    maximal_spectrum,
)
from .gfarith import _first_monic_relation, is_prime, prime_power
from .hopfkernel import HopfData, hopf_quotient
from .hyperkernel import LawReport, _first, _packed, spectrum_laws
from .linalg import (
    enumerate_vectors,
    matmul,
    npmod,
    nullspace,
    require_int64_sum,
    rref,
    two_sided,
)

ORACLE_STATE_BOUND = 200_000


class ForcedValue(enum.Enum):
    ZERO = "zero"
    ONE = "one"
    FREE = "free"


@dataclass
class HyperopResult:
    """f*g with the forced-zero ideal Ker Q_fg, Q_fg = (pi_f ⊗ pi_g)∘Delta:
    the points whose kernel contains it, as no such kernel holds a
    forced-one element. By the idempotent lemma they are the phi with
    Q_fg(e_phi) != 0: if Q_fg(e_phi) = 0, e_phi lies in Ker Q_fg outside
    Ker(phi), and otherwise e_phi·Ker Q_fg is a proper ideal of the local
    factor at phi. So the ideal is the intersection of the members'
    kernels, prime iff there is one member. The JSON keeps an always-empty
    "rejections" list for format compatibility."""

    f: PrimePoint
    g: PrimePoint
    members: tuple[PrimePoint, ...]
    forced_zero: IdealSubspace

    def labels(self) -> list[str]:
        return [m.label for m in self.members]

    def to_json(self) -> dict:
        return {
            "f": self.f.label,
            "g": self.g.label,
            "result": self.labels(),
            "forced_zero_ideal": self.forced_zero.to_json(),
            "rejections": [],
        }


def kpoints(h: HopfData) -> list[PrimePoint]:
    """The K-valued points of the verified algebra: maximal_spectrum's list
    itself, computed once per algebra."""
    h.ensure_verified()
    return maximal_spectrum(h.algebra)


def point_by_label(h: HopfData, label: str) -> PrimePoint:
    want = label.strip()
    if not want.startswith("("):
        want = f"({want})"
    want = want.replace(" ", "")
    for kp in kpoints(h):
        if kp.label.replace(" ", "") == want:
            return kp
    raise ValueError(f"no spectrum point labelled {label!r}; have {[k.label for k in kpoints(h)]}")


def identity_point(h: HopfData) -> PrimePoint:
    """The point with kernel Ker(counit), the augmentation ideal: the one phi
    with counit(e_phi) != 0."""
    return kpoints(h)[_field_points(h, h.counit, [0])[0]]


def antipode_point(h: HopfData, f: PrimePoint) -> PrimePoint:
    """The point with kernel S(Ker f), read from antipode_permutation."""
    return kpoints(h)[antipode_permutation(h)[f.index]]


def antipode_permutation(h: HopfData) -> list[int]:
    """The index of each point's antipode point, an involution since S^2 =
    id: S(Ker f) = Ker(pi_f∘S), so with R the residue stack, one product
    R·S gives every point's map into its residue field."""
    if "antipode_perm" not in h._cache:
        stack, starts = _residue_stack(h)
        h._cache["antipode_perm"] = _field_points(h, matmul(stack, h.antipode, h.algebra.field.p), starts).tolist()
    return h._cache["antipode_perm"]


def _kernel_points(h: HopfData, maps: np.ndarray, starts) -> np.ndarray:
    """The points of the kernel of each algebra map T, read off the stacked
    primitive idempotents in one product: the phi with T(e_phi) != 0
    (module docstring). The maps are stacked along the first axis of maps
    ([row, ..., x]), map i from row starts[i] up to the next start; the
    result is the bool [map, ..., phi]."""
    idems = np.array([kp.idempotent for kp in kpoints(h)])
    hit = matmul(maps, idems.T, h.algebra.field.p) != 0
    return np.logical_or.reduceat(hit, starts, axis=0)


def _field_points(h: HopfData, maps: np.ndarray, starts) -> np.ndarray:
    """The point of each algebra map into a field, as _kernel_points stacks
    them: the index of the one point of its kernel, a maximal ideal.
    Raises RuntimeError unless every kernel has exactly one point."""
    hit = _kernel_points(h, maps, starts)
    counts = hit.sum(axis=1)
    if (counts != 1).any():
        i = int(np.flatnonzero(counts != 1)[0])
        raise RuntimeError(f"map {i} has {counts[i]} points in its kernel, not the one of a map into a field")
    return hit.argmax(axis=1)


def _pair_quotient_matrix(h: HopfData, f: PrimePoint, g: PrimePoint) -> np.ndarray:
    """Q_fg = (pi_f ⊗ pi_g) ∘ Delta as a (deg f * deg g) x dim matrix: block
    (f, g) of the pair maps, row a * deg g + b for residue rows a of f and
    b of g."""
    _, starts = _residue_stack(h)
    a, b = starts[f.index], starts[g.index]
    return _pair_maps(h)[a : a + f.degree, b : b + g.degree].reshape(-1, h.dim)


def _residue_stack(h: HopfData) -> tuple[np.ndarray, np.ndarray]:
    """Every point's residue map stacked as rows, in point order, and the
    index of each point's first row. Filling the cache checks the int64
    bound of the stack's products with vectors of the algebra (the pair
    maps and what reads them), whose inner length is its dimension."""
    if "residue_stack" not in h._cache:
        require_int64_sum(h.dim, 2, h.algebra.field.p, "residue maps times vectors of the algebra")
        pts = kpoints(h)
        stack = np.vstack([kp.resmap for kp in pts])
        starts = np.cumsum([0] + [kp.degree for kp in pts[:-1]])
        h._cache["residue_stack"] = (stack, starts)
    return h._cache["residue_stack"]


def _pair_maps(h: HopfData) -> np.ndarray:
    """Every pair map at once, as a read-only [a, b, x] array: with R the
    residue stack, entry [a, b, x] is that of R·Delta(e_x)·R^T (two_sided),
    so block (f, g), rows of f by rows of g, is Q_fg. Formed once per
    algebra; hyperop_cube and kernel containment read it."""
    if "pair_maps" not in h._cache:
        stack, _ = _residue_stack(h)
        n = h.dim
        maps = two_sided(stack, h.delta.T.reshape(n, n, n), stack, h.algebra.field.p)  # [x, a, b]
        maps = np.ascontiguousarray(maps.transpose(1, 2, 0))
        maps.setflags(write=False)
        h._cache["pair_maps"] = maps
    return h._cache["pair_maps"]


def forced_value(h: HopfData, f: PrimePoint, g: PrimePoint, x) -> ForcedValue:
    """Rank trichotomy of the image of Delta(x) in (A/Ker f) ⊗ (A/Ker g):
    its number of RREF pivots, read as 0, 1 or at least 2."""
    h.ensure_verified()
    p = h.algebra.field.p
    q = _pair_quotient_matrix(h, f, g)
    t = matmul(q, npmod(x, p), p).reshape(f.degree, g.degree)
    return (ForcedValue.ZERO, ForcedValue.ONE, ForcedValue.FREE)[min(len(rref(t, p)[1]), 2)]


def hyperop_cube(h: HopfData) -> np.ndarray:
    """The hyperoperation as one read-only boolean cube C[f, g, phi], true
    iff phi lies in f*g, that is iff Q_fg(e_phi) != 0 for the primitive
    idempotent e_phi (module docstring). Block (f, g) of the pair maps is
    Q_fg, so one product of them with the stacked idempotents fills the
    cube (_kernel_points). Every spectrum law reads it. It is not a
    HyperTable, which rejects the empty f*g that nonempty_check must be
    able to report."""
    if "cube" not in h._cache:
        _, starts = _residue_stack(h)
        cube = np.logical_or.reduceat(_kernel_points(h, _pair_maps(h), starts), starts, axis=1)
        cube.setflags(write=False)
        h._cache["cube"] = cube
    return h._cache["cube"]


def hyperop(h: HopfData, f: PrimePoint, g: PrimePoint) -> HyperopResult:
    """f*g, read from the cube, with its forced-zero ideal Ker Q_fg, the
    intersection of the members' kernels: the member's own ideal when there
    is one member, else the kernel of the members' stacked residue maps,
    computed once per member set."""
    row = hyperop_cube(h)[f.index, g.index]
    pts = kpoints(h)
    members = tuple(pts[i] for i in np.flatnonzero(row))
    if len(members) == 1:
        return HyperopResult(f, g, members, members[0].ideal)
    cache = h._cache.setdefault("forced_zero", {})
    key = row.tobytes()
    if key not in cache:
        stack, _ = _residue_stack(h)
        rows = np.repeat(row, [kp.degree for kp in pts])
        cache[key] = IdealSubspace(h.algebra, nullspace(stack[rows], h.algebra.field.p))
    return HyperopResult(f, g, members, cache[key])


def _laws(h: HopfData) -> dict[str, tuple[int, ...] | None]:
    """The first failing index of each spectrum law, decided from the cube
    by hyperkernel.spectrum_laws once per algebra."""
    if "laws" not in h._cache:
        sets = _packed(hyperop_cube(h))
        h._cache["laws"] = spectrum_laws(sets, sets, identity_point(h).index, antipode_permutation(h))
    return h._cache["laws"]


def _labels(pts: list[PrimePoint], mask: np.ndarray) -> list[str]:
    return [kp.label for kp, member in zip(pts, mask) if member]


def nonempty_check(h: HopfData) -> LawReport:
    """f*g is nonempty for every ordered pair of spectrum points."""
    rep = LawReport()
    pts = kpoints(h)
    bad = _laws(h)["nonempty"]
    rep.add("nonempty", bad is None, tuple(pts[i].label for i in bad) if bad else (f"{len(pts) ** 2} pairs",))
    return rep


def identity_law_check(h: HopfData) -> LawReport:
    """e*f = f*e = {f} as set equality, e the augmentation point."""
    rep = LawReport()
    pts = kpoints(h)
    cube = hyperop_cube(h)
    e = identity_point(h).index
    bad = _laws(h)["identity"]
    witness = ()
    if bad:
        f = bad[0]
        witness = (pts[f].label, _labels(pts, cube[e, f]), _labels(pts, cube[f, e]))
    rep.add("identity_law", bad is None, witness)
    return rep


def inverse_law_check(h: HopfData) -> LawReport:
    """e in (f * f~) ∩ (f~ * f) with f~ the antipode point."""
    rep = LawReport()
    pts = kpoints(h)
    perm = antipode_permutation(h)
    bad = _laws(h)["inverse"]
    rep.add("inverse_law", bad is None, (pts[bad[0]].label, pts[perm[bad[0]]].label) if bad else ())
    return rep


def reversibility_check(h: HopfData) -> LawReport:
    """phi in f*g iff phi~ in g~*f~, exhaustively over the spectrum cubed."""
    rep = LawReport()
    pts = kpoints(h)
    bad = _laws(h)["reversibility"]
    witness = tuple(pts[i].label for i in bad) if bad else (f"{len(pts) ** 3} membership pairs",)
    rep.add("reversibility", bad is None, witness)
    return rep


@dataclass
class WeakAssocResult:
    """(f*g)*k, f*(g*k) and their intersection. The triple map, the points
    killing its kernel and that kernel are computed on first access only;
    the points are read without the kernel."""

    h: HopfData = dc_field(repr=False, compare=False)
    f: PrimePoint
    g: PrimePoint
    k: PrimePoint
    left: tuple[PrimePoint, ...]  # (f*g)*k
    right: tuple[PrimePoint, ...]  # f*(g*k)
    intersection: tuple[PrimePoint, ...]

    @property
    def nonempty(self) -> bool:
        return bool(self.intersection)

    @cached_property
    def triple_map(self) -> np.ndarray:
        """(pi_f ⊗ pi_g ⊗ pi_k) ∘ (Delta⊗id) ∘ Delta, a (deg f * deg g * deg k)
        x dim matrix, as T = (Q_fg ⊗ pi_k) ∘ Delta (two_sided), row
        a * deg k + w for row a of Q_fg and row w of pi_k."""
        h, n, p = self.h, self.h.dim, self.h.algebra.field.p
        t = two_sided(_pair_quotient_matrix(h, self.f, self.g), h.delta.T.reshape(n, n, n), self.k.resmap, p)
        return t.transpose(1, 2, 0).reshape(-1, n)  # [x, a, w] -> [(a, w), x]

    @cached_property
    def triple_ideal_points(self) -> tuple[PrimePoint, ...]:
        """The points killing the triple forced-zero ideal Ker T, in point
        order: the phi with T(e_phi) != 0 (module docstring)."""
        hit = _kernel_points(self.h, self.triple_map, [0])[0]
        return tuple(kp for kp, out in zip(kpoints(self.h), hit) if out)

    @cached_property
    def triple_point_in_intersection(self) -> bool:
        inter = {kp.index for kp in self.intersection}
        return any(kp.index in inter for kp in self.triple_ideal_points)

    @cached_property
    def triple_ideal(self) -> IdealSubspace:
        """The triple forced-zero ideal Ker(triple_map)."""
        return IdealSubspace(self.h.algebra, nullspace(self.triple_map, self.h.algebra.field.p))


def weak_assoc_check(h: HopfData, f: PrimePoint, g: PrimePoint, k: PrimePoint) -> WeakAssocResult:
    """(f*g)*k and f*(g*k) by subset extension, read from the cube: the
    points of x*k over the members x of f*g, and of f*y over the members y
    of g*k. The triple forced-zero ideal and its points are read lazily
    from the result."""
    h.ensure_verified()
    pts = kpoints(h)
    cube = hyperop_cube(h)
    left = cube[cube[f.index, g.index]][:, k.index].any(axis=0)
    right = cube[f.index][cube[g.index, k.index]].any(axis=0)
    tup = lambda mask: tuple(kp for kp, member in zip(pts, mask) if member)
    return WeakAssocResult(h, f, g, k, tup(left), tup(right), tup(left & right))


def weak_assoc_all(h: HopfData) -> LawReport:
    """Weak associativity, (f*g)*k ∩ f*(g*k) nonempty for every triple, read
    from the law engine's first disjoint triple. The triple forced-zero
    ideal is not formed; weak_assoc_check gives it for one triple.
    fully_associative is report-only and covers the triples up to the first
    failure: no triple before it has sides that differ."""
    h.ensure_verified()
    rep = LawReport()
    pts = kpoints(h)
    laws = _laws(h)
    bad, differ = laws["weak_associativity"], laws["associativity"]
    witness = tuple(pts[i].label for i in bad) if bad else (f"{len(pts) ** 3} triples",)
    rep.add("weak_associativity", bad is None, witness)
    rep.add("fully_associative", differ is None or (bad is not None and differ >= bad), (), report_only=True)
    return rep


def descend_and_compare(h: HopfData, ideal: IdealSubspace) -> LawReport:
    """Descent along a Hopf-ideal quotient pi: A -> B = A/I: the tilde map
    Ker(psi) -> pi^(-1)(Ker psi) = Ker(pi_psi∘pi) embeds Spec B into the
    locus X_I of points killing I, the phi with pi(e_phi) != 0, and
    tilde(psi1 ⋆ psi2) = tilde(psi1) * tilde(psi2). Both are read off the
    idempotents of A (_kernel_points): X_I from pi, and tilde from R_B·pi
    for the residue stack R_B of B. Raises ValueError, from hopf_quotient,
    unless I is a Hopf ideal."""
    rep = LawReport()
    hq, pi = hopf_quotient(h, ideal)
    p = h.algebra.field.p
    pts, pts_b = kpoints(h), kpoints(hq)

    idx = np.flatnonzero(_kernel_points(h, pi, [0])[0])
    fixed_ids = frozenset(idx.tolist())
    cube = hyperop_cube(h)

    stack_b, starts_b = _residue_stack(hq)
    images = _field_points(h, matmul(stack_b, pi, p), starts_b).tolist()
    rep.add("tilde_injective", len(set(images)) == len(images), tuple(sorted(images)))
    rep.add("tilde_into_fixed_locus", set(images) <= fixed_ids, tuple(sorted(set(images) - fixed_ids)))
    rep.add("tilde_bijective_onto_fixed_locus", set(images) == fixed_ids, (len(images), len(fixed_ids)))

    bad = _first(np.delete(cube[np.ix_(idx, idx)], idx, axis=2).any(axis=2))
    rep.add("fixed_locus_closed", bad is None, (pts[idx[bad[0]]].label, pts[idx[bad[1]]].label) if bad else ())

    # lifted[f, g] is tilde(f ⋆ g) as a mask over the points of A
    lifted = hyperop_cube(hq) @ (np.array(images)[:, None] == np.arange(len(pts)))
    up = cube[np.ix_(images, images)]
    bad = _first((lifted != up).any(axis=2))
    witness = (f"{len(pts_b) ** 2} pairs",)
    if bad:
        f, g = bad
        witness = (pts_b[f].label, pts_b[g].label, *(np.flatnonzero(side[f, g]).tolist() for side in (lifted, up)))
    rep.add("descent_equality", bad is None, witness)
    return rep


# ---------------------------------------------------------------------------
# Classical comparison: F_q-rational points embed in the K-point hyperstructure
# ---------------------------------------------------------------------------


def _carried_hom(pt: PrimePoint, e: int) -> np.ndarray:
    """One hom A -> F_{p^e} with kernel pt's ideal I, as the (dim, e) array of
    basis images in field_algebra(p, e): pi in powers of pi(x), sent to the
    first root of its minimal polynomial, x = e_j for the first j free in I
    with pi(x) of degree d, its powers the Krylov rows of 1 under mul[j].
    One exists: pi = id there, so the pi(e_j) span K = A/I, which the proper
    subfields of F_{p^d} do not span (README). Frobenius gives the rest."""
    alg, d, p = pt.ideal.algebra, pt.degree, pt.ideal.algebra.field.p
    rows = (matmul(alg.krylov(alg.mul[j], alg.unit, d + 1), pt.resmap.T, p) for j in pt.ideal.projection()[1])
    found = next(((k, m) for k in rows if (m := _first_monic_relation(k, alg.field)).degree == d), None)
    if found is None:
        raise ValueError(f"the residue field has no element of full degree {d} to carry the hom")
    pows, poly = found
    coords = rref(np.hstack([pows[:d].T, pt.resmap]), p)[0][:, d:]  # residue(x) in powers of gen
    fq, _ = field_algebra(p, e)
    rho = field_roots(poly, e)[0]
    return matmul(coords.T, fq.powers(rho, fq.unit, d), p)


def _orbit_fill(h: HopfData, e: int) -> tuple[OrbitClassifier, np.ndarray, tuple[str, str] | None]:
    """The Galois-orbit engine of convolution in F_{p^e}, with one carried
    hom per point whose degree divides e, and the cube C[f, g, phi], phi in
    f*g = {[a⋆b] : a over f, b over g}, over those points, filled one first
    point at a time. Also the labels of the first pair with a convolution
    in no registered orbit, where the fill stops, or None."""
    n, p = h.dim, h.algebra.field.p
    fq, _ = field_algebra(p, e)
    d3 = h.delta.reshape(n, n, n).transpose(1, 2, 0)  # [s, x, r]

    def convolution(a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """a⋆b = Delta^T(a ⊗ b), (a⋆b)(x) = sum a(x_(1)) b(x_(2)), for each
        hom b of the stack bs: with D[s, x] = sum_r Delta[(r, s), x] a(e_r),
        (a⋆b)(e_x) = sum_s D[s, x] b(e_s), one product with D's
        multiplication matrices [s, x, j, k]."""
        mats = fq.mul_matrices(matmul(d3, a, p).reshape(n * n, e)).reshape(n, n, e, e)
        return matmul(bs.reshape(len(bs), n * e), mats.transpose(0, 2, 1, 3).reshape(n * e, n * e), p).reshape(bs.shape)

    orbits = OrbitClassifier(p, e, convolution, lambda pt: _carried_hom(pt, e))
    pts = kpoints(h)
    ks = [orbits.point_index(pt) for pt in pts if e % pt.degree == 0]
    cube = np.zeros((len(pts),) * 3, dtype=bool)
    for i in ks:
        f = orbits.points[i]
        for j, members in zip(ks, orbits.row(i, ks)):
            if members is None:
                return orbits, cube, (f.label, orbits.points[j].label)
            cube[f.index, orbits.points[j].index, [orbits.points[k].index for k in members]] = True
    return orbits, cube, None


def orbit_cube(h: HopfData, e: int) -> np.ndarray:
    """The paper's orbit description of the hyperoperation over F_{p^e}: the
    boolean cube C[f, g, phi], true iff phi is the kernel of a⋆b for homs
    a, b: A -> F_{p^e} with kernels f and g, empty at points whose degree
    does not divide e. At e the lcm of the residue degrees it equals
    hyperop_cube, which it shares no decision code with. Raises ValueError
    unless e >= 1, or if a convolution lies in no registered orbit."""
    if e < 1:
        raise ValueError(f"the orbit cube needs a field degree e >= 1, not {e}")
    h.ensure_verified()
    _, cube, escaped = _orbit_fill(h, e)
    if escaped:
        raise ValueError(f"a convolution over {escaped[0]} and {escaped[1]} is in no registered orbit")
    return cube


def classical_comparison(h: HopfData, q: int) -> LawReport:
    """i(f*g) in i(f) *_h i(g) for the kernel map i from F_q-points to
    spectrum points: orbit_cube(h, e), q = p^e, contained in hyperop_cube.
    Injectivity of i is a MUST only at q = p (for larger q distinct
    embeddings of a residue field share their kernel)."""
    if q < 3:
        raise ValueError("comparison needs |F_q| >= 3")
    h.ensure_verified()
    p = h.algebra.field.p
    power = prime_power(q)
    if power is None or power[0] != p:
        raise ValueError(f"{q} is not a power of the base characteristic {p}")
    rep = LawReport()
    orbits, cube, escaped = _orbit_fill(h, power[1])
    homs = sum(pt.degree for pt in orbits.points)
    rep.add("classical_point_count", True, (homs,), report_only=True)

    carried = np.vstack([conj[0].T for conj in orbits.conjugates])  # one hom per point, e rows each
    images = len(set(_field_points(h, carried, np.arange(0, len(carried), power[1])).tolist()))
    rep.add("injective", images == homs, (images, homs), report_only=(q != p))

    if escaped is None:
        triple = _first(cube & ~hyperop_cube(h))
        bad = None if triple is None else tuple(kpoints(h)[i].label for i in triple)
    else:
        bad = ("convolution escaped the point set", *escaped)
    rep.add("convolution_closed", escaped is None, () if escaped is None else (bad,))
    rep.add("containment", bad is None, bad or (f"{homs ** 2} pairs",))
    return rep


# ---------------------------------------------------------------------------
# Presentation oracle: brute-force ground truth for the rank rule
# ---------------------------------------------------------------------------


def _unreduced_axes(p: int, q: int) -> int:
    """The most transform axes that can run between two reductions mod q.
    One axis sums p products of a residue in [0, q) and an entry, so j axes
    applied to entries in [0, q) leave entries below p^j * (q-1)^(j+1),
    which must stay below 2^63."""
    j = 0
    while p ** (j + 1) * (q - 1) ** (j + 2) < 2**63:
        j += 1
    return j


def _transform_field(p: int, nstates: int) -> tuple[int, int]:
    """The field of the presentation DP's transform: the smallest prime
    q ≡ 1 (mod p) above 2 * nstates, and an element omega of order p in F_q.

    A transform pass sums p products of two residues mod q and a DP step
    sums two, so it raises unless p * (q - 1)^2 < 2^63, that is unless at
    least one axis fits between reductions (_unreduced_axes): no int64
    product or sum can then wrap."""
    q = 2 * nstates + 1 + (-2 * nstates) % p
    while not is_prime(q):
        q += p
    if _unreduced_axes(p, q) < 1:
        raise ValueError(f"transform field F_{q} for {nstates} states over F_{p} would overflow int64")
    omega = next(w for w in (pow(g, (q - 1) // p, q) for g in range(2, q)) if w != 1)
    return q, omega


def _group_transform(rows: np.ndarray, w: np.ndarray, q: int, k: int) -> np.ndarray:
    """The transform over the group (F_p)^k of each row, exactly in F_q, in k
    self-sorting (Stockham) passes: a pass applies the p-point transform w
    (entries in [0, q), w[0] = w[:, 0] = 1) to the leading digit of the state
    index, read as p contiguous slices, and writes it as the trailing digit,
    so after k passes the digits are back in order. Entries are reduced mod q
    only before a pass that could take them past 2^63 (_unreduced_axes), and
    once at the end. The entries of rows must lie in [0, q); rows is
    overwritten and may hold the result."""
    batch, p = rows.shape[0], w.shape[0]
    run = _unreduced_axes(p, q)
    spare = np.empty_like(rows)
    acc, tmp = np.empty((2, batch, rows.shape[1] // p), dtype=np.int64)

    def mod_q(x, free):  # x %= q as x - (x // q) * q, which numpy computes faster than np.remainder
        np.subtract(x, np.multiply(np.floor_divide(x, q, out=free), q, out=free), out=x)

    for axis in range(k):
        if axis and axis % run == 0:
            mod_q(rows, spare)
        src, dst = rows.reshape(batch, p, -1), spare.reshape(batch, -1, p)
        for d in range(p):
            np.copyto(acc, src[:, 0])
            for i in range(1, p):
                acc += src[:, i] if d == 0 else np.multiply(src[:, i], w[d, i], out=tmp)
            dst[:, :, d] = acc
        rows, spare = spare, rows
    mod_q(rows, spare)
    return rows


def _pair_presentation_reach(h: HopfData, f: PrimePoint, g: PrimePoint, r_max: int) -> np.ndarray:
    """For every tensor state s and count class c in {0, 1, 2+}: is there a
    presentation with at most r_max >= 1 terms summing to s, c of them
    surviving (f, g)? Cached per pair, as _presentation_reach ignores x.

    Swapping the tensor factors transposes the n x n digit array of a
    state, a linear automorphism of (F_p)^(n^2) that maps the T0 and T1 of
    (g, f) onto those of (f, g) and commutes with sumsets; so when (g, f)
    is cached, the table of (f, g) is that one with its states transposed,
    and no second DP runs."""
    key = (f.index, g.index, r_max)
    cache = h._cache.setdefault("presentation_reach", {})
    if key not in cache:
        p, n = h.algebra.field.p, h.algebra.dim
        swapped = cache.get((g.index, f.index, r_max))
        if swapped is not None:
            # axis i*n + j of the (p,)*(n^2) view holds digit (n-1-i)*n + (n-1-j),
            # so transposing the axes as an n x n array transposes the digits
            axes = np.arange(n * n).reshape(n, n).T.reshape(-1)
            cache[key] = swapped.reshape((p,) * (n * n) + (3,)).transpose(*axes, n * n).reshape(-1, 3)
        else:
            elems = enumerate_vectors(p, n)
            terms = np.einsum("ai,bj->abij", elems, elems).reshape(-1, n * n) % p @ (p ** np.arange(n * n, dtype=np.int64))
            surviving = np.outer(f.k_value(elems), g.k_value(elems)).reshape(-1)
            cache[key] = _presentation_reach(p, n * n, terms[~surviving], terms[surviving], r_max).T
    return cache[key]


def _presentation_reach(p: int, k: int, t0: np.ndarray, t1: np.ndarray, r_max: int) -> np.ndarray:
    """R_(r_max)[c, s]: is the state s of (F_p)^k a sum of at most r_max >= 1
    terms, c in {0, 1, 2+} of them from T1 (state indices t1) and the rest
    from T0 (t0, which must hold the zero tensor)?

    R_1 holds T0 in class 0 and T1 in class 1. The DP doubles, R_2a = R_a +
    R_a, while 2a <= r_max: class 0 is R_a[0] + R_a[0], class 1 is R_a[0] +
    R_a[1], and class 2 is (R_a[1] + R_a[1]) ∪ (A_a + R_a[2]) with A_a the
    union of R_a's classes; then one-term steps R_a + T run up to r_max. A
    sumset goes through an exact transform over F_q, q > 2 * p^k
    (_transform_field): a clamped boolean convolution counts at most p^k
    pairs per state and a class sums at most two, so a state is reached iff
    its count is nonzero mod q (the inverse's factor p^-k is a unit, left
    out). As 0 is in T0, R_a ⊆ R_(a+1) ⊆ R_2a: once a step changes nothing,
    no later step does, and the DP stops there."""
    q, omega = _transform_field(p, p**k)
    w_fwd = np.array([[pow(omega, i * j, q) for j in range(p)] for i in range(p)], dtype=np.int64)
    w_inv = np.array([[pow(omega, -i * j, q) for j in range(p)] for i in range(p)], dtype=np.int64)

    def forward(sets):
        return _group_transform(sets.astype(np.int64), w_fwd, q, k)

    def inverse(counts):
        np.remainder(counts, q, out=counts)
        return _group_transform(counts, w_inv, q, k) != 0

    def doubled(r):  # R + R, from the transforms of R's classes and of their union
        return np.stack([r[0] * r[0], r[0] * r[1], r[1] * r[1] + r[3] * r[2]])

    def extended(r):  # R + T, from the transforms of R's classes
        return np.stack([r[0] * t[0], r[1] * t[0] + r[0] * t[1], r[2] * t[2] + r[1] * t[1]])

    reached = np.zeros((3, p**k), dtype=bool)
    reached[0, t0] = True
    reached[1, t1] = True
    t = forward(np.vstack([reached[:2], reached.any(axis=0)]))  # T0, T1, T0 ∪ T1
    size = 1
    while size < r_max:  # a step's transforms are temporaries, freed once spent
        if 2 * size > r_max:
            step, size = inverse(extended(forward(reached))), size + 1
        elif size == 1:  # R_1's transforms are t, and its class 2 is empty
            step, size = inverse(doubled((t[0], t[1], 0, t[2]))), 2
        else:
            step, size = inverse(doubled(forward(np.vstack([reached, reached.any(axis=0)])))), 2 * size
        if np.array_equal(step, reached):
            break
        reached = step
    return reached


def presentation_oracle(h: HopfData, f: PrimePoint, g: PrimePoint, x, r_max: int) -> frozenset[int]:
    """Intersection over all presentations (up to r_max terms) of the K-value
    set of Delta(x); presentations are enumerated exactly by reachability over
    (partial tensor sum, nonzero-term count capped at 2).

    Raises if no presentation with at most r_max terms exists, and raises if
    the result disagrees with forced_value; the oracle is the ground truth.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    h.ensure_verified()
    alg = h.algebra
    p = alg.field.p
    n = alg.dim
    if p ** (n * n) > ORACLE_STATE_BOUND:
        raise ValueError(f"presentation oracle needs p^(dim^2) <= {ORACLE_STATE_BOUND}, not {p}^{n * n} = {p ** (n * n)}")
    weights = p ** np.arange(n * n, dtype=np.int64)
    target_idx = int(matmul(h.delta, npmod(x, p), p) @ weights)
    ever = _pair_presentation_reach(h, f, g, r_max)
    achieved = {c for c in range(3) if ever[target_idx, c]}
    if not achieved:
        raise ValueError(
            f"r_max={r_max} is too small to present the coproduct image (tensor needs more terms)"
        )
    sets = {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({0, 1})}
    out = frozenset({0, 1})
    for c in achieved:
        out = out & sets[c]
    fv_rule = forced_value(h, f, g, x)
    expected = {ForcedValue.ZERO: frozenset({0}), ForcedValue.ONE: frozenset({1}), ForcedValue.FREE: frozenset({0, 1})}[fv_rule]
    if out != expected:
        raise RuntimeError(
            f"presentation oracle {set(out)} disagrees with the rank rule {fv_rule}: rank rule unsound here"
        )
    return out
