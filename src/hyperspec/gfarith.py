"""Exact arithmetic over F_p (p any prime) and polynomials over it; F_{p^k}
enters as the modulus find_irreducible(p, k) and its power-basis tensor.

Univariate polynomials are coefficient tuples, lowest degree first, always
normalized (no trailing zeros); the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Iterator

import numpy as np

from .linalg import npmod, rref


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e, p prime and e >= 1, or None when q is no prime
    power. The least divisor d > 1 of q is prime, and the only candidate."""
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


@dataclass(frozen=True)
class PrimeField:
    """The scalar field F_p for any prime p. Characteristic 2 is accepted
    here and by the table layer (field_ring builds F_4 and F_8), but the
    spectrum hyperoperation needs p odd: its forced-value analysis splits a
    rank-one term into halves. Hopf data and the line engines therefore
    call require_odd.

    The numpy kernels multiply two reduced entries in int64, so p must have
    (p-1)^2 < 2^63. That bound is checked first: it also keeps the trial
    division of is_prime below about 55,000 divisors."""

    p: int

    def __post_init__(self) -> None:
        if self.p > 1 and (self.p - 1) ** 2 >= 2**63:
            raise ValueError(f"p = {self.p} is too large: int64 arithmetic needs (p-1)^2 < 2^63")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def require_odd(self) -> "PrimeField":
        """This field, or ValueError in characteristic 2."""
        if self.p == 2:
            raise ValueError("p must be an odd prime, got 2")
        return self

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(a, self.p - 2, self.p)


def _normalize(coeffs, p: int) -> tuple[int, ...]:
    c = [int(x) % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class FpPoly:
    """Univariate polynomial over F_p, coefficients lowest degree first."""

    field: PrimeField
    coeffs: tuple[int, ...]

    @staticmethod
    def make(field: PrimeField, coeffs) -> "FpPoly":
        return FpPoly(field, _normalize(coeffs, field.p))

    @staticmethod
    def zero(field: PrimeField) -> "FpPoly":
        return FpPoly(field, ())

    @staticmethod
    def one(field: PrimeField) -> "FpPoly":
        return FpPoly(field, (1,))

    @staticmethod
    def x(field: PrimeField) -> "FpPoly":
        return FpPoly(field, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "FpPoly") -> "FpPoly":
        p = self.field.p
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return FpPoly.make(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + (-other)

    def __neg__(self) -> "FpPoly":
        return FpPoly.make(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        if self.is_zero() or other.is_zero():
            return FpPoly.zero(self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % p
        return FpPoly.make(self.field, out)

    def scale(self, c: int) -> "FpPoly":
        return FpPoly.make(self.field, [c * a for a in self.coeffs])

    def divmod(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        d = other.degree
        inv_lead = self.field.inv(other.coeffs[-1])
        quo = [0] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] * inv_lead % p
            quo[k] = f
            for i, b in enumerate(other.coeffs):
                rem[k + i] = (rem[k + i] - f * b) % p
        return FpPoly.make(self.field, quo), FpPoly.make(self.field, rem)

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return self.divmod(other)[0]

    def monic(self) -> "FpPoly":
        """Canonical representative of the associate class."""
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "FpPoly") -> "FpPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, e: int, modulus: "FpPoly") -> "FpPoly":
        result = FpPoly.one(self.field)
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def eval(self, a: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % p
        return acc

    def compose(self, other: "FpPoly") -> "FpPoly":
        acc = FpPoly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * other + FpPoly.make(self.field, (c,))
        return acc

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        p = self.field.p
        if self.is_zero():
            return "0"
        if self.degree == 1 and self.coeffs[1] == 1:
            root = (-self.coeffs[0]) % p
            return "T" if root == 0 else f"T-{root}"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "T" if k == 1 else f"T^{k}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms)


def parse_poly(text: str, field: PrimeField) -> FpPoly:
    """Parse strings like "T^2+1", "T-1", "(T^3+T)", "2T+1"."""
    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValueError("empty polynomial string")
    s = s.replace("-", "+-")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        if "T" in term:
            head, _, tail = term.partition("T")
            c = int(head) if head else 1
            k = int(tail[1:]) if tail.startswith("^") else (1 if not tail else None)
            if k is None:
                raise ValueError(f"cannot parse term in {text!r}")
        else:
            c = int(term)
            k = 0
        coeffs[k] = coeffs.get(k, 0) + sign * c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c % field.p
    return FpPoly.make(field, out)


def monic_polys(field: PrimeField, degree: int) -> Iterator[FpPoly]:
    """All monic polynomials of the exact degree, in lexicographic order."""
    for lower in product(range(field.p), repeat=degree):
        yield FpPoly(field, tuple(lower) + (1,))


# (row, candidate) pairs per block of the stacked trial division. The
# division holds one block of at most this many pairs at a time, never the
# whole table of p^d candidates against every row, so neither a large p^d
# nor a tall stack can fill memory.
TRIAL_DIVISION_ROWS = 1 << 12


def _monic_lower(idx: np.ndarray, p: int, d: int) -> np.ndarray:
    """Lower coefficients (c_0, ..., c_{d-1}) of the monic polynomials of
    degree d at positions idx of monic_polys order: position i has the
    base-p digits of i, c_0 the most significant."""
    return idx[:, None] // p ** np.arange(d - 1, -1, -1, dtype=np.int64) % p


def _divide(rows: np.ndarray, lower: np.ndarray, p: int) -> np.ndarray:
    """Long division of coefficient rows (..., w), zero above each row's
    degree, by the monic polynomials of degree d with lower coefficients
    lower (..., d), the two broadcast against each other. Returns (..., w):
    the remainder in [..., :d] and the quotient in [..., d:]. Step k cancels
    the degree-k term and leaves it in place as quotient coefficient k - d."""
    d, w = lower.shape[-1], rows.shape[-1]
    out = np.array(np.broadcast_to(rows, np.broadcast_shapes(rows.shape[:-1], lower.shape[:-1]) + (w,)))
    for k in range(w - 1, d - 1, -1):
        out[..., k - d : k] = (out[..., k - d : k] - out[..., k : k + 1] * lower) % p
    return out


def _first_divisors(rows: np.ndarray, d: int, p: int) -> np.ndarray:
    """For each coefficient row (zero above its degree), the position in
    monic_polys order of its first monic divisor of degree d, or -1. The
    rows still without a divisor are divided by one block of candidates at
    a time, in blocks of at most TRIAL_DIVISION_ROWS (row, candidate)
    pairs. Every intermediate is below (p-1)^2 + p and every candidate
    position below p^d; both bounds are checked against int64."""
    if (p - 1) ** 2 + p >= 2**63 or p**d >= 2**63:
        raise ValueError(f"trial division by degree-{d} polynomials over F_{p} overflows int64")
    first = np.full(len(rows), -1, dtype=np.int64)
    width = min(p**d, TRIAL_DIVISION_ROWS)
    for start in range(0, p**d, width):
        todo = np.flatnonzero(first < 0)
        if not todo.size:
            break
        lower = _monic_lower(np.arange(start, min(start + width, p**d), dtype=np.int64), p, d)
        step = max(1, TRIAL_DIVISION_ROWS // len(lower))
        for i in range(0, todo.size, step):
            idx = todo[i : i + step]
            hit = ~_divide(rows[idx, None, :], lower, p)[..., :d].any(axis=2)
            has = hit.any(axis=1)
            first[idx[has]] = start + hit[has].argmax(axis=1)
    return first


def factor_stack(polys: list[FpPoly]) -> list[list[tuple[FpPoly, int]]]:
    """Factor each polynomial into monic irreducibles by trial division, all
    of them as one stack of monic coefficient rows.

    For d = 1, 2, ...: a row of degree < 2d is its own last factor; every
    other row looks for its first monic degree-d divisor in monic_polys
    order (_first_divisors), the rows with one divide it out as a stack,
    as often as it divides, and look again at d, and the rest go on to
    d + 1. Each result is a list of (factor, multiplicity) pairs sorted by
    (degree, coefficients); the product of the factors times the leading
    coefficient equals the polynomial."""
    if any(q.is_zero() for q in polys):
        raise ValueError("cannot factor zero")
    if not polys:
        return []
    field = polys[0].field
    p = field.p
    monic = [q.monic() for q in polys]
    deg = np.array([q.degree for q in monic], dtype=np.int64)
    rem = np.zeros((len(monic), int(deg.max()) + 1), dtype=np.int64)
    for r, q in enumerate(monic):
        rem[r, : q.degree + 1] = q.coeffs
    out: list[list[tuple[FpPoly, int]]] = [[] for _ in monic]
    pending = np.arange(len(monic))
    d = 1
    while pending.size:
        search = pending
        while search.size:
            last = deg[search] < 2 * d
            for r in search[last].tolist():
                if deg[r] >= 1:
                    out[r].append((FpPoly(field, tuple(rem[r, : deg[r] + 1].tolist())), 1))
            search = search[~last]
            pos = _first_divisors(rem[search, : deg[search].max(initial=0) + 1], d, p)
            search = search[pos >= 0]
            lower = _monic_lower(pos[pos >= 0], p, d)
            # each row divides by its divisor, then again while the remainder is 0
            mult = np.zeros(len(search), dtype=np.int64)
            todo = np.arange(len(search))
            div = _divide(rem[search, : deg[search].max(initial=0) + 1], lower, p)
            while todo.size:
                rows = search[todo]
                rem[rows] = 0
                rem[rows, : div.shape[1] - d] = div[:, d:]
                deg[rows] -= d
                mult[todo] += 1
                div = _divide(rem[rows, : deg[rows].max() + 1], lower[todo], p)
                again = ~div[:, :d].any(axis=1)
                todo, div = todo[again], div[again]
            for r, c, m in zip(search.tolist(), lower.tolist(), mult.tolist()):
                out[r].append((FpPoly(field, (*c, 1)), m))
        pending = pending[deg[pending] >= 2 * d]
        d += 1
    return [sorted(fs, key=lambda fm: (fm[0].degree, fm[0].coeffs)) for fs in out]


def is_irreducible(poly: FpPoly) -> bool:
    """Whether trial division (factor_stack) finds poly to be one factor."""
    if poly.is_zero() or poly.degree < 1:
        raise ValueError("irreducibility is only defined for nonconstant polynomials")
    return factor_stack([poly])[0] == [(poly.monic(), 1)]


def factor(poly: FpPoly) -> list[tuple[FpPoly, int]]:
    """Factor into monic irreducibles by exhaustive trial division: the
    one-polynomial case of factor_stack."""
    return factor_stack([poly])[0]


@lru_cache(maxsize=None)
def irreducibles_up_to(p: int, max_degree: int) -> tuple[FpPoly, ...]:
    """The monic irreducibles of degree <= max_degree in (degree,
    monic_polys) order, one factor_stack per degree."""
    field = PrimeField(p)
    out = []
    for d in range(1, max_degree + 1):
        cands = list(monic_polys(field, d))
        out.extend(q for q, fs in zip(cands, factor_stack(cands)) if fs == [(q, 1)])
    return tuple(out)


@lru_cache(maxsize=None)
def find_irreducible(p: int, degree: int) -> FpPoly:
    """Deterministic modulus for F_{p^degree}: first monic irreducible in lex
    order. About one monic polynomial in `degree` is irreducible, so the
    candidates are factored `degree` at a time. In degree >= 2 every candidate
    with constant term 0 is a multiple of T, so the scan starts at constant
    term 1; the constant term is the slowest coordinate of the order, so no
    earlier candidate is skipped."""
    field = PrimeField(p)
    for start in range(0 if degree == 1 else p ** (degree - 1), p**degree, degree):
        lower = _monic_lower(np.arange(start, min(start + degree, p**degree), dtype=np.int64), p, degree)
        cands = [FpPoly(field, (*c, 1)) for c in lower.tolist()]
        found = next((q for q, fs in zip(cands, factor_stack(cands)) if fs == [(q, 1)]), None)
        if found is not None:
            return found
    raise RuntimeError("unreachable: irreducibles exist in every degree")


def power_basis_tensor(modulus: FpPoly) -> np.ndarray:
    """Structure tensor of F_p[T]/(modulus) on the power basis 1, t, ...,
    t^(d-1): mul[i, j] holds the coordinates of t^(i+j) mod modulus."""
    if not modulus.is_monic() or modulus.degree < 1:
        raise ValueError("modulus must be monic of degree >= 1")
    p, d = modulus.field.p, modulus.degree
    coords = np.zeros((2 * d - 1, d), dtype=np.int64)
    row = [1] + [0] * (d - 1)
    for k in range(2 * d - 1):
        coords[k] = row
        # t * row, with t^d replaced by -(c_0 + ... + c_(d-1) t^(d-1))
        top = row[-1]
        row = [(lo - top * c) % p for lo, c in zip([0] + row[:-1], modulus.coeffs)]
    return coords[np.add.outer(np.arange(d), np.arange(d))]


def _first_monic_relation(powers: np.ndarray, field: PrimeField) -> FpPoly:
    """The monic polynomial of least degree d with
    powers[d] = -(c_0 powers[0] + ... + c_{d-1} powers[d-1]), from one echelon
    form of the matrix with columns powers[0], powers[1], ...: the first
    non-pivot column is d, and its reduced column holds the coordinates of
    powers[d] on the pivot columns 0, ..., d-1. Given the coordinate rows of
    1, x, x^2, ..., this is the minimal polynomial of x; 1 when powers[0] is
    zero, as 1 is in the zero ring."""
    p = field.p
    red, pivots = rref(np.asarray(powers, dtype=np.int64).T, p)
    d = next((i for i, c in enumerate(pivots) if c != i), len(pivots))
    if d == len(powers):
        raise RuntimeError("the powers must be linearly dependent")
    return FpPoly.make(field, [(-int(c)) % p for c in red[:d, d]] + [1])


def minimal_polynomial(elem, algebra) -> FpPoly:
    """Minimal polynomial of an element of a finite-dimensional commutative
    F_p-algebra, the first monic relation among its powers 1, ..., elem^dim.

    `algebra` provides dim, field, unit, and powers(v, start, k), the rows
    start * v^j for j < k (SCAlgebra.powers); `elem` is a coordinate vector
    in the algebra basis. A caller that needs the rows too, or the minimal
    polynomial in a subalgebra e·A, reads _first_monic_relation off them.
    """
    return _first_monic_relation(algebra.powers(npmod(elem, algebra.field.p), algebra.unit, algebra.dim + 1), algebra.field)
