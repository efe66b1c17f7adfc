"""Exact dense linear algebra over F_p.

Everything here works on numpy int64 arrays with entries in [0, p) and a prime
modulus p. No floats anywhere; RREF matrices are canonical, so two subspaces
are equal iff their stored bases are identical arrays. Values are reduced
where they enter (SCAlgebra, HopfData, json_residues, exported functions
taking a caller's array); past that every array is a residue, and kernels
reduce only what they compute, as the tests' guard asserts on every call.
"""

from __future__ import annotations

import numpy as np


def npmod(a, p: int) -> np.ndarray:
    return np.mod(np.asarray(a, dtype=np.int64), p)


def require_int64_sum(terms: int, factors: int, p: int, what: str) -> None:
    """Raise ValueError unless a sum of `terms` products of `factors`
    residues in [0, p) stays below 2^63, so that no int64 entry can wrap."""
    if terms * (p - 1) ** factors >= 2**63:
        raise ValueError(f"{what} mod {p} may overflow int64: {terms} terms of {factors} factors")


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residues a and b; raises ValueError unless inner *
    (p-1)^2 < 2^63 for the length `inner` of the contracted axis."""
    require_int64_sum(np.shape(a)[-1], 2, p, "matrix product")
    return npmod(a @ b, p)


def two_sided(left: np.ndarray, t: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """left · t · right^T mod p over the last two axes, broadcast over the
    leading ones, by two bounded matmuls. For w in K⊗L as its (dim K x dim L)
    coefficient matrix W, (M⊗N)(w) is M W N^T and (x⊗y)·w is L_x W L_y^T."""
    return matmul(matmul(left, t, p), np.swapaxes(right, -1, -2), p)


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a matrix of residues.

    Returns (R, pivots) where R has no zero rows and R[i, pivots[i]] = 1 with
    zeros elsewhere in each pivot column; R has shape (rank, cols).

    The elimination runs on rows of Python ints: the inputs are small, so
    per-call numpy overhead would dominate, and Python ints cannot overflow
    whatever p is. Only the rows with a nonzero entry in the pivot column
    are touched, and only from that column on, since every row is zero to
    the left of it once the earlier pivot columns are cleared.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    cols = a.shape[1]
    rows = a.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        x = rows[r][c]
        if x != 1:
            inv = pow(x, p - 2, p)
            rows[r] = [v * inv % p for v in rows[r]]
        head = rows[r][c:]
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                row[c:] = [(u - f * v) % p for u, v in zip(row[c:], head)]
        pivots.append(c)
        r += 1
    return np.array(rows[:r], dtype=np.int64).reshape(r, cols), pivots


def nullspace(mat, p: int) -> np.ndarray:
    """RREF basis (rows) of {x : mat @ x = 0 mod p}, from one elimination.

    Eliminate mat with its columns reversed. Each free column c of that
    form gives the kernel vector with 1 at c, 0 at the other free columns,
    and nonzero entries only at pivot columns left of c, since R[i, c] = 0
    when pivots[i] > c. Read in the original column order, the vector of
    each free column has its leading 1 there and is zero at every other
    free column, so the vectors, ordered by that column, already form the
    canonical RREF of the kernel."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    n = a.shape[1]
    r, pivots = rref(a[:, ::-1], p)
    free = [c for c in range(n) if c not in pivots][::-1]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = npmod(-r[:, free].T, p)
    return np.ascontiguousarray(basis[:, ::-1])


def reduce_rows(vecs, basis: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Residual of each row of vecs after reduction against an RREF basis."""
    v = np.atleast_2d(np.asarray(vecs, dtype=np.int64))
    return v if basis.shape[0] == 0 else npmod(v - v[:, pivots] @ basis, p)


def in_span(basis: np.ndarray, pivots: list[int], vec, p: int) -> bool:
    """Whether vec, or every row of a stack of vectors, lies in the span of
    an RREF basis; an empty stack does."""
    return not reduce_rows(vec, basis, pivots, p).any()


def enumerate_vectors(p: int, n: int) -> np.ndarray:
    """All p**n vectors of F_p^n, one per row, lowest coordinate fastest."""
    count = p**n
    idx = np.arange(count, dtype=np.int64)
    return (idx[:, None] // p ** np.arange(n, dtype=np.int64)) % p

