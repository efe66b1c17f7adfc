from itertools import permutations

import numpy as np
import pytest

from hyperspec.algkernel import SCAlgebra
from hyperspec.gfarith import PrimeField
from hyperspec.hopfkernel import HopfData, parse_builtin
from hyperspec.linalg import batch_tensor_rank_class, enumerate_vectors, matmul, modinv, npmod


def rref_rowloop(mat, p):
    """The numpy row-loop RREF that linalg.rref replaced, kept as its oracle:
    two numpy calls per (pivot, nonzero row) pair, in int64."""
    a = npmod(np.atleast_2d(np.asarray(mat, dtype=np.int64)).copy(), p)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = npmod(a[r] * modinv(int(a[r, c]), p), p)
        other = np.nonzero(a[:, c])[0]
        for j in other:
            if j != r:
                a[j] = npmod(a[j] - a[j, c] * a[r], p)
        pivots.append(c)
        r += 1
    return a[:r].copy(), pivots


def span_rank_classes(span, a, b, p):
    """Every combination c·span of k independent rows of F_p^(a*b), each read
    as an a x b matrix: the rank scan the lemma f*g = V(Ker Q_fg) makes
    unnecessary in the library, kept as its oracle.

    Returns (coeffs, cls): all c in F_p^k in enumerate_vectors order, and the
    rank class of c·span as batch_tensor_rank_class gives it. Raises
    RuntimeError unless c = 0 is the only combination of rank 0, which is
    the independence the callers' spans must have.
    """
    coeffs = enumerate_vectors(p, span.shape[0])
    cls = batch_tensor_rank_class(matmul(coeffs, span, p).reshape(-1, a, b), p)
    if int((cls == 0).sum()) != 1:
        raise RuntimeError("rank-0 combinations beyond c = 0: the spanning rows are dependent")
    return coeffs, cls


@pytest.fixture(scope="session")
def mu32():
    return parse_builtin("mu:3:2")


@pytest.fixture(scope="session")
def mu54():
    return parse_builtin("mu:5:4")


@pytest.fixture(scope="session")
def ae31():
    return parse_builtin("addetale:3:1")


@pytest.fixture(scope="session")
def ae32():
    return parse_builtin("addetale:3:2")


@pytest.fixture(scope="session")
def mu1312():
    return parse_builtin("mu:13:12")


@pytest.fixture(scope="session")
def suite_algebras(mu32, mu54, ae31, ae32):
    return [mu32, mu54, ae31, ae32]


@pytest.fixture(scope="session")
def fs3():
    """F_3^{S_3}, the functions on the symmetric group S_3: commutative but
    not cocommutative, Delta(d_g) = sum over ab = g of d_a ⊗ d_b on the
    basis of point indicators d_g."""
    group = list(permutations(range(3)))
    n = len(group)
    index = {g: i for i, g in enumerate(group)}
    compose = lambda a, b: tuple(a[b[x]] for x in range(3))
    mul = np.zeros((n, n, n), dtype=np.int64)
    delta = np.zeros((n * n, n), dtype=np.int64)
    antipode = np.zeros((n, n), dtype=np.int64)
    for a, g in enumerate(group):
        mul[a, a, a] = 1
        antipode[index[tuple(sorted(range(3), key=g.__getitem__))], a] = 1  # d_g -> d_(g^-1)
        for b, h in enumerate(group):
            delta[a * n + b, index[compose(g, h)]] = 1
    counit = [1 if g == (0, 1, 2) else 0 for g in group]
    alg = SCAlgebra(PrimeField(3), [f"d{i}" for i in range(n)], mul, np.ones(n, dtype=np.int64))
    return HopfData(alg, delta, counit, antipode, name="F3^S3")
