import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import span_rank_classes
from hyperspec import linalg

PRIMES = [3, 5, 7]


def rand_matrix(draw, p):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=np.int64).reshape(rows, cols)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, rand_matrix(draw, p)


@given(matrices())
def test_rref_is_idempotent_and_canonical(pm):
    p, m = pm
    r1, piv1 = linalg.rref(m, p)
    r2, piv2 = linalg.rref(r1, p)
    assert (r1 == r2).all()
    assert piv1 == piv2
    for i, c in enumerate(piv1):
        col = r1[:, c]
        assert col[i] == 1 and (np.delete(col, i) == 0).all()


@given(matrices())
def test_nullspace_vectors_are_killed(pm):
    p, m = pm
    ns = linalg.nullspace(m, p)
    assert ns.shape[0] == m.shape[1] - linalg.rank(m, p)
    if ns.shape[0]:
        assert not (m @ ns.T % p).any()


@given(matrices())
def test_solve_consistency(pm):
    p, m = pm
    x = np.arange(m.shape[1]) % p
    b = m @ x % p
    sol = linalg.solve(m, b, p)
    assert sol is not None
    assert ((m @ sol - b) % p == 0).all()


def test_preimage_of_zero_is_nullspace():
    p = 5
    m = np.array([[1, 2, 3], [0, 1, 1]])
    zero_sub = np.zeros((0, 2), dtype=np.int64)
    pre = linalg.preimage(m, zero_sub, p)
    ns = linalg.nullspace(m, p)
    assert (pre == ns).all()


def test_preimage_membership():
    p = 3
    m = np.array([[1, 0, 1], [0, 1, 2]])
    sub = np.array([[1, 0]])  # span of first target coordinate
    pre = linalg.preimage(m, sub, p)
    for v in pre:
        img = m @ v % p
        assert img[1] == 0


def test_charpoly_of_companion_matrix():
    # companion of x^3 + 2x + 1 over F_5
    comp = np.array([[0, 0, -1], [1, 0, -2], [0, 1, 0]])
    assert linalg.charpoly(comp, 5) == [1, 2, 0, 1]


def test_charpoly_diagonal():
    assert linalg.charpoly(np.diag([1, 2]), 5) == [2, 2, 1]  # (x-1)(x-2) = x^2-3x+2


@pytest.mark.parametrize("p", PRIMES)
def test_batch_rank_classes(p):
    zero = np.zeros((1, 2, 2), dtype=np.int64)
    rank1 = np.array([[[1, 2], [2, 4 % p]]])  # rows proportional
    rank2 = np.array([[[1, 0], [0, 1]]])
    t = np.concatenate([zero, rank1, rank2])
    assert linalg.batch_tensor_rank_class(t, p).tolist() == [0, 1, 2]


@given(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_batch_rank_class_matches_gauss(p, a, b, data):
    flat = data.draw(st.lists(st.integers(0, p - 1), min_size=a * b, max_size=a * b))
    m = np.array(flat, dtype=np.int64).reshape(1, a, b)
    cls = int(linalg.batch_tensor_rank_class(m, p)[0])
    true_rank = linalg.rank(m[0], p)
    assert cls == min(true_rank, 2)


@given(st.sampled_from(PRIMES), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_span_rank_classes_matches_gauss(p, k, a, b, data):
    flat = data.draw(st.lists(st.integers(0, p - 1), min_size=k * a * b, max_size=k * a * b))
    span = np.array(flat, dtype=np.int64).reshape(k, a * b)
    if linalg.rank(span, p) < k:
        with pytest.raises(RuntimeError, match="dependent"):
            span_rank_classes(span, a, b, p)
        return
    coeffs, cls = span_rank_classes(span, a, b, p)
    assert (coeffs == linalg.enumerate_vectors(p, k)).all()
    for c, got in zip(coeffs, cls):
        combo = sum((int(ci) * row for ci, row in zip(c, span)), np.zeros(a * b, dtype=np.int64)) % p
        assert got == min(linalg.rank(combo.reshape(a, b), p), 2)
