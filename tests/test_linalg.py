import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    batch_tensor_rank_class,
    charpoly,
    check_product_row,
    nullspace_twopass,
    preimage,
    rref_rowloop,
    solve,
    span_rank_classes,
)
from hyperspec import algkernel, hopfkernel, linalg, specops

PRIMES = [3, 5, 7]


def rank(mat, p):
    return linalg.rref(mat, p)[0].shape[0]


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


ORACLE_PRIMES = [2, 3, 5, 7, 13, 65537, 2**31 - 1]


@st.composite
def elimination_inputs(draw):
    """(p, matrix) with 0-14 rows and columns, built to hit the cases the
    elimination branches on: random entries, zero columns, repeated rows,
    and sparse Kronecker blocks kron(B, I) stacked on kron(I, B) as the
    Hopf-ideal test once built them."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    entry = st.integers(0, p - 1) | st.sampled_from([0, 1, p - 1])
    kind = draw(st.sampled_from(["random", "zero-columns", "repeated-rows", "kronecker"]))
    if kind == "kronecker":
        n = draw(st.integers(1, 3))
        k = draw(st.integers(0, n))
        b = np.array(draw(st.lists(entry, min_size=k * n, max_size=k * n)), dtype=np.int64).reshape(k, n)
        eye = np.eye(n, dtype=np.int64)
        m = np.vstack([np.kron(b, eye), np.kron(eye, b)])
        return p, m[: draw(st.integers(0, 14))]
    rows = draw(st.integers(0, 14))
    cols = draw(st.integers(0, 14))
    m = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
    m = m.reshape(rows, cols)
    if kind == "zero-columns" and cols:
        m[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0
    if kind == "repeated-rows" and rows:
        picks = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=14))
        m = m[picks]
    return p, m


@given(elimination_inputs())
@settings(max_examples=400, deadline=None)
def test_rref_matches_rowloop_oracle(pm):
    p, m = pm
    got, piv = linalg.rref(m, p)
    want, want_piv = rref_rowloop(m, p)
    assert got.dtype == np.int64
    assert got.shape == (len(piv), m.shape[1])
    assert piv == want_piv
    assert got.shape == want.shape and (got == want).all()


def test_rref_shapes_at_rank_zero():
    for m in (np.zeros((0, 4), dtype=np.int64), np.zeros((3, 4), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
        r, piv = linalg.rref(m, 5)
        assert (r.shape, r.dtype, piv) == ((0, m.shape[1]), np.int64, [])


@given(matrices())
def test_nullspace_vectors_are_killed(pm):
    p, m = pm
    ns = linalg.nullspace(m, p)
    assert ns.shape[0] == m.shape[1] - rank(m, p)
    if ns.shape[0]:
        assert not (m @ ns.T % p).any()


@given(matrices())
def test_solve_consistency(pm):
    p, m = pm
    x = np.arange(m.shape[1]) % p
    b = m @ x % p
    sol = solve(m, b, p)
    assert sol is not None
    assert ((m @ sol - b) % p == 0).all()


def test_preimage_of_zero_is_nullspace():
    p = 5
    m = np.array([[1, 2, 3], [0, 1, 1]])
    zero_sub = np.zeros((0, 2), dtype=np.int64)
    pre = preimage(m, zero_sub, p)
    ns = linalg.nullspace(m, p)
    assert (pre == ns).all()


def test_preimage_membership():
    p = 3
    m = np.array([[1, 0, 1], [0, 1, 2]])
    sub = np.array([[1, 0]])  # span of first target coordinate
    pre = preimage(m, sub, p)
    for v in pre:
        img = m @ v % p
        assert img[1] == 0


def test_charpoly_of_companion_matrix():
    # companion of x^3 + 2x + 1 over F_5
    comp = np.array([[0, 0, -1], [1, 0, -2], [0, 1, 0]])
    assert charpoly(comp, 5) == [1, 2, 0, 1]


def test_charpoly_diagonal():
    assert charpoly(np.diag([1, 2]), 5) == [2, 2, 1]  # (x-1)(x-2) = x^2-3x+2


@pytest.mark.parametrize("p", PRIMES)
def test_batch_rank_classes(p):
    zero = np.zeros((1, 2, 2), dtype=np.int64)
    rank1 = np.array([[[1, 2], [2, 4 % p]]])  # rows proportional
    rank2 = np.array([[[1, 0], [0, 1]]])
    t = np.concatenate([zero, rank1, rank2])
    assert batch_tensor_rank_class(t, p).tolist() == [0, 1, 2]


@given(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_batch_rank_class_matches_gauss(p, a, b, data):
    flat = data.draw(st.lists(st.integers(0, p - 1), min_size=a * b, max_size=a * b))
    m = np.array(flat, dtype=np.int64).reshape(1, a, b)
    cls = int(batch_tensor_rank_class(m, p)[0])
    true_rank = rank(m[0], p)
    assert cls == min(true_rank, 2)


@given(st.sampled_from(PRIMES), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_span_rank_classes_matches_gauss(p, k, a, b, data):
    flat = data.draw(st.lists(st.integers(0, p - 1), min_size=k * a * b, max_size=k * a * b))
    span = np.array(flat, dtype=np.int64).reshape(k, a * b)
    if rank(span, p) < k:
        with pytest.raises(RuntimeError, match="dependent"):
            span_rank_classes(span, a, b, p)
        return
    coeffs, cls = span_rank_classes(span, a, b, p)
    assert (coeffs == linalg.enumerate_vectors(p, k)).all()
    for c, got in zip(coeffs, cls):
        combo = sum((int(ci) * row for ci, row in zip(c, span)), np.zeros(a * b, dtype=np.int64)) % p
        assert got == min(rank(combo.reshape(a, b), p), 2)


def _kernel_test_matrices(p, rng, count):
    """Random matrices over F_p with zero rows, zero columns and rows that
    are combinations of other rows mixed in."""
    for _ in range(count):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 9))
        m = rng.integers(0, p, size=(rows, cols))
        if rng.random() < 0.3:
            m[int(rng.integers(rows))] = 0
        if rng.random() < 0.3:
            m[:, int(rng.integers(cols))] = 0
        if rows >= 3 and rng.random() < 0.5:
            c = rng.integers(0, p, size=2)
            m[-1] = (c[0] * m[0] + c[1] * m[1]) % p
        yield m


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_nullspace_matches_two_pass_oracle(p):
    rng = np.random.default_rng(p)
    for m in _kernel_test_matrices(p, rng, 300):
        got = linalg.nullspace(m, p)
        want = nullspace_twopass(m, p)
        assert got.shape == want.shape and (got == want).all(), m
        assert got.flags.c_contiguous


def test_nullspace_of_empty_and_full_rank():
    assert linalg.nullspace(np.zeros((0, 3), dtype=np.int64), 5).tolist() == np.eye(3, dtype=int).tolist()
    assert linalg.nullspace(np.eye(3, dtype=np.int64), 5).shape == (0, 3)


@pytest.mark.parametrize("p", [3, 7, 101])
def test_two_sided_matches_einsum_on_line_shapes(p):
    """two_sided(left, t, right) is left · t · right^T mod p, broadcast over
    the leading axes, on the shapes of the line's Krylov step: (F, 1, a, a)
    x (F, G, a, b) x (1, G, b, b)."""
    rng = np.random.default_rng(p)
    f, g, a, b = 3, 4, 2, 3
    left = rng.integers(0, p, size=(f, 1, a, a))
    t = rng.integers(0, p, size=(f, g, a, b))
    right = rng.integers(0, p, size=(1, g, b, b))
    want = np.einsum("...ia,...ab,...jb->...ij", left, t, right) % p
    got = linalg.two_sided(left, t, right, p)
    assert got.shape == (f, g, a, b) and (got == want).all()


class TestInt64Bound:
    """matmul raises unless a sum of products of residues in [0, p) stays
    below 2^63; just below that bound it agrees with Python ints. The
    inputs are the ones that overflowed without the bound."""

    P31 = 2**31 - 1  # 2 (p-1)^2 < 2^63 <= 3 (p-1)^2
    PMAX = 3_037_000_493  # (p-1)^2 < 2^63 <= 2 (p-1)^2

    @staticmethod
    def exact(a, b, p):
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]

    def test_matmul_exact_below_bound(self):
        p = self.P31
        a, b = [[p - 1, p - 2]], [[p - 3], [p - 4]]
        assert linalg.matmul(np.array(a), np.array(b), p).tolist() == self.exact(a, b, p)
        p = self.PMAX
        a, b = [[p - 1]], [[p - 2]]
        assert linalg.matmul(np.array(a), np.array(b), p).tolist() == self.exact(a, b, p) == [[2]]

    def test_matmul_reduces_its_product(self):
        """matmul takes residues and reduces what it forms: here the int64
        sums pass p^2, and every entry comes back in [0, p)."""
        p = self.P31
        a, b = np.array([[p - 1, p - 2], [1, p - 1]]), np.array([[p - 3, 1], [p - 4, p - 1]])
        got = linalg.matmul(a, b, p)
        assert (a @ b).max() >= p and 0 <= got.min() and got.max() < p
        assert got.tolist() == self.exact(a.tolist(), b.tolist(), p)

    def test_matmul_raises_at_first_inner_length_past_bound(self):
        p = self.P31
        with pytest.raises(ValueError, match="overflow int64"):
            linalg.matmul(np.full((1, 3), p - 1), np.full((3, 1), p - 1), p)  # wrapped to 2147483646, not 3
        p = self.PMAX
        with pytest.raises(ValueError, match="overflow int64"):
            linalg.matmul(np.array([[p - 1, p - 2]]), np.array([[p - 3], [p - 4]]), p)  # wrapped, not 11


class TestResidueGuard:
    """The session guard of tests/conftest.py is on, and its row check
    reads every shape matmul is given."""

    def test_every_binding_rejects_an_unreduced_operand(self):
        for module in (linalg, algkernel, hopfkernel, specops):
            with pytest.raises(AssertionError, match=r"outside \[0, 5\)"):
                module.matmul(np.array([[5]]), np.array([[1]]), 5)
        with pytest.raises(AssertionError, match=r"rref was handed an operand outside \[0, 5\)"):
            algkernel.rref(np.array([[-1]]), 5)

    @pytest.mark.parametrize(
        "a_shape, b_shape", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,)), ((4, 1, 2, 3), (1, 5, 3, 2)), ((2, 0), (0, 3))]
    )
    def test_row_check_reads_each_shape(self, a_shape, b_shape):
        p = 1_000_003
        rng, rnd = np.random.default_rng(0), random.Random(0)
        a, b = rng.integers(0, p, size=a_shape), rng.integers(0, p, size=b_shape)
        out = linalg.matmul(a, b, p)
        for _ in range(5):
            check_product_row(a, b, p, out, rnd)
        if out.size:
            with pytest.raises(AssertionError, match="Python ints give"):
                check_product_row(a, b, p, (out + 1) % p, rnd)
