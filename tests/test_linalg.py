"""Sparse storage, LU factorization, and Matrix Market output read back by scipy."""

import io

import numpy as np
import pytest
import scipy.io
import scipy.linalg

from sparsedae.errors import SingularMatrix
from sparsedae.linalg import (
    SparseMatrix,
    factorize,
    solve,
    write_matrix_market,
)

from matrix_helpers import from_coo, from_dense


def random_spd_like(rng, n, density=0.2):
    a = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    a += np.diag(n * np.ones(n))  # diagonally dominant, well conditioned
    return a


def test_dense_round_trip_and_nnz():
    a = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [-1.0, 0.0, 4.0]])
    m = from_dense(a)
    assert m.nnz == 5
    assert m.to_dense() == pytest.approx(a)


def test_coo_build_validates():
    with pytest.raises(ValueError):
        SparseMatrix(n=2, indptr=[0, 1], rowind=[0], values=[1.0])
    with pytest.raises(ValueError):
        SparseMatrix(n=2, indptr=[0, 2, 2], rowind=[1, 0], values=[1.0, 2.0])
    with pytest.raises(ValueError):
        SparseMatrix(n=2, indptr=[0, 1, 2], rowind=[0, 5], values=[1.0, 2.0])
    with pytest.raises(ValueError, match="ascending in column 2"):  # duplicate row
        SparseMatrix(n=3, indptr=[0, 1, 3, 3], rowind=[0, 2, 2], values=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="out of range in column 1"):
        SparseMatrix(n=2, indptr=[0, 1, 2], rowind=[-1, 0], values=[1.0, 2.0])
    with pytest.raises(ValueError, match="start at 0"):
        SparseMatrix(n=2, indptr=[1, 1, 2], rowind=[0, 1], values=[1.0, 2.0])
    with pytest.raises(ValueError):  # duplicate coordinates through from_coo
        from_coo(2, [1, 1], [0, 0], [1.0, 2.0])
    # rows may descend across a column boundary, and columns may be empty
    m = SparseMatrix(n=2, indptr=[0, 1, 2], rowind=[1, 0], values=[1.0, 2.0])
    assert m.to_dense() == pytest.approx(np.array([[0.0, 2.0], [1.0, 0.0]]))
    m = SparseMatrix(n=3, indptr=[0, 2, 2, 3], rowind=[1, 2, 0], values=[1.0, 2.0, 3.0])
    assert m.to_dense() == pytest.approx(np.array([[0.0, 0.0, 3.0],
                                                   [1.0, 0.0, 0.0],
                                                   [2.0, 0.0, 0.0]]))


def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    a = random_spd_like(rng, 12)
    m = from_dense(a)
    x = rng.standard_normal(12)
    assert m.matvec(x) == pytest.approx(a @ x)


def test_dense_path_solve_matches_numpy():
    rng = np.random.default_rng(5)
    for n in (1, 4, 17, 64):
        a = random_spd_like(rng, n)
        b = rng.standard_normal(n)
        f = factorize(from_dense(a))
        assert f._dense is not None  # small systems use the dense path
        assert solve(f, b) == pytest.approx(np.linalg.solve(a, b), abs=1e-10)


def test_dense_solve_calls_lapack_without_the_scipy_wrapper(monkeypatch):
    # the dense path calls getrs itself, bit for bit what lu_solve returns,
    # and leaves the right-hand side as it was
    rng = np.random.default_rng(7)
    a = random_spd_like(rng, 9)
    b = rng.standard_normal(9)
    f = factorize(from_dense(a))
    want = scipy.linalg.lu_solve(f._dense, b)
    b0 = b.copy()

    def refuse(*args, **kwargs):
        raise AssertionError("lu_solve called")

    monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
    got = solve(f, b)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(b, b0)


def test_sparse_path_solve_matches_numpy():
    rng = np.random.default_rng(6)
    n = 120
    a = random_spd_like(rng, n, density=0.05)
    b = rng.standard_normal(n)
    f = factorize(from_dense(a))
    assert f._splu is not None
    assert solve(f, b) == pytest.approx(np.linalg.solve(a, b), abs=1e-9)


def test_permuted_matrix_still_solves():
    # row pivoting must handle a zero on the diagonal
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = factorize(from_dense(a))
    assert solve(f, np.array([3.0, 7.0])) == pytest.approx([7.0, 3.0])


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_matrix_reports_column():
    a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularMatrix):
        factorize(from_dense(a))


def test_large_singular_perturbation_fallback():
    # pure-Neumann style matrix: singular, but consistent rhs of zero
    n = 80
    a = 2.0 * np.eye(n)
    a[np.arange(n - 1), np.arange(1, n)] = -1.0
    a[np.arange(1, n), np.arange(n - 1)] = -1.0
    a[0, 0] = a[-1, -1] = 1.0  # row sums all zero -> exactly singular
    f = factorize(from_dense(a))
    assert f.perturbed
    assert solve(f, np.zeros(n)) == pytest.approx(np.zeros(n))


def test_solve_validates_rhs_shape():
    f = factorize(from_dense(np.eye(3)))
    assert solve(f, np.ones(3)) == pytest.approx(np.ones(3))
    with pytest.raises(ValueError):
        solve(f, np.ones(4))


def test_matrix_market_round_trip_values():
    rng = np.random.default_rng(9)
    a = random_spd_like(rng, 10)
    m = from_dense(a)
    buf = io.StringIO()
    write_matrix_market(m, buf)
    buf.seek(0)
    back = scipy.io.mmread(buf)
    assert back.shape == (10, 10) and back.nnz == m.nnz
    assert np.array_equal(back.toarray(), a)


def test_matrix_market_pattern_only():
    m = from_dense(np.array([[1.0, 0.0], [2.0, 3.0]]))
    buf = io.StringIO()
    write_matrix_market(m, buf, pattern_only=True)
    text = buf.getvalue()
    assert "pattern" in text.splitlines()[0]
    buf.seek(0)
    back = scipy.io.mmread(buf)
    assert back.nnz == 3
    assert np.array_equal(back.toarray(), [[1.0, 0.0], [1.0, 1.0]])

