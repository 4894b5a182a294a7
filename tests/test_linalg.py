"""Sparse storage, LU factorization, and Matrix Market output read back by scipy."""

import io
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse.linalg

from sparsedae.errors import SingularMatrix
from sparsedae.linalg import (
    SparseMatrix,
    entry_columns,
    factorize,
    solve,
    write_pattern,
)
from sparsedae.problems import example5, example6
from sparsedae.stepper import SolverOptions, Stepper

from matrix_helpers import from_coo, from_dense


def random_spd_like(rng, n, density=0.2):
    a = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    a += np.diag(n * np.ones(n))  # diagonally dominant, well conditioned
    return a


def test_dense_round_trip_and_nnz():
    a = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [-1.0, 0.0, 4.0]])
    m = from_dense(a)
    assert m.indptr[-1] == len(m.rowind) == 5
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


def test_to_dense_with_an_empty_column_and_a_stored_zero():
    # column 2 is empty; column 3 stores an explicit 0.0 at row 2
    m = SparseMatrix(n=3, indptr=[0, 2, 2, 4], rowind=[0, 2, 1, 2],
                     values=[1.5, -2.0, 0.0, 4.0])
    assert np.array_equal(m.to_dense(), [[1.5, 0.0, 0.0],
                                         [0.0, 0.0, 0.0],
                                         [-2.0, 0.0, 4.0]])


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


def test_singular_matrix_reports_column():
    # an exactly zero pivot in column 2 takes the eps*I retry, which
    # factorizes without a warning
    a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = factorize(from_dense(a))
    assert f.perturbed


@pytest.mark.parametrize("n", [8, 80], ids=["dense", "sparse"])
def test_large_singular_perturbation_fallback(n):
    # pure-Neumann style matrix: singular, but consistent rhs of zero
    a = 2.0 * np.eye(n)
    a[np.arange(n - 1), np.arange(1, n)] = -1.0
    a[np.arange(1, n), np.arange(n - 1)] = -1.0
    regular = factorize(from_dense(a))
    assert (regular.perturbed, regular.lus) == (False, 1)
    a[0, 0] = a[-1, -1] = 1.0  # row sums all zero -> exactly singular
    f = factorize(from_dense(a))
    assert f.perturbed
    assert f.lus == 2   # the plain LU and the eps*I retry
    assert solve(f, np.zeros(n)) == pytest.approx(np.zeros(n))
    # eps*I from the first try: one LU, the same factors
    known = factorize(from_dense(a), perturb=True)
    assert (known.perturbed, known.lus) == (True, 1)
    assert (known._dense is None) == (f._dense is None) == (n > 64)
    b = np.arange(n, dtype=float) - (n - 1) / 2
    assert np.array_equal(solve(known, b), solve(f, b))


@pytest.mark.parametrize("n", [3, 80], ids=["dense", "sparse"])
def test_singular_after_the_retry_raises_singular_matrix(monkeypatch, n):
    # every attempt hits an exactly zero pivot: the plain one and the eps*I
    # retry, then one SingularMatrix
    attempts = []

    def dgetrf(m):
        attempts.append(np.diag(m).copy())
        return m.copy(), np.arange(n, dtype=np.int32), 2

    def splu(m, **kwargs):
        attempts.append(m.diagonal())
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", dgetrf)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix) as info:
            factorize(from_dense(2.0 * np.eye(n)))
    assert len(attempts) == 2
    # the retry adds eps = 1e-12*max(max|M|, 1) to the matrix it factors:
    # A on the dense path, the row-equilibrated D_r A = I on the sparse one
    top = 2.0 if n == 3 else 1.0
    assert np.array_equal(attempts[0], np.full(n, top))
    assert np.array_equal(attempts[1], np.full(n, top + 1e-12 * top))
    if n == 3:
        assert info.value.column == 2 and "column 2" in str(info.value)
    else:
        assert "exactly singular" in str(info.value)


def tridiagonal(n):
    # diagonally dominant: 4 on the diagonal, -1 beside it
    a = 4.0 * np.eye(n)
    a[np.arange(n - 1), np.arange(1, n)] = -1.0
    a[np.arange(1, n), np.arange(n - 1)] = -1.0
    return a


def test_sparse_solve_of_rows_scaled_over_16_decades_is_backward_stable():
    rng = np.random.default_rng(12)
    n = 100
    scale = 10.0 ** rng.uniform(-8, 8, n)
    a = tridiagonal(n) * scale[:, None]
    b = rng.standard_normal(n)
    f = factorize(from_dense(a))
    assert f._splu is not None
    x = solve(f, b)
    # unequilibrated dense LU is only good to ~1e-11 here; the tridiagonal
    # system without the row scales gives x to roundoff
    assert x == pytest.approx(np.linalg.solve(a, b), rel=1e-9)
    assert x == pytest.approx(np.linalg.solve(tridiagonal(n), b / scale), rel=1e-13)
    # componentwise backward error, row by row
    berr = np.abs(a @ x - b) / (np.abs(a) @ np.abs(x) + np.abs(b))
    assert berr.max() <= 1e-14


@pytest.mark.parametrize("stored", [False, True], ids=["no-entries", "stored-zeros"])
def test_all_zero_row_takes_the_perturbed_retry_without_a_warning(stored):
    # equilibration leaves a zero row's scale at 1 instead of dividing by 0
    n = 100
    a = tridiagonal(n)
    rows, cols = np.nonzero(a)
    a[37] = 0.0
    # row 37 holds no entry, or its three entries are stored as zeros
    m = from_coo(n, rows, cols, a[rows, cols]) if stored else from_dense(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = factorize(m)
    assert f.perturbed


def test_row_of_subnormal_entries_is_scaled_without_overflow():
    n = 100
    a = tridiagonal(n)
    a[37] *= 1e-310
    x_true = np.random.default_rng(14).standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve(factorize(from_dense(a)), a @ x_true)
    # row 37's right-hand side is subnormal and keeps fewer significant bits
    assert x == pytest.approx(x_true, rel=1e-9)


@pytest.mark.parametrize("build, hmax, max_fill", [
    (lambda: example5(n=64, m=64, c0=1.0), 0.25, 150_000),
    (lambda: example6(n=32, m=64), 1e-4, 200_000),
], ids=["ex5-64x64", "ex6-32x64"])
def test_grid_jacobian_lu_is_backward_stable_with_bounded_fill(build, hmax, max_fill):
    # the benchmark workloads' Jacobians at the consistent initial state and
    # h = hmax; the fill bounds fail once pivots leave the diagonal
    st = Stepper(build(), SolverOptions(tf=hmax, hmax=hmax, hinit=hmax))
    state, _ = st.initialize()
    f = st._factorize(state, hmax)
    a = st.assembler.matrix
    b = np.random.default_rng(13).standard_normal(a.n)
    x = solve(f, b)
    berr = np.abs(a.matvec(x) - b).max() / (np.abs(a.values).max() * np.abs(x).max())
    assert berr <= 1e-14
    assert f._splu.L.nnz + f._splu.U.nnz <= max_fill


def test_solve_validates_rhs_shape():
    f = factorize(from_dense(np.eye(3)))
    assert solve(f, np.ones(3)) == pytest.approx(np.ones(3))
    with pytest.raises(ValueError):
        solve(f, np.ones(4))


def test_matrix_market_pattern_only():
    m = from_dense(np.array([[1.0, 0.0], [2.0, 3.0]]))
    buf = io.StringIO()
    write_pattern(m.n, m.indptr, m.rowind, buf)
    text = buf.getvalue()
    assert text == "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n2 1\n2 2\n"
    buf.seek(0)
    back = scipy.io.mmread(buf)
    assert back.nnz == 3
    assert np.array_equal(back.toarray(), [[1.0, 0.0], [1.0, 1.0]])


def test_column_map_matches_the_per_column_loop():
    # a random structure with empty columns; the loops are the references
    rng = np.random.default_rng(4)
    n = 40
    mask = rng.random((n, n)) < 0.1
    mask[:, [3, 17]] = False
    m = from_dense(np.where(mask, rng.standard_normal((n, n)), 0.0))
    want_cols = [j for j in range(n) for _ in range(m.indptr[j], m.indptr[j + 1])]
    assert entry_columns(m.indptr).tolist() == want_cols
    dense = np.zeros((n, n))
    for j in range(n):
        sl = slice(m.indptr[j], m.indptr[j + 1])
        dense[m.rowind[sl], j] = m.values[sl]
    assert np.array_equal(m.to_dense(), dense)
    buf = io.StringIO()
    write_pattern(n, m.indptr, m.rowind, buf)
    lines = [f"{m.rowind[k] + 1} {j + 1}" for k, j in enumerate(want_cols)]
    assert buf.getvalue() == "\n".join(
        ["%%MatrixMarket matrix coordinate pattern general", f"{n} {n} {len(lines)}"] + lines) + "\n"


def test_matrix_market_pattern_of_no_entries():
    buf = io.StringIO()
    write_pattern(2, np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64), buf)
    assert buf.getvalue() == "%%MatrixMarket matrix coordinate pattern general\n2 2 0\n"


MALFORMED = [  # (n, indptr, rowind)
    (2, [0, 1], [0]),
    (2, [1, 1, 2], [0, 1]),
    (2, [0, 2, 1], [0, 1]),
    (2, [0, 1, 3], [0, 1]),
    (2, [0, 1, 2], [-1, 0]),
    (2, [0, 1, 2], [0, 5]),
    (3, [0, 1, 3, 3], [0, 2, 2]),
    (2, [0, 2, 2], [1, 0]),
]


@pytest.mark.parametrize("n, indptr, rowind", MALFORMED)
def test_pattern_writer_rejects_what_sparse_matrix_rejects(n, indptr, rowind):
    indptr, rowind = np.array(indptr), np.array(rowind)
    with pytest.raises(ValueError) as built:
        SparseMatrix(n=n, indptr=indptr, rowind=rowind, values=np.ones(len(rowind)))
    buf = io.StringIO()
    with pytest.raises(ValueError) as written:
        write_pattern(n, indptr, rowind, buf)
    assert str(written.value) == str(built.value)
    assert buf.getvalue() == ""

