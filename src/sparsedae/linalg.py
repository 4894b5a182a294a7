"""Compressed-column sparse storage, LU factorization, and solves.

Small systems (n <= 64) take a dense elimination path; larger ones go
through SuperLU.  The sparse path first equilibrates rows, dividing each
row by its largest magnitude, then orders by minimum degree on A+A^T
(``MMD_AT_PLUS_A`` in ``SymmetricMode``) and keeps SuperLU's partial-pivoting
threshold of 1.0.  On the grid Jacobians every row's largest entry is its
diagonal, so after equilibration each pivot stays on the diagonal and the
symmetric ordering survives factorization; unscaled, rows of very
different magnitude push pivots off the diagonal and multiply the fill.
Either way the external contract is the same: factorize once, then solve
any number of right-hand sides against the frozen factors.

A Factorization owns copies of what it needs; callers may reassemble the
originating matrix freely afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TextIO, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import SingularMatrix

_DENSE_MAX = 64
_PIVOT_RTOL = 1e-14


@dataclass
class SparseMatrix:
    """Square compressed-column matrix.

    indptr has n+1 nondecreasing entries; rowind holds 0-based row indices,
    strictly ascending within each column.  (File formats such as Matrix
    Market use 1-based indices; conversion happens at the boundary.)
    """

    n: int
    indptr: np.ndarray
    rowind: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.rowind = np.asarray(self.rowind, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr must have n+1 entries")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        counts = self.indptr[1:] - self.indptr[:-1]
        if np.count_nonzero(counts < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indptr[-1] != len(self.rowind) or len(self.rowind) != len(self.values):
            raise ValueError("nnz mismatch between indptr, rowind, values")
        rows = self.rowind
        cols = np.arange(self.n).repeat(counts)
        bad = ((rows < 0) | (rows >= self.n)).nonzero()[0]
        if len(bad):
            raise ValueError(f"row index out of range in column {cols[bad[0]] + 1}")
        # neighbours in one column must ascend; a new column may start lower
        bad = ((rows[1:] <= rows[:-1]) & (cols[1:] == cols[:-1])).nonzero()[0]
        if len(bad):
            raise ValueError(f"row indices not strictly ascending in column {cols[bad[0]] + 1}")

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for j in range(self.n):
            sl = slice(self.indptr[j], self.indptr[j + 1])
            a[self.rowind[sl], j] = self.values[sl]
        return a

    def to_scipy(self) -> scipy.sparse.csc_matrix:
        return scipy.sparse.csc_matrix(
            (self.values, self.rowind, self.indptr), shape=(self.n, self.n)
        )

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.to_scipy() @ np.asarray(x, dtype=float)


@dataclass
class Factorization:
    """Frozen LU factors of one assembled matrix.

    Immutable after construction; concurrent solves against distinct
    right-hand sides are safe.
    """

    n: int
    _dense: Optional[Tuple[np.ndarray, np.ndarray]] = None
    _splu: Optional[object] = None
    perturbed: bool = False
    _row_scale: Optional[np.ndarray] = None


def factorize(a: SparseMatrix) -> Factorization:
    """PA = LU with partial pivoting.

    For n > 64, SuperLU factorizes D_r A, where D_r divides each row by its
    largest magnitude (row equilibration), with the minimum-degree ordering
    of A+A^T (``MMD_AT_PLUS_A``, ``SymmetricMode``) and the default
    diagonal pivot threshold of 1.0; ``solve`` applies D_r to the
    right-hand side, so x solves A x = b.

    Raises SingularMatrix when a pivot falls below 1e-14 times its column's
    magnitude (dense path) or when SuperLU reports exact singularity and a
    last-resort tiny diagonal perturbation also fails.  The perturbation,
    eps*I with eps = 1e-12*max(max|D_r A|, 1), is added to the equilibrated
    matrix.  It exists for algebraically degenerate but consistently-posed
    systems (pure-Neumann potential blocks whose Newton right-hand side is
    zero); a Factorization built that way is flagged ``perturbed``.
    """
    if a.n <= _DENSE_MAX:
        dense = a.to_dense()
        col_mag = np.abs(dense).max(axis=0)
        # LAPACK getrf, as lu_factor calls it, without its warning on an
        # exactly zero pivot: the pivot test below reports that one
        lu, piv, _ = scipy.linalg.lapack.dgetrf(dense)
        diag = np.abs(np.diag(lu))
        bad = np.where(diag < _PIVOT_RTOL * np.maximum(col_mag, 1e-300))[0]
        if len(bad):
            raise SingularMatrix(column=int(bad[0]) + 1)
        return Factorization(n=a.n, _dense=(lu, piv))

    # r_i = 1/max_j |a_ij|, or 1 for a row with no nonzero entry; a row
    # whose largest entry is subnormal is scaled by 1/tiny, since its exact
    # reciprocal overflows
    rmax = np.zeros(a.n)
    np.maximum.at(rmax, a.rowind, np.abs(a.values))
    rmax[rmax == 0.0] = 1.0
    r = 1.0 / np.maximum(rmax, np.finfo(float).tiny)
    values = a.values * r[a.rowind]
    csc = scipy.sparse.csc_matrix((values, a.rowind, a.indptr), shape=(a.n, a.n))
    try:
        lu = _superlu(csc)
        return Factorization(n=a.n, _splu=lu, _row_scale=r)
    except RuntimeError as err:
        if "singular" not in str(err).lower():
            raise
    # pivot-perturbation retry
    eps = 1e-12 * max(np.abs(values).max(), 1.0)
    perturbed = csc + scipy.sparse.identity(a.n, format="csc") * eps
    try:
        lu = _superlu(perturbed)
    except RuntimeError as err2:
        raise SingularMatrix(detail=str(err2))
    return Factorization(n=a.n, _splu=lu, perturbed=True, _row_scale=r)


def _superlu(csc: scipy.sparse.csc_matrix):
    return scipy.sparse.linalg.splu(csc, permc_spec="MMD_AT_PLUS_A",
                                    options=dict(SymmetricMode=True))


def solve(f: Factorization, b: np.ndarray) -> np.ndarray:
    """x = A^-1 b for the A that was factorized."""
    b = np.asarray(b, dtype=float)
    if b.shape != (f.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({f.n},)")
    if f._dense is not None:
        # LAPACK getrs, as lu_solve calls it, without lu_solve's per-call
        # input checks: the shape is checked above and the factors are ours
        x, _ = scipy.linalg.lapack.dgetrs(*f._dense, b)
        return x
    return f._splu.solve(b * f._row_scale)


# --- Matrix Market (coordinate, general, real) ---------------------------


def write_matrix_market(a: SparseMatrix, fh: TextIO, pattern_only: bool = False) -> None:
    kind = "pattern" if pattern_only else "real"
    fh.write(f"%%MatrixMarket matrix coordinate {kind} general\n")
    fh.write(f"{a.n} {a.n} {a.nnz}\n")
    for j in range(a.n):
        for idx in range(a.indptr[j], a.indptr[j + 1]):
            if pattern_only:
                fh.write(f"{a.rowind[idx] + 1} {j + 1}\n")
            else:
                fh.write(f"{a.rowind[idx] + 1} {j + 1} {a.values[idx]:.17g}\n")

