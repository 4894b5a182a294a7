"""Compressed-column sparse storage, LU factorization, and solves.

Small systems (n <= 64) take a dense elimination path; larger ones go
through SuperLU.  The sparse path first equilibrates rows, dividing each
row by its largest magnitude, then orders by minimum degree on A+A^T
(``MMD_AT_PLUS_A`` in ``SymmetricMode``) and keeps SuperLU's partial-pivoting
threshold of 1.0.  On the grid Jacobians every row's largest entry is its
diagonal, so after equilibration each pivot stays on the diagonal and the
symmetric ordering survives factorization; unscaled, rows of very
different magnitude push pivots off the diagonal and multiply the fill.
Both paths call a pivot singular only when it is exactly zero, and then
retry once with a tiny eps*I added.  Either way the external contract is
the same: factorize once, then solve any number of right-hand sides
against the frozen factors.

A Factorization owns copies of what it needs; callers may reassemble the
originating matrix freely afterwards.

``check_structure`` owns the CSC checks and ``entry_columns`` the column of
each stored entry; every reader of a structure in the library calls them.
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
# bound once: the attribute lookups cost as much as a small solve's checks
_DGETRS = scipy.linalg.lapack.dgetrs


def entry_columns(indptr: np.ndarray) -> np.ndarray:
    """Each stored entry's 0-based column, from a nondecreasing CSC ``indptr``."""
    return np.arange(len(indptr) - 1).repeat(indptr[1:] - indptr[:-1])


def check_structure(n: int, indptr: np.ndarray, rowind: np.ndarray) -> None:
    """ValueError unless ``indptr`` and ``rowind`` are an n x n CSC structure
    as SparseMatrix describes it, so that no entry is stored twice."""
    if len(indptr) != n + 1:
        raise ValueError("indptr must have n+1 entries")
    if indptr[0] != 0:
        raise ValueError("indptr must start at 0")
    if np.count_nonzero(indptr[1:] < indptr[:-1]):
        raise ValueError("indptr must be nondecreasing")
    if indptr[-1] != len(rowind):
        raise ValueError("nnz mismatch between indptr and rowind")
    cols = entry_columns(indptr)
    bad = ((rowind < 0) | (rowind >= n)).nonzero()[0]
    if len(bad):
        raise ValueError(f"row index out of range in column {cols[bad[0]] + 1}")
    # neighbours in one column must ascend; a new column may start lower
    bad = ((rowind[1:] <= rowind[:-1]) & (cols[1:] == cols[:-1])).nonzero()[0]
    if len(bad):
        raise ValueError(f"row indices not strictly ascending in column {cols[bad[0]] + 1}")


@dataclass
class SparseMatrix:
    """Square compressed-column matrix.

    indptr has n+1 nondecreasing entries from 0 to len(rowind); rowind holds
    0-based row indices, strictly ascending within each column.
    ``check_structure`` checks that once, on construction, and
    ``entry_columns`` maps each stored entry to its column.
    """

    n: int
    indptr: np.ndarray
    rowind: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.rowind = np.asarray(self.rowind, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        check_structure(self.n, self.indptr, self.rowind)
        if len(self.values) != len(self.rowind):
            raise ValueError("nnz mismatch between rowind and values")

    def to_dense(self) -> np.ndarray:
        # one scatter is exact: the structure stores no entry twice
        a = np.zeros((self.n, self.n))
        a[self.rowind, entry_columns(self.indptr)] = self.values
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        csc = scipy.sparse.csc_matrix((self.values, self.rowind, self.indptr), shape=(self.n, self.n))
        return csc @ np.asarray(x, dtype=float)


@dataclass(frozen=True)
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
    lus: int = 1   # the LUs factorize ran: 2 after its eps*I retry


def factorize(a: SparseMatrix, perturb: bool = False) -> Factorization:
    """PA = LU with partial pivoting.

    For n > 64, SuperLU factorizes D_r A, where D_r divides each row by its
    largest magnitude (row equilibration), with the minimum-degree ordering
    of A+A^T (``MMD_AT_PLUS_A``, ``SymmetricMode``) and the default
    diagonal pivot threshold of 1.0; ``solve`` applies D_r to the
    right-hand side, so x solves A x = b.

    Both paths share one singularity rule: a pivot is singular only when it
    is exactly zero (LAPACK getrf's ``info > 0``, or SuperLU's "singular"
    error).  Then the matrix being factored (A, or D_r A) is factored once
    more with eps*I added, eps = 1e-12*max(max|M|, 1).  The retry exists for
    algebraically degenerate but consistently-posed systems (pure-Neumann
    potential blocks whose Newton right-hand side is zero); a Factorization
    built that way is flagged ``perturbed`` and counts ``lus`` = 2.
    SingularMatrix is raised only when the retry hits an exactly zero pivot
    too.  Given ``perturb``, eps*I is added from the first try, so a matrix
    known to need it is factored once, with ``lus`` = 1.
    """
    dense = a.n <= _DENSE_MAX
    if dense:
        m, r = a.to_dense(), None
    else:
        # r_i = 1/max_j |a_ij|, or 1 for a row with no nonzero entry; a row
        # whose largest entry is subnormal is scaled by 1/tiny, since its
        # exact reciprocal overflows
        rmax = np.zeros(a.n)
        np.maximum.at(rmax, a.rowind, np.abs(a.values))
        rmax[rmax == 0.0] = 1.0
        r = 1.0 / np.maximum(rmax, np.finfo(float).tiny)
        m = scipy.sparse.csc_matrix((a.values * r[a.rowind], a.rowind, a.indptr), shape=(a.n, a.n))
    for lus, perturbed in enumerate((True,) if perturb else (False, True), 1):
        if perturbed:
            eye = np.eye(a.n) if dense else scipy.sparse.identity(a.n, format="csc")
            m = m + 1e-12 * max(abs(m).max(), 1.0) * eye
        if dense:
            # LAPACK getrf, as lu_factor calls it, without its warning on an
            # exactly zero pivot; info > 0 is that pivot's 1-based column
            lu, piv, column = scipy.linalg.lapack.dgetrf(m)
            if column == 0:
                return Factorization(n=a.n, _dense=(lu, piv), perturbed=perturbed, lus=lus)
            detail = ""
        else:
            try:
                return Factorization(n=a.n, _splu=_superlu(m), perturbed=perturbed, _row_scale=r, lus=lus)
            except RuntimeError as err:
                if "singular" not in str(err).lower():
                    raise
                column, detail = -1, str(err)
    raise SingularMatrix(column=column, detail=detail)


def _superlu(csc: scipy.sparse.csc_matrix):
    return scipy.sparse.linalg.splu(csc, permc_spec="MMD_AT_PLUS_A",
                                    options=dict(SymmetricMode=True))


def solve(f: Factorization, b: np.ndarray) -> np.ndarray:
    """x = A^-1 b for the A that was factorized."""
    if type(b) is not np.ndarray or b.dtype != float:
        b = np.asarray(b, dtype=float)
    if b.shape != (f.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({f.n},)")
    if f._dense is not None:
        # LAPACK getrs, as lu_solve calls it, without lu_solve's per-call
        # input checks: the shape is checked above and the factors are ours
        x, _ = _DGETRS(*f._dense, b)
        return x
    return f._splu.solve(b * f._row_scale)


def write_pattern(n: int, indptr: np.ndarray, rowind: np.ndarray, fh: TextIO) -> None:
    """The n x n CSC structure as a Matrix Market coordinate pattern, one
    1-based ``row column`` line per entry in CSC order, once it passes
    ``check_structure``."""
    check_structure(n, indptr, rowind)
    entries = np.column_stack((rowind + 1, entry_columns(indptr) + 1))
    fh.write(f"%%MatrixMarket matrix coordinate pattern general\n{n} {n} {len(rowind)}\n")
    fh.write("%d %d\n" * len(rowind) % tuple(entries.ravel().tolist()))
