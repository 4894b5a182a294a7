"""Building library matrices from coordinates or dense arrays, for tests only."""

import numpy as np

from sparsedae.linalg import SparseMatrix


def from_coo(n: int, rows, cols, values) -> SparseMatrix:
    """Build from 0-based coordinate triples (duplicates not allowed)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    order = np.lexsort((rows, cols))
    rows, cols, values = rows[order], cols[order], values[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, cols + 1, 1)
    np.cumsum(indptr, out=indptr)
    return SparseMatrix(n=n, indptr=indptr, rowind=rows, values=values)


def from_dense(a) -> SparseMatrix:
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    return from_coo(a.shape[0], rows, cols, a[rows, cols])
