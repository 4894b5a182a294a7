"""Sparsity detection and analytic sparse Jacobian assembly.

Each residual row's support is read straight off its expression tree, and
the Jacobian entry for every (row, column) on that support is the exact
symbolic partial derivative.  Entries whose derivative folds to zero keep
their slot: the pattern is structural, so column pointers and row indices
stay bit-identical across reassembly and factorization symbolics can be
reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import expr as ex
from .codegen import ParamLayout, compile_exprs
from .errors import EmptyRow, NonFiniteValue
from .linalg import SparseMatrix
from .system import MethodResidual


@dataclass(frozen=True)
class SparsityPattern:
    """Per-row ascending column index lists (1-based), one list per residual row."""

    n: int
    rows: Tuple[Tuple[int, ...], ...]

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def support(self) -> List[Tuple[int, int]]:
        """All (row, col) pairs, 1-based, row-major."""
        return [(i + 1, k) for i, cols in enumerate(self.rows) for k in cols]


@dataclass(frozen=True)
class SymbolicJacobian:
    """Analytic entries on the pattern support: (row, col) -> Expr, 1-based."""

    pattern: SparsityPattern
    entries: Dict[Tuple[int, int], ex.Expr]


def detect_pattern(res: MethodResidual) -> SparsityPattern:
    """rows[i] = free_unknowns(residual row i).  Raises EmptyRow for a row
    that references no unknown (structurally singular system)."""
    rows = []
    for i, r in enumerate(res.rows, start=1):
        cols = ex.free_unknowns(r)
        if not cols:
            raise EmptyRow(i)
        rows.append(tuple(cols))
    return SparsityPattern(n=res.n, rows=tuple(rows))


def differentiate(res: MethodResidual, pat: SparsityPattern) -> SymbolicJacobian:
    """Exact partials on the support.  Structurally-zero derivatives are
    kept in their slots."""
    entries = {}
    for i, cols in enumerate(pat.rows, start=1):
        row = res.rows[i - 1]
        for k in cols:
            entries[(i, k)] = ex.diff(row, k)
    return SymbolicJacobian(pattern=pat, entries=entries)


def _csc_order(pat: SparsityPattern):
    """CSC layout arrays (0-based) plus the (row, col) entry order."""
    support = sorted(((k - 1, i - 1) for i, cols in enumerate(pat.rows, start=1) for k in cols))
    n = pat.n
    indptr = np.zeros(n + 1, dtype=np.int64)
    rowind = np.empty(len(support), dtype=np.int64)
    for idx, (col, row) in enumerate(support):
        indptr[col + 1] += 1
        rowind[idx] = row
    np.cumsum(indptr, out=indptr)
    order = [(row + 1, col + 1) for col, row in support]
    return indptr, rowind, order


class JacobianAssembler:
    """Compiled numeric assembly of a SymbolicJacobian into CSC values.

    The structure arrays are built once; ``assemble`` only refreshes the
    value vector, so re-assembly at a new (uu, h) leaves column pointers and
    row indices bit-identical.
    """

    def __init__(self, jac: SymbolicJacobian, layout: ParamLayout):
        self.jacobian = jac
        self.layout = layout
        self.indptr, self.rowind, self._order = _csc_order(jac.pattern)
        exprs = [jac.entries[rc] for rc in self._order]
        self._fn = compile_exprs(exprs, layout, tag="jacobian")
        self.n = jac.pattern.n
        self.nnz = len(self._order)

    def assemble(self, uu: np.ndarray, b: np.ndarray, h: float, p: np.ndarray) -> SparseMatrix:
        values = np.empty(self.nnz)
        try:
            self._fn(uu, b, h, p, values)
        except (ZeroDivisionError, OverflowError, ValueError):
            raise NonFiniteValue("Jacobian entry evaluation left the domain")
        finite = np.isfinite(values)
        if not finite.all():
            row, col = self._order[int(np.argmin(finite))]
            raise NonFiniteValue(f"non-finite Jacobian entry at row {row}, col {col}")
        return SparseMatrix(n=self.n, indptr=self.indptr, rowind=self.rowind, values=values)

