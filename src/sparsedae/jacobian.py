"""Sparsity detection and analytic sparse Jacobian assembly.

The residual rows are grouped by shape once (``codegen.group_shapes``), and
everything here works per shape, not per row.  A row's support is the set of
unknowns its slots name.  Derivatives are taken once per (shape, unknown
slot), on the shape's first row: ``diff`` and the smart constructors depend
only on tree structure, constants and which leaves are equal, all of which
the shape records, so the derivative of every other row of the shape is the
same expression over that row's leaves.  The Jacobian code instantiates
each derivative through the shape's index matrix, and one ``np.lexsort``
puts the entries in CSC order.

Entries whose derivative folds to zero keep their slot: the pattern is
structural, so column pointers and row indices stay bit-identical across
reassembly and factorization symbolics can be reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .codegen import ParamLayout, ShapeGroup, compile_groups, derived_groups, group_shapes
from .errors import EmptyRow, NonFiniteValue
from .linalg import SparseMatrix
from .system import MethodResidual


@dataclass(frozen=True)
class SparsityPattern:
    """Per-row ascending column index lists (1-based), one list per residual
    row, plus the residual's shape groups they were read from."""

    n: int
    rows: Tuple[Tuple[int, ...], ...]
    shapes: Tuple[ShapeGroup, ...] = field(default=(), compare=False, repr=False)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def support(self) -> List[Tuple[int, int]]:
        """All (row, col) pairs, 1-based, row-major."""
        return [(i + 1, k) for i, cols in enumerate(self.rows) for k in cols]


@dataclass(frozen=True)
class SymbolicJacobian:
    """Analytic entries on the pattern support, one per (shape, unknown slot).

    ``blocks[j] = (group, k, d)``: ``d`` is the derivative of ``group.expr``
    with respect to its slot-``k`` unknown, and for member ``r`` of the group
    it gives entry (``group.rows[r]``, ``group.index[r][k]``), 0-based, over
    that member's leaves."""

    pattern: SparsityPattern
    blocks: Tuple[Tuple[ShapeGroup, int, ex.Expr], ...]


def param_layout(res: MethodResidual) -> ParamLayout:
    """The parameter slots of ``res``: the system's parameters, sorted."""
    return ParamLayout(sorted(res.system.params))


def detect_pattern(res: MethodResidual,
                   shapes: Optional[Sequence[ShapeGroup]] = None) -> SparsityPattern:
    """rows[i] = free_unknowns(residual row i), read off the shape groups
    (``shapes`` when given, else grouped here).  Raises EmptyRow for a row
    that references no unknown (structurally singular system)."""
    if shapes is None:
        shapes = group_shapes(res.rows, param_layout(res))
    rows = [()] * res.n
    for g in shapes:
        u = [k for k, name in enumerate(g.names) if name == "u"]
        for i, idx in zip(g.rows, g.index):
            rows[i] = tuple(sorted([idx[k] + 1 for k in u]))
    if () in rows:
        raise EmptyRow(rows.index(()) + 1)
    return SparsityPattern(n=res.n, rows=tuple(rows), shapes=tuple(shapes))


def differentiate(res: MethodResidual, pat: SparsityPattern) -> SymbolicJacobian:
    """Exact partials on the support, one ``diff`` per (shape, unknown
    slot).  Structurally-zero derivatives are kept in their slots."""
    shapes = pat.shapes or group_shapes(res.rows, param_layout(res))
    blocks = []
    for g in shapes:
        for k, name in enumerate(g.names):
            if name == "u":
                blocks.append((g, k, ex.diff(g.expr, g.index[0][k] + 1)))
    return SymbolicJacobian(pattern=pat, blocks=tuple(blocks))


class JacobianAssembler:
    """Compiled numeric assembly of a SymbolicJacobian into CSC values.

    The structure arrays are built once; ``assemble`` only refreshes the
    value vector, so re-assembly at a new (uu, h) leaves column pointers and
    row indices bit-identical.
    """

    def __init__(self, jac: SymbolicJacobian, layout: ParamLayout):
        self.jacobian = jac
        self.layout = layout
        self.n = n = jac.pattern.n
        # entries of all blocks, block after block; entry j goes to CSC slot position[j]
        rows = np.array([i for g, _, _ in jac.blocks for i in g.rows], dtype=np.int64)
        cols = np.array([idx[k] for g, k, _ in jac.blocks for idx in g.index], dtype=np.int64)
        order = np.lexsort((rows, cols))
        self.nnz = len(order)
        self.rowind = rows[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])
        position = np.empty(self.nnz, dtype=np.int64)
        position[order] = np.arange(self.nnz)
        position = position.tolist()
        blocks, end = [], 0
        for g, _, d in jac.blocks:
            blocks.append((g, d, position[end:end + len(g.rows)]))
            end += len(g.rows)
        self._fn = compile_groups(derived_groups(blocks, layout), self.nnz, layout, tag="jacobian")

    def assemble(self, uu: np.ndarray, b: np.ndarray, h: float, p: np.ndarray) -> SparseMatrix:
        values = np.empty(self.nnz)
        try:
            self._fn(uu, b, h, p, values)
        except (ZeroDivisionError, OverflowError, ValueError):
            raise NonFiniteValue("Jacobian entry evaluation left the domain")
        finite = np.isfinite(values)
        if not finite.all():
            j = int(np.argmin(finite))
            col = int(np.searchsorted(self.indptr, j, side="right"))
            raise NonFiniteValue(f"non-finite Jacobian entry at row {self.rowind[j] + 1}, col {col}")
        return SparseMatrix(n=self.n, indptr=self.indptr, rowind=self.rowind, values=values)
