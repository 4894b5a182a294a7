"""Sparsity detection and analytic sparse Jacobian assembly.

The method residual is its shape groups (``system.build_residual``), which
number the rows 0..n-1 once each, and everything here works per shape, not
per row.  A row's support is the set of unknowns its slots name.
Derivatives are taken once per (shape, unknown slot), on the shape's first
row: ``diff`` and the smart constructors depend only on tree structure,
constants and which leaves are equal, all of which the shape records, so
the derivative of every other row of the shape is the same expression over
that row's leaves.

``detect_pattern`` builds the sparse structure once, as index arrays: one
``np.lexsort`` of the (row, column) entries of every (shape, unknown slot)
block gives the CSC ``indptr`` and ``rowind`` and each block's CSC
positions.  The Jacobian code instantiates each derivative through the
shape's index table and writes it at those positions, and
``JacobianAssembler`` validates the one matrix it refills.

Entries whose derivative folds to zero keep their slot: the pattern is
structural, so column pointers and row indices stay bit-identical across
reassembly and factorization symbolics can be reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from . import expr as ex
from .codegen import ShapeGroup, compile_groups, derived_groups
from .errors import EmptyRow, NonFiniteResidual
from .linalg import SparseMatrix, entry_columns


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """The Jacobian's support in CSC form, read off the residual's shape groups.

    ``indptr`` and ``rowind`` (0-based, ascending within each column) are
    the structure of every matrix assembled on this pattern.  ``blocks[j] =
    (group, k, positions)``: the entry of member ``r`` of ``group`` in the
    column named by its slot-``k`` unknown sits at CSC position
    ``positions[r]``."""

    n: int
    indptr: np.ndarray
    rowind: np.ndarray
    blocks: Tuple[Tuple[ShapeGroup, int, np.ndarray], ...]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-row ascending column indices (1-based)."""
        cols = entry_columns(self.indptr) + 1
        cols = cols[np.lexsort((cols, self.rowind))].tolist()
        ends = np.cumsum(np.bincount(self.rowind, minlength=self.n)).tolist()
        return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))


def detect_pattern(groups: Sequence[ShapeGroup]) -> SparsityPattern:
    """The support of row i is free_unknowns(residual row i), read off the
    residual's shape groups, which number the n rows 0..n-1 once each, and
    put in CSC order with one lexsort.  Raises EmptyRow for a row that
    references no unknown (structurally singular system)."""
    n = sum(len(g.rows) for g in groups)
    slots = [(g, k) for g in groups for k, name in enumerate(g.names) if name == "u"]
    if not slots:
        raise EmptyRow(1)
    # entries block after block, one block per (shape, unknown slot)
    rows = np.concatenate([g.rows for g, _ in slots])
    cols = np.concatenate([g.index[:, k] for g, k in slots])
    counts = np.bincount(rows, minlength=n)
    if np.count_nonzero(counts) < n:
        raise EmptyRow(int(counts.argmin()) + 1)
    order = np.lexsort((rows, cols))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    blocks, end = [], 0
    for g, k in slots:
        blocks.append((g, k, position[end:end + len(g.rows)]))
        end += len(g.rows)
    return SparsityPattern(n=n, indptr=indptr, rowind=rows[order], blocks=tuple(blocks))


def differentiate(pat: SparsityPattern) -> Tuple[Tuple[ShapeGroup, ex.Expr, np.ndarray], ...]:
    """Exact partials on the support, one ``diff`` per (shape, unknown
    slot), as blocks ``(group, d, positions)``, one per block of ``pat``:
    ``d`` is the derivative of ``group.expr`` with respect to that block's
    unknown, and for member ``r`` of the group it gives CSC entry
    ``positions[r]`` over that member's leaves.  Structurally-zero
    derivatives are kept in their slots."""
    return tuple((g, ex.diff(g.expr, int(g.index[0, k]) + 1), pos) for g, k, pos in pat.blocks)


class JacobianAssembler:
    """Compiled numeric assembly of ``differentiate``'s blocks into CSC
    values on the pattern they were taken on.

    The matrix is built and validated once, on the pattern's structure;
    ``assemble`` refills its values in place and raises NonFiniteResidual
    on any non-finite entry, as ``CompiledResidual.evaluate`` does.
    """

    def __init__(self, pat: SparsityPattern, blocks: Iterable[Tuple[ShapeGroup, ex.Expr, np.ndarray]],
                 layout: Dict[str, int]):
        self.matrix = SparseMatrix(n=pat.n, indptr=pat.indptr, rowind=pat.rowind,
                                   values=np.zeros(pat.nnz))
        derived = derived_groups(((g.names, g.index, d, pos) for g, d, pos in blocks), layout)
        self._fn = compile_groups(derived, pat.nnz, tag="jacobian")

    def assemble(self, uu: np.ndarray, b: np.ndarray, h: float, p: np.ndarray) -> SparseMatrix:
        """Refill the one matrix this assembler owns with the Jacobian at
        (uu, b, h, p) and return it; the previous values are overwritten, so
        a caller that keeps them must copy (``factorize`` does)."""
        m = self.matrix
        self._fn(uu, b, h, p, m.values)
        finite = np.isfinite(m.values)
        if not finite.all():
            j = int(np.argmin(finite))
            col = int(np.searchsorted(m.indptr, j, side="right"))
            raise NonFiniteResidual(f"non-finite Jacobian entry at row {m.rowind[j] + 1}, col {col}")
        return m
