"""Index-1 DAE system model and per-method residual lowering.

A system is a list of ODE right-hand sides f_i and algebraic residuals g_i
over a single ordered state vector (ODE variables first, then algebraic).
Only autonomous systems are supported; time-dependent systems must add the
dummy ODE  y' = 1  themselves.

For a chosen single-step method and step size h the system is lowered into
residual equations in the increment unknowns uu (state_new = state_old +
uu[:N_t]; RAD's interior-stage block is discarded).  ``build_residual``
returns them as plain shape groups, which ``jacobian`` and ``codegen`` read
as they are: the row count is the groups' own.  The base state and the
step size enter those residuals as the leaves ``expr.Base(k)`` and
``expr.H``, so the symbolic structure is built once and only numeric
bindings change from step to step.  The same residual with h = 0 performs
consistent initialization of the algebraic components.

The f's and g's are grouped by shape once, when the system is constructed
and validated.  Hand-written rows, given as tuples (problem files, the small
built-ins, tests), are walked by ``codegen.group_shapes``.  The grid
built-ins give ``StencilRows`` instead: one template row per stencil class
over index tables, so a row is built only when it is read.  Both kinds
become blocks of one ``codegen.derived_groups`` call, which merges them into
shape groups.  Lowering runs once per source shape, not once per row.  Each
method maps a leaf of the source equation to a fixed expression in that
leaf's unknown and base-state slot, and adds the row's own unknown to an ODE
row, so a lowered row's shape follows from its source shape, the method, and
which slot, if any, names the row's own unknown.  Only the first row of each
such part is lowered; ``codegen.derived_groups`` instantiates it for the
others by picking columns of the source table, the same path that
instantiates the Jacobian's derivatives.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from . import expr as ex
from .codegen import ShapeGroup, derived_groups, group_shapes
from .errors import UnsupportedSystem


class MethodKind(enum.Enum):
    """The four single-step implicit methods.

    order: local accuracy order used by the error controller (1, 2, 2, 3).
    RAD solves for the step endpoint and an interior stage, so its residual
    has twice the system's rows.  All four are A-stable; EB and RAD are
    additionally L-stable.
    """

    EB = "eb"
    CN = "cn"
    IMPTRAP = "imptrap"
    RAD = "rad"

    @property
    def order(self) -> int:
        return _ORDER[self]


_ORDER = {MethodKind.EB: 1, MethodKind.CN: 2, MethodKind.IMPTRAP: 2, MethodKind.RAD: 3}


def _instantiate(e: ex.Expr, index: np.ndarray, r: int) -> ex.Expr:
    """``e``, written over the 0-based unknowns ``index[0]``, rewritten over
    member ``r``'s unknowns ``index[r]``."""
    if r == 0:
        return e
    return ex.substitute(e, {j + 1: ex.U(k + 1) for j, k in zip(index[0].tolist(), index[r].tolist())})


class Stencil(NamedTuple):
    """One stencil class: a template row and the index table it is mapped over.

    ``expr`` is the first member's row, written over the 0-based unknowns
    ``index[0]``; member ``r`` is the same row over ``index[r]``, at position
    ``rows[r]`` of its ``StencilRows``.  Every column names an unknown."""

    expr: ex.Expr
    rows: np.ndarray
    index: np.ndarray


class StencilRows(Sequence):
    """A read-only sequence of rows held as stencil templates.

    The stencils' ``rows`` must ascend within each stencil and together
    number the rows 0..n-1.  Each member must have coincident columns
    exactly where its stencil's first member has them, since a template's
    leaves are mapped to columns on the first member.  ``len`` is free, and
    a row is built, from its stencil's template, only when it is read."""

    def __init__(self, stencils: Sequence[Stencil]):
        self.stencils = tuple(stencils)
        for s in self.stencils:
            if len(s.rows) == 0 or len(s.rows) != len(s.index) or (np.diff(s.rows) <= 0).any():
                raise ValueError("a stencil's rows must ascend, one per row of its index table")
            same = s.index[:, :, None] == s.index[:, None, :]
            bad = (same != same[0]).any(axis=(1, 2))
            if bad.any():
                raise ValueError(f"row {s.rows[bad.argmax()]} has coincident unknowns unlike "
                                 f"its stencil's first row {s.rows[0]}")
        none = [np.zeros(0, dtype=np.int64)]
        sizes = [len(s.rows) for s in self.stencils]
        rows = np.concatenate(none + [s.rows for s in self.stencils])
        if not np.array_equal(np.sort(rows), np.arange(len(rows))):
            raise ValueError("stencil rows must number the rows 0..n-1 once each")
        # the (stencil, member) of each row
        self._where = np.empty((len(rows), 2), dtype=np.int64)
        self._where[rows, 0] = np.repeat(np.arange(len(sizes)), sizes)
        self._where[rows, 1] = np.concatenate(none + [np.arange(k) for k in sizes])

    def __len__(self) -> int:
        return len(self._where)

    def __getitem__(self, i) -> ex.Expr:
        block, member = self._where[operator.index(i)].tolist()
        s = self.stencils[block]
        return _instantiate(s.expr, s.index, member)


def _group(ode: Sequence[ex.Expr], alg: Sequence[ex.Expr], layout: Dict[str, int]) -> List[ShapeGroup]:
    """The shape groups of ``ode + alg``: stencil rows from their templates and
    the other rows walked in one ``group_shapes`` call, merged by ``derived_groups``."""
    blocks, walked = [], ()
    for rows, offset in ((ode, 0), (alg, len(ode))):
        if isinstance(rows, StencilRows):
            blocks += [(("u",) * s.index.shape[1], s.index, s.expr, s.rows + offset) for s in rows.stencils]
        else:
            walked += tuple(rows)
    if walked:
        # the walked rows are one run: both parts, or the one not given as stencils
        start = len(ode) if isinstance(ode, StencilRows) else 0
        blocks += [(g.names, g.index, g.expr, g.rows + start) for g in group_shapes(walked, layout)]
    return derived_groups(blocks, layout)


@dataclass(frozen=True)
class DaeSystem:
    """Ordered ODE + algebraic residual equations over one state vector.

    ode_rhs[i] is f_i, alg_residual[j] is g_j (equation g_j = 0), each
    given as a tuple of rows or as ``StencilRows``.  Both may
    reference any state index 1..N_t and any declared parameter name; the
    base state and the step size are not parameters but the lowering's own
    leaves (``build_residual``).  y0z0 holds initial values for ODE
    variables and initial *guesses* for algebraic ones.  Construction
    numbers the parameters in sorted order, into the dict ``layout`` from
    name to slot, groups the equations by shape once, into ``groups`` over
    those slots, and validates their parameters (by the layout lookup) and
    unknown indices from that walk; every method residual reads them.
    """

    ode_rhs: Sequence[ex.Expr]
    alg_residual: Sequence[ex.Expr]
    var_names: Tuple[str, ...]
    y0z0: Tuple[float, ...]
    params: Dict[str, float] = field(default_factory=dict)
    observables: Dict[str, Tuple[Tuple[int, float], ...]] = field(default_factory=dict)
    layout: Dict[str, int] = field(init=False, repr=False, compare=False)
    groups: Tuple[ShapeGroup, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_t = self.n_total
        if n_t < 1:
            raise ValueError("system must have at least one variable")
        if len(self.var_names) != n_t:
            raise ValueError("var_names length must equal N_ode + N_ae")
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("variable names must be unique")
        if len(self.y0z0) != n_t:
            raise ValueError("y0z0 length must equal N_ode + N_ae")
        layout = {name: k for k, name in enumerate(sorted(self.params))}
        try:
            groups = tuple(_group(self.ode_rhs, self.alg_residual, layout))
        except KeyError as e:
            raise ValueError(f"undeclared parameter {e.args[0]!r}") from None
        index = np.concatenate([g.index.ravel() for g in groups])
        if index.size and (index.min() < 0 or index.max() >= n_t):
            bad = index[(index < 0) | (index >= n_t)]
            raise ValueError(f"equation references state index {bad[0] + 1} outside 1..{n_t}")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "groups", groups)

    @property
    def n_ode(self) -> int:
        return len(self.ode_rhs)

    @property
    def n_ae(self) -> int:
        return len(self.alg_residual)

    @property
    def n_total(self) -> int:
        return self.n_ode + self.n_ae

    def initial_state(self) -> np.ndarray:
        return np.array(self.y0z0, dtype=float)


def _lower(kind: MethodKind, e: ex.Expr, i: int, ode: bool, leaves: List[int],
           n_t: int) -> List[ex.Expr]:
    """The method's rows for equation ``e`` of row ``i`` (1-based) over the
    unknowns ``leaves``: f_i's when ``ode``, else g's.  RAD's second row goes
    in the interior-stage block."""
    h = ex.H

    def at(state):
        # e with each state_j -> state(j) + base_j
        return ex.substitute(e, {j: ex.add(state(j), ex.Base(j)) for j in leaves})

    def interior(j):
        return ex.U(j + n_t)

    if kind is MethodKind.RAD:
        if not ode:
            return [at(ex.U), at(interior)]
        return [ex.mul(2.5, ex.U(i)) - ex.mul(4.5, ex.U(i + n_t)) - h * at(ex.U),
                ex.mul(0.5, ex.U(i)) + ex.mul(1.5, ex.U(i + n_t)) - h * at(interior)]
    if not ode:
        return [at(ex.U)]
    if kind is MethodKind.EB:
        return [ex.U(i) - h * at(ex.U)]
    if kind is MethodKind.CN:
        # the explicit half f_i(Y0) reads no unknown, so its derivatives fold to zero
        return [ex.U(i) - ex.mul(0.5, h) * at(ex.U)
                - ex.mul(0.5, h) * ex.substitute(e, {j: ex.Base(j) for j in leaves})]
    # IMPTRAP: f at the midpoint, state_j -> uu_j/2 + base_j
    return [ex.U(i) - h * at(lambda j: ex.mul(0.5, ex.U(j)))]


def build_residual(sys: DaeSystem, kind: MethodKind) -> Tuple[ShapeGroup, ...]:
    """Lower (f, g) into the method's residual rows in uu, once per source
    shape, and return them as shape groups.

    The groups number the rows 0..n-1 once each, n = N_t, or 2*N_t for RAD
    (endpoint block, then interior-stage block), so n is the sum of their
    row counts.  Their text reads the system's ``DaeSystem.layout``
    parameter slots.  The step size is the leaf ``expr.H`` and entry k of
    the base state the leaf ``expr.Base(k)``, so the structure does not
    depend on their values, and a system parameter of any name stays a
    parameter.  CN's explicit half f_i(base state) sits inside its row, as
    an expression over the ``Base`` leaves alone, so every row reads only
    uu, the base state, h and the system parameters.

    Each of the system's shape groups of f's is split by which slot, if
    any, is the row's own unknown i.  Only the first member of each part is
    lowered, instantiated from its group's ``expr`` through the group's
    index table, so no source row is read; ``derived_groups`` instantiates
    the lowered rows for the others, as it does the Jacobian's derivatives.
    The lowering maps leaves to leaves, so each index table is widened with
    every column a lowered row can name: each leaf's unknown, base-state
    slot and interior-stage unknown, then the row's own unknown in both
    blocks.  The leaves come first, so a leaf that is also the row's own
    unknown reads its leaf column.  Each part goes to ``derived_groups`` as
    its rows of the widened table with the table's column names.  CN and
    IMPTRAP project every g at the step endpoint, so each g must name an
    algebraic unknown; that is read off the same index tables."""
    n_t, n_ode = sys.n_total, sys.n_ode
    blocks, blind = [], []
    for g in sys.groups:
        rows, index, width = g.rows, g.index, len(g.names)
        own = rows[:, None]
        names = g.names + ("b",) * width + ("u",) * (width + 2)
        table = np.concatenate([index, index, index + n_t, own, own + n_t], axis=1)
        c = int(rows.searchsorted(n_ode))      # members [:c] are f's, [c:] g's
        if c < len(rows) and kind in (MethodKind.CN, MethodKind.IMPTRAP):
            # 0-based unknowns below n_ode are ODE variables
            blind += rows[c:][index[c:].max(axis=1, initial=-1) < n_ode].tolist()
        # an f's part is its first column equal to its own unknown: the slot
        # of the leaf that names it, or else the own-unknown column; the g's
        # form one part, keyed -1
        slot = (table == own).argmax(axis=1)
        slot[c:] = -1
        for s in dict.fromkeys(slot.tolist()):
            members = slot == s
            part_rows, part_index = rows[members], table[members]
            source = _instantiate(g.expr, index, int(members.argmax()))
            leaves = [j + 1 for j in part_index[0, :width].tolist()]
            lowered = _lower(kind, source, int(part_rows[0]) + 1, s >= 0, leaves, n_t)
            blocks += [(names, part_index, e, part_rows + block * n_t)
                       for block, e in enumerate(lowered)]
    if blind:
        raise UnsupportedSystem(
            f"algebraic equation {min(blind) - n_ode + 1} references no algebraic variable; "
            f"{kind.value} cannot project it at the step endpoint"
        )
    return tuple(derived_groups(blocks, sys.layout))

