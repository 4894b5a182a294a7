"""Compilation of expression lists into fast numeric callables.

Tree-walking evaluation is fine for a handful of equations but far too slow
for the 10^4-row residuals coming out of 2-D discretizations.  Here each
expression list is compiled once per (system, method) into one Python
function.

Discretized PDE rows are a few stencil *shapes* repeated thousands of
times.  The shape of an expression is its generated source with every
unknown (``U`` -> ``u``) and base-state (``Base`` -> ``b``) leaf replaced by
a slot number.  Slots are numbered by first appearance, so the aliasing
pattern is part of the shape: ``u_i*u_i`` and ``u_i*u_j`` never share one.
``group_shapes`` walks each expression once and groups them by shape into
``ShapeGroup``s, which hold every member's leaf indices as one row of an
index table.  In the solve path only hand-written source equations are
walked, once per system, when ``system.DaeSystem`` is built;
``derived_groups`` takes plain ``(names, index, expression, rows)`` blocks,
each expression built from the first member of its index table, and
instantiates each for every member by picking columns of that table.  The
grid built-ins' stencil templates enter through ``derived_groups`` too, so
their rows are never walked.
Lowering and differentiation share it: the method residual is lowered once
per source shape and instantiated from the source table
(``system.build_residual``), so no lowered row is walked on its own, and
the Jacobian's derivatives are instantiated from the residual's groups.

Every row is generated from its group's one text (``_shape``), so a row's
value does not depend on how many rows share its shape.  A group of at
least ``_VECTOR_MIN_ROWS`` members becomes one numpy statement ``out[R] =
<text over u[I0], b[I1], ...>`` whose index arrays are built at compile
time, under ``np.errstate(all="ignore")``.  Smaller groups, and so every row
of a small system, are the text over each row's own leaves as scalar lines,
because a numpy statement's fixed cost exceeds a handful of scalar rows.
The function reads each ``u``/``b`` entry that its scalar lines use once, at
its top, into a local (``u_3 = u[3]``), and the lines use the locals: the
same numpy scalar, so the same values, without an index operation per
occurrence.  Scalar lines run under the caller's error state (``Stepper``
integrates under ``np.errstate(all="ignore")``).  Every operand but ``h``
and folded constants is a numpy value, so a domain error or an overflow
raises no exception but gives inf or nan, and callers detect it with
``isfinite`` on the output.

Generated functions share a single calling convention::

    fn(u, b, h, p, out)

where ``u`` is the unknown vector (0-based ndarray), ``b`` the base state
that the ``Base`` leaves read, ``h`` the step size (the ``H`` leaf), ``p``
the system's parameter values at the slots of its layout
(``DaeSystem.layout``, a dict from each name to its slot), and ``out`` the
output buffer.  Every ``Param`` is looked up in the layout, so an
undeclared name raises KeyError.

Beyond reading each entry once, no common-subexpression elimination is
attempted.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from . import expr as ex
from .errors import NonFiniteResidual, UnsupportedSystem

# Rows per shape from which one numpy statement beats scalar lines; measured
# break-even for a five-point-stencil shape is about 10 rows.
_VECTOR_MIN_ROWS = 10

_TOO_DEEP = "expression nested too deeply to compile"


def _shape(e: ex.Expr, layout: Dict[str, int], slots: Dict[tuple, int]) -> str:
    """Numpy source of ``e`` with each leaf ``u[i]``/``b[i]`` written as ``{k}``.

    ``slots`` maps each leaf (array name, 0-based index) to its slot number
    ``k`` and is filled in first-appearance order.  ``{k}`` is filled with
    the leaf for a scalar line or with an array gathered for the slot, and
    the same numpy functions run on either: ``np.exp``, ``np.log``,
    ``np.power``, and for ``piecewise`` a first-match chain of nested
    ``np.where`` that evaluates every branch."""
    # exact type tests: no node class is subclassed, and this walk is a
    # visible share of a small system's setup time
    t = type(e)
    if t is ex.U:
        return "{%d}" % slots.setdefault(("u", e.index - 1), len(slots))
    if t is ex.Const:
        return repr(e.value)
    if t is ex.Base:
        return "{%d}" % slots.setdefault(("b", e.index - 1), len(slots))
    if t is ex.StepSize:
        return "h"
    if t is ex.Param:
        return f"p[{layout[e.name]}]"
    if t is ex.Add:
        return "(" + " + ".join([_shape(a, layout, slots) for a in e.terms]) + ")"
    if t is ex.Mul:
        return "(" + " * ".join([_shape(a, layout, slots) for a in e.factors]) + ")"
    if t is ex.Div:
        return f"({_shape(e.num, layout, slots)} / {_shape(e.den, layout, slots)})"
    if t is ex.Pow:
        # a numpy scalar's ** is not the ufunc an array's runs, and can differ by an ulp
        return f"np.power({_shape(e.base, layout, slots)}, {e.exponent!r})"
    if t is ex.Neg:
        return f"(-{_shape(e.arg, layout, slots)})"
    if t is ex.ExpF:
        return "np.exp(" + _shape(e.arg, layout, slots) + ")"
    if t is ex.LnF:
        return "np.log(" + _shape(e.arg, layout, slots) + ")"
    if t is ex.Piecewise:
        # slots are numbered in branch order; the chain is built innermost first
        conds, values = [], []
        for b in e.branches:
            conds.append(f"{_shape(b.test, layout, slots)} {b.op} {b.threshold!r}")
            values.append(_shape(b.value, layout, slots))
        s = _shape(e.default, layout, slots)
        for cond, value in zip(reversed(conds), reversed(values)):
            s = f"np.where({cond}, {value}, {s})"
        return s
    raise TypeError(f"unhandled node {type(e).__name__}")


def shape(e: ex.Expr, layout: Dict[str, int]) -> Tuple[str, List[tuple]]:
    """The shape text of ``e`` (see ``_shape``) and its leaves (array name,
    0-based index) in slot order.  Raises UnsupportedSystem for a tree too
    deep to walk."""
    slots: Dict[tuple, int] = {}
    try:
        text = _shape(e, layout, slots)
    except RecursionError:
        raise UnsupportedSystem(_TOO_DEEP) from None
    return text, list(slots)


class ShapeGroup(NamedTuple):
    """Expressions that share one shape.

    ``text`` is the shape's source with slot ``k`` written as ``{k}`` (see
    ``_shape``), and ``expr`` is the first member.  ``names[k]`` is
    the array slot ``k`` reads (``u`` or ``b``), ``rows[r]`` is member
    ``r``'s output position and ``index[r, k]`` the 0-based array index slot
    ``k`` takes in member ``r``; both are ``int64`` arrays."""

    text: str
    expr: ex.Expr
    names: Tuple[str, ...]
    rows: np.ndarray
    index: np.ndarray


def group_shapes(exprs: Sequence[ex.Expr], layout: Dict[str, int]) -> List[ShapeGroup]:
    """Walk each expression once; groups in order of first appearance."""
    groups: Dict[str, tuple] = {}
    for i, e in enumerate(exprs):
        text, leaves = shape(e, layout)
        g = groups.get(text)
        if g is None:
            groups[text] = g = (e, tuple([name for name, _ in leaves]), [], [])
        g[2].append(i)
        g[3].append([j for _, j in leaves])
    return [ShapeGroup(text, e, names, np.array(rows, dtype=np.int64), np.array(index, dtype=np.int64))
            for text, (e, names, rows, index) in groups.items()]


def derived_groups(blocks: Iterable[Tuple[Tuple[str, ...], np.ndarray, ex.Expr, np.ndarray]],
                   layout: Dict[str, int]) -> List[ShapeGroup]:
    """Group expressions instantiated over the members of index tables.

    Each block ``(names, index, d, rows)`` holds an index table whose column
    ``k`` reads array ``names[k]``, as a ShapeGroup's does, and an
    expression ``d`` built from the leaves of its first member ``index[0]``;
    member ``r`` gets ``d`` with those leaves replaced by its own, at output
    position ``rows[r]``.  A leaf of ``d`` reads the first column that names
    it on the first member, so where two columns name the same leaf the
    earlier one wins.  That leaf-to-column map is built once for each run of
    consecutive blocks on the same ``(names, index)`` pair.

    Blocks with the same text merge.  Members are ordered by output position
    and groups by their first one, as ``group_shapes`` would order them if
    given every member's expression in output order.  A group's ``expr`` is
    that of its block with the lowest first row, so it belongs to the group's
    first member when each block's rows ascend."""
    groups: Dict[str, list] = {}
    last = None, None
    for names, index, d, rows in blocks:
        text, leaves = shape(d, layout)
        if names is not last[0] or index is not last[1]:
            # the column of each leaf, found on the first member
            last, first = (names, index), {}
            for k, key in enumerate(zip(names, index[0].tolist())):
                first.setdefault(key, k)
        table = index.take([first[leaf] for leaf in leaves], axis=1)
        g = groups.get(text)
        if g is None:
            groups[text] = [d, tuple([name for name, _ in leaves]), [rows], [table], rows[0]]
            continue
        if rows[0] < g[4]:
            g[0], g[4] = d, rows[0]
        g[2].append(rows)
        g[3].append(table)
    out = []
    for text, (e, names, pieces, tables, _) in groups.items():
        # one block needs no concatenation, and one member no sort
        rows, index = pieces[0], tables[0]
        if len(pieces) > 1:
            rows, index = np.concatenate(pieces), np.concatenate(tables)
        if len(rows) > 1:
            order = rows.argsort()
            rows, index = rows.take(order), index.take(order, axis=0)
        out.append(ShapeGroup(text, e, names, rows, index))
    return sorted(out, key=lambda g: g.rows[0])


def generated_source(groups: Sequence[ShapeGroup], n_out: int, tag: str = "residual") -> Tuple[str, dict]:
    """The source of ``_<tag>(u, b, h, p, out)`` filling ``out[:n_out]``, and
    the namespace it runs in.  Each group's text is emitted as one numpy
    statement or as scalar lines; the scalar lines read each ``u``/``b``
    entry once, into a local ``u_3 = u[3]`` at the top."""
    ns = {"np": np}
    scalar = [""] * n_out
    reads = set()
    vector: List[str] = []
    for g, group in enumerate(groups):
        if len(group.rows) < _VECTOR_MIN_ROWS:
            for i, idx in zip(group.rows.tolist(), group.index.tolist()):
                reads.update(zip(group.names, idx))
                scalar[i] = f"    out[{i}] = " + group.text.format(*map("{}_{}".format, group.names, idx))
            continue
        ns[f"_r{g}"] = group.rows
        for k, name in enumerate(group.names):
            ns[f"_i{g}_{k}"] = group.index[:, k].copy()
            vector.append(f"x{k} = {name}[_i{g}_{k}]")
        vector.append(f"out[_r{g}] = " + group.text.format(*(f"x{k}" for k in range(len(group.names)))))

    lines = [f"def _{tag}(u, b, h, p, out):"]
    lines += [f"    {name}_{j} = {name}[{j}]" for name, j in sorted(reads)]
    lines += [s for s in scalar if s]
    if vector:
        lines.append('    with np.errstate(all="ignore"):')
        lines += ["        " + s for s in vector]
    if len(lines) == 1:
        lines.append("    pass")
    return "\n".join(lines), ns


def compile_groups(groups: Sequence[ShapeGroup], n_out: int, tag: str = "residual"):
    """``generated_source`` compiled into the function ``fn(u, b, h, p, out)``."""
    source, ns = generated_source(groups, n_out, tag)
    try:
        code = compile(source, f"<generated {tag}>", "exec")
    except (SyntaxError, RecursionError):
        # the source is well formed by construction; what compile rejects
        # is nesting deeper than Python's parser allows (200 parentheses)
        raise UnsupportedSystem(_TOO_DEEP) from None
    exec(code, ns)
    return ns[f"_{tag}"]


class CompiledResidual:
    """A method residual's shape groups compiled into one function, plus its
    numeric bindings, ready for Newton.  The groups number the rows 0..n-1
    once each, so ``n``, the output length, is the sum of their row counts.

    ``set_base``/``set_h``/``set_params`` rebind values without touching the
    compiled structure.  ``evaluate`` raises NonFiniteResidual on any
    non-finite output, which is what an overflow or a domain error gives.
    It screens the output with its sum of squares, which is non-finite
    whenever an entry is, and runs the exact ``isfinite`` test only when
    the screen trips.  Finite entries above ~1e154 overflow the screen, which
    numpy reports as a RuntimeWarning outside ``np.errstate(over="ignore")``
    (the integrators ignore it) before the exact test clears them.
    """

    def __init__(self, groups: Sequence[ShapeGroup], layout: Dict[str, int]):
        self.n = n = sum(len(g.rows) for g in groups)
        self.layout = layout
        self._fn = compile_groups(groups, n)
        self.b = np.zeros(0)
        self.h = 0.0
        self.p = np.zeros(len(layout))
        self._out = np.empty(n)

    def set_base(self, base: np.ndarray) -> None:
        self.b = np.asarray(base, dtype=float)

    def set_h(self, h: float) -> None:
        self.h = float(h)

    def set_params(self, values: Dict[str, float]) -> None:
        for name, v in values.items():
            self.p[self.layout[name]] = v

    def evaluate(self, uu: np.ndarray) -> np.ndarray:
        out = self._out
        self._fn(uu, self.b, self.h, self.p, out)
        # squares cannot cancel, so any inf or nan trips the screen; np.isfinite clears an overflow
        if not math.isfinite(out.dot(out)) and not np.isfinite(out).all():
            raise NonFiniteResidual("residual evaluation produced non-finite values")
        return out
