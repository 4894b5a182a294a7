"""A per-row reference lowering, independent of ``build_residual``.

``reference_rows`` lowers every row on its own with each method's formulas
over the whole state, as expressions.  Tests compare the shape groups and
the compiled code of the solve path against it, and evaluate its rows as a
tree-walk oracle.
"""

from sparsedae import expr as ex
from sparsedae.system import DaeSystem, MethodKind


def reference_rows(sys: DaeSystem, kind: MethodKind):
    """Each row lowered on its own, with substitutions over every unknown."""
    n_t = sys.n_total
    h = ex.H
    base = {j: ex.Base(j) for j in range(1, n_t + 1)}
    end = {j: ex.add(ex.U(j), base[j]) for j in range(1, n_t + 1)}
    rows = []
    if kind is MethodKind.EB:
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(ex.U(i) - h * ex.substitute(f, end))
        rows += [ex.substitute(g, end) for g in sys.alg_residual]
    elif kind is MethodKind.CN:
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(ex.U(i) - ex.mul(0.5, h) * ex.substitute(f, end)
                        - ex.mul(0.5, h) * ex.substitute(f, base))
        rows += [ex.substitute(g, end) for g in sys.alg_residual]
    elif kind is MethodKind.IMPTRAP:
        mid = {j: ex.add(ex.mul(0.5, ex.U(j)), base[j]) for j in range(1, n_t + 1)}
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(ex.U(i) - h * ex.substitute(f, mid))
        rows += [ex.substitute(g, end) for g in sys.alg_residual]
    else:
        interior = {j: ex.add(ex.U(j + n_t), base[j]) for j in range(1, n_t + 1)}
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(ex.mul(2.5, ex.U(i)) - ex.mul(4.5, ex.U(i + n_t)) - h * ex.substitute(f, end))
        rows += [ex.substitute(g, end) for g in sys.alg_residual]
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(ex.mul(0.5, ex.U(i)) + ex.mul(1.5, ex.U(i + n_t)) - h * ex.substitute(f, interior))
        rows += [ex.substitute(g, interior) for g in sys.alg_residual]
    return tuple(rows)
