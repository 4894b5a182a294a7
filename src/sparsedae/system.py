"""Index-1 DAE system model and per-method residual lowering.

A system is a list of ODE right-hand sides f_i and algebraic residuals g_i
over a single ordered state vector (ODE variables first, then algebraic).
Only autonomous systems are supported; time-dependent systems must add the
dummy ODE  y' = 1  themselves.

For a chosen single-step method and step size h the system is lowered into
residual equations in the increment unknowns uu (state_new = state_old + uu).
The base state enters those residuals as named parameter slots ``Y0_k``, so
the symbolic structure is built once and only numeric bindings change from
step to step.  The same residual with h = 0 performs consistent
initialization of the algebraic components.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from . import expr as ex
from .codegen import BASE_PREFIX
from .errors import UnsupportedSystem


class MethodKind(enum.Enum):
    """The four single-step implicit methods.

    order:  local accuracy order used by the error controller (1, 2, 2, 3).
    stages: unknown-count multiplier (RAD solves endpoint + interior stage).
    All four are A-stable; EB and RAD are additionally L-stable.
    """

    EB = "eb"
    CN = "cn"
    IMPTRAP = "imptrap"
    RAD = "rad"

    @property
    def order(self) -> int:
        return {"eb": 1, "cn": 2, "imptrap": 2, "rad": 3}[self.value]

    @property
    def stage_multiplier(self) -> int:
        return 2 if self is MethodKind.RAD else 1


@dataclass(frozen=True)
class DaeSystem:
    """Ordered ODE + algebraic residual equations over one state vector.

    ode_rhs[i] is f_i, alg_residual[j] is g_j (equation g_j = 0).  Both may
    reference any state index 1..N_t and declared parameter names.  y0z0
    holds initial values for ODE variables and initial *guesses* for
    algebraic ones.  Parameter names may not be ``h`` or start with
    ``Y0_``: the method residuals use those for the step size and the base
    state.
    """

    ode_rhs: Tuple[ex.Expr, ...]
    alg_residual: Tuple[ex.Expr, ...]
    var_names: Tuple[str, ...]
    y0z0: Tuple[float, ...]
    params: Dict[str, float] = field(default_factory=dict)
    observables: Dict[str, Tuple[Tuple[int, float], ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_total < 1:
            raise ValueError("system must have at least one variable")
        if len(self.var_names) != self.n_total:
            raise ValueError("var_names length must equal N_ode + N_ae")
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("variable names must be unique")
        if len(self.y0z0) != self.n_total:
            raise ValueError("y0z0 length must equal N_ode + N_ae")
        reserved = sorted(n for n in self.params if n == "h" or n.startswith(BASE_PREFIX))
        if reserved:
            raise ValueError(f"parameter name {reserved[0]!r} is reserved for the "
                             f"step size h or a base-state slot {BASE_PREFIX}k")
        declared = set(self.params)
        for eq in tuple(self.ode_rhs) + tuple(self.alg_residual):
            unknowns, params = ex.free_leaves(eq)
            bad = sorted(k for k in unknowns if not 1 <= k <= self.n_total)
            if bad:
                raise ValueError(f"equation references state index {bad[0]} outside 1..{self.n_total}")
            undecl = params - declared
            if undecl:
                raise ValueError(f"undeclared parameter(s): {sorted(undecl)}")

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


@dataclass(frozen=True)
class MethodResidual:
    """Symbolic residual rows of one method in the uu unknowns.

    Row count is stage_multiplier * N_t.  The step size appears as the
    parameter ``h`` and the base state as parameters ``Y0_1..Y0_Nt``; the
    sparsity structure is therefore independent of their numeric values.
    CN's explicit half f_i(base state) is part of its row, an expression over
    the ``Y0_k`` slots alone, so every row reads only uu, the base state, h
    and the system parameters.
    """

    system: DaeSystem
    kind: MethodKind
    rows: Tuple[ex.Expr, ...]

    @property
    def n(self) -> int:
        return len(self.rows)


def _base(k: int) -> ex.Expr:
    return ex.Param(f"{BASE_PREFIX}{k}")


def _endpoint_sub(n_t: int, offset: int = 0) -> Dict[int, ex.Expr]:
    # state_j -> uu_{j+offset} + Y0_j
    return {j: ex.add(ex.U(j + offset), _base(j)) for j in range(1, n_t + 1)}


def _midpoint_sub(n_t: int) -> Dict[int, ex.Expr]:
    # state_j -> uu_j/2 + Y0_j
    return {j: ex.add(ex.mul(0.5, ex.U(j)), _base(j)) for j in range(1, n_t + 1)}


def _check_endpoint_constraints(sys: DaeSystem, kind: MethodKind) -> None:
    alg_indices = set(range(sys.n_ode + 1, sys.n_total + 1))
    for j, g in enumerate(sys.alg_residual, start=1):
        if not alg_indices.intersection(ex.free_unknowns(g)):
            raise UnsupportedSystem(
                f"algebraic equation {j} references no algebraic variable; "
                f"{kind.value} cannot project it at the step endpoint"
            )


def build_residual(sys: DaeSystem, kind: MethodKind) -> MethodResidual:
    """Lower (f, g) into the method's residual rows in uu."""
    n_t = sys.n_total
    h = ex.Param("h")
    end = _endpoint_sub(n_t)
    rows: List[ex.Expr] = []

    if kind is MethodKind.EB:
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(ex.U(i) - h * ex.substitute(f, end))
        for g in sys.alg_residual:
            rows.append(ex.substitute(g, end))

    elif kind is MethodKind.CN:
        _check_endpoint_constraints(sys, kind)
        base = {j: _base(j) for j in range(1, n_t + 1)}
        for i, f in enumerate(sys.ode_rhs, start=1):
            # the explicit half f_i(Y0) reads no unknown, so its derivatives fold to zero
            rows.append(ex.U(i) - ex.mul(0.5, h) * ex.substitute(f, end)
                        - ex.mul(0.5, h) * ex.substitute(f, base))
        for g in sys.alg_residual:
            rows.append(ex.substitute(g, end))

    elif kind is MethodKind.IMPTRAP:
        _check_endpoint_constraints(sys, kind)
        mid = _midpoint_sub(n_t)
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(ex.U(i) - h * ex.substitute(f, mid))
        for g in sys.alg_residual:
            rows.append(ex.substitute(g, end))

    elif kind is MethodKind.RAD:
        interior = _endpoint_sub(n_t, offset=n_t)
        # endpoint block
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(
                ex.mul(2.5, ex.U(i)) - ex.mul(4.5, ex.U(i + n_t)) - h * ex.substitute(f, end)
            )
        for g in sys.alg_residual:
            rows.append(ex.substitute(g, end))
        # interior-stage block
        for i, f in enumerate(sys.ode_rhs, start=1):
            rows.append(
                ex.mul(0.5, ex.U(i)) + ex.mul(1.5, ex.U(i + n_t)) - h * ex.substitute(f, interior)
            )
        for g in sys.alg_residual:
            rows.append(ex.substitute(g, interior))

    else:  # pragma: no cover
        raise ValueError(f"unknown method {kind}")

    return MethodResidual(system=sys, kind=kind, rows=tuple(rows))


def state_update(y0: np.ndarray, uu: np.ndarray, kind: MethodKind) -> np.ndarray:
    """Advance the state: Y1 = Y0 + uu (first block; RAD's interior stage
    block is discarded)."""
    y0 = np.asarray(y0, dtype=float)
    uu = np.asarray(uu, dtype=float)
    n_t = len(y0)
    if len(uu) != kind.stage_multiplier * n_t:
        raise ValueError(
            f"uu length {len(uu)} != {kind.stage_multiplier} * state length {n_t}"
        )
    return y0 + uu[:n_t]
