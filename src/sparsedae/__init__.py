"""Sparse index-1 DAE and stiff ODE solver.

Symbolic residual definition, automatic sparsity detection with analytic
Jacobians, four A-stable single-step implicit methods, and step-doubling
adaptive error control with Richardson extrapolation.
"""

from .errors import (
    EmptyRow,
    InitializationFailed,
    InvalidGrid,
    NonFiniteResidual,
    NonFiniteValue,
    ProblemFileError,
    SingularMatrix,
    SparseDaeError,
    UnknownObservable,
    UnsupportedSystem,
)
from .expr import Branch, Const, Expr, Param, Piecewise, U, diff, exp, free_unknowns, ln, piecewise, substitute
from .grammar import parse_expr
from .jacobian import JacobianAssembler, SparsityPattern, detect_pattern, differentiate
from .linalg import Factorization, SparseMatrix, factorize, solve, write_pattern
from .newton import NewtonOutcome, default_ctol, newton_solve
from .problemfile import load_problem, parse_problem_text
from .problems import (
    ORACLES,
    decay,
    example1,
    example1_piecewise,
    example2,
    example3,
    example4,
    example5,
    example6,
    make_builtin,
    probe,
)
from .stepper import (
    SolverOptions,
    Status,
    Stepper,
    Trajectory,
    error_norm,
    integrate,
    integrate_fixed,
    next_h,
    richardson,
)
from .system import (
    DaeSystem,
    MethodKind,
    MethodResidual,
    build_residual,
    state_update,
)

__version__ = "0.1.0"
