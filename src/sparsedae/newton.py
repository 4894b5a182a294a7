"""Modified Newton iteration with a frozen LU factorization.

The iteration never refactorizes: every correction is a triangular solve
against the Factorization handed in, however stale it may be.  It stops when
the correction's infinity norm drops to ``ctol``.  Given a rate tolerance,
it also stops on the contraction rate theta_k = |d_k| / |d_k-1| (Hairer &
Wanner, Solving ODEs II, IV.8): as converged once theta/(1-theta)*|d_k|,
an estimate of the remaining error, drops to it, and as diverged once
theta >= 1.  An unconverged outcome is returned, not raised: the adaptive
driver retries or rejects the step (``Stepper.integrate``), the fixed-step
driver keeps it and counts it, and consistent initialization fails.
A non-finite residual evaluation or correction is the only hard failure
and is reported to the caller for step rejection.  The correction is
screened as ``CompiledResidual.evaluate`` screens the residual, by its sum
of squares, with the exact ``isfinite`` test only when the screen trips;
a finite correction above ~1e154 overflows the screen, which numpy reports
as a RuntimeWarning outside ``np.errstate(over="ignore")``.  Its infinity
norm is BLAS ``idamax``'s entry, with none of numpy's reduction wrappers
in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import idamax

from .codegen import CompiledResidual
from .errors import NonFiniteResidual
from .linalg import Factorization, solve


@dataclass
class NewtonOutcome:
    uu: np.ndarray
    iterations: int
    correction_norm: float
    converged: bool
    theta: float = 0.0   # the largest contraction rate seen, given a rate tolerance


def newton_solve(
    res: CompiledResidual,
    f: Factorization,
    uu0: np.ndarray,
    max_iter: int,
    ctol: float,
    rate_tol: Optional[float] = None,
) -> NewtonOutcome:
    """Iterate uu <- uu - F^-1 R(uu) up to ``max_iter`` times, declaring
    convergence early once the infinity norm of the correction drops to
    ``ctol``, or, when ``rate_tol`` is given, once the rate-based error
    estimate drops to ``rate_tol``; a rate of 1 or more then stops it
    unconverged.  ``res`` must already be bound to (h, Y0, params); ``f``
    may be a stale assembly of its Jacobian."""
    uu = np.array(uu0, dtype=float)
    if len(uu) != res.n:
        raise ValueError(f"uu0 length {len(uu)} != residual size {res.n}")
    corr_norm = np.inf
    theta_max = 0.0
    for it in range(1, max_iter + 1):
        r = res.evaluate(uu)  # raises NonFiniteResidual
        delta = solve(f, r)
        uu -= delta
        # evaluate's screen; behind it idamax sees finite entries only, since
        # BLAS builds differ on whether it skips a nan
        if not math.isfinite(delta.dot(delta)) and not np.isfinite(delta).all():
            raise NonFiniteResidual("Newton correction went non-finite")
        prev, corr_norm = corr_norm, abs(delta.item(idamax(delta)))
        if corr_norm <= ctol:
            return NewtonOutcome(uu, it, corr_norm, True, theta_max)
        if rate_tol is not None and it > 1:
            theta = corr_norm / prev
            theta_max = max(theta_max, theta)
            if theta >= 1.0:
                return NewtonOutcome(uu, it, corr_norm, False, theta_max)
            if theta / (1.0 - theta) * corr_norm <= rate_tol:
                return NewtonOutcome(uu, it, corr_norm, True, theta_max)
    return NewtonOutcome(uu, max_iter, corr_norm, False, theta_max)
