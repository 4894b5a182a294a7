"""Adaptive step-doubling integrator driver.

Each step solves the method residual once with step h and twice with h/2,
all three Newton solves sharing one frozen LU factorization.  The two
results give the local error estimate; accepted steps are advanced with
Richardson extrapolation.  The full step's solve starts from a zero
increment uu_h, and predicts both half steps: the first starts from
0.5*uu_h and the second from uu_h - uu_1, the part of the full step the
first half did not cover, over all blocks (RAD's interior stage too).  Both
drivers predict them so; consistent initialization starts from zero.

In the adaptive driver Newton stops on its contraction rate theta as well
as on the absolute correction test (``newton.newton_solve``), and an
attempt stops at its first unconverged solve.  Against a stale LU such a
failure refactorizes at the same (state, h) and retries the step, with no
rejection counted; against a fresh LU it rejects the step, as the error
test does.  Every rejection divides h by 4 and refactorizes.  After an
accepted step the LU is kept unless the step's largest theta exceeded 0.3
or the next h is outside [0.5, 2] times the h it was factorized at
(Hairer & Wanner, Solving ODEs II, IV.8; SUNDIALS IDA's retry on a stale
Jacobian).  A non-finite residual, or a refreshed Jacobian that is not
finite, rejects the step; both come up as ``NonFiniteResidual``.  So does
an error estimate that is not finite: ``error_norm`` gives inf for it.
Both integration loops run under ``np.errstate(all="ignore")``, so a domain
error in generated code shows up as a non-finite value, never as a warning.
Once a refresh has needed the LU's eps*I retry (``linalg.factorize``),
every later refresh of the Stepper adds eps*I from the first try;
consistent initialization neither sets nor reads this.

The fixed-step driver refactorizes every step and keeps Newton's absolute
test alone, because order verification needs Newton's error far below the
Richardson error.  It keeps a step whose Newton solves ran out of
iterations, and counts it in ``Trajectory.conv_fails``.  Both drivers share
one refresh (``_refresh``), which counts Jacobian refreshes and adds up
each LU's ``Factorization.lus``, and one step (``attempt_step``).
``Stepper.integrate`` picks the driver: fixed-step when
``SolverOptions.fixed_h`` is set, adaptive otherwise.  The error test's
rtol is fixed at 10*atol and is not an option.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, TextIO, Tuple

import numpy as np
from scipy.linalg.blas import idamax

from .codegen import CompiledResidual
from .errors import InitializationFailed, NonFiniteResidual
from .jacobian import JacobianAssembler, detect_pattern, differentiate
from .linalg import Factorization, factorize
from .newton import NewtonOutcome, newton_solve
from .system import DaeSystem, MethodKind, build_residual

_INIT_MAX_ITER = 100
# step-size controller: next_h's growth cap and safety factor, and the
# divisor of h on a rejection
_GROWTH = 3.0
_SAFETY = 0.9
_REJECT_DIVISOR = 4.0
# the adaptive driver stops on a step below _H_FLOOR*tf (or 1e-3*hinit);
# the default hinit stays 100 times above it, so three rejections fit,
# unless an hmax below that caps it
_H_FLOOR = 1e-14
# adaptive Newton: the rate tolerance as a multiple of atol, and the largest
# contraction rate and the range of h / h_LU under which an accepted step
# keeps its LU.  At 0.3*atol backward Euler's Newton bias adds up over ex2's
# ~3700 steps to 5.7e-4 off the reference; at 0.03*atol Newton solves on
# ex6 64x128 run out of iterations against fresh LUs and reject steps.
_RATE_TOL = 0.1
_THETA_REFRESH = 0.3
_H_RATIO_MIN, _H_RATIO_MAX = 0.5, 2.0


class Status(enum.Enum):
    SUCCESS = "Success"
    TOO_MANY_STEPS = "TooManySteps"
    STEP_UNDERFLOW = "StepUnderflow"


@dataclass
class SolverOptions:
    """Integration controls.  Unset hinit/hmax take the suggested defaults
    hinit = max(min(1e-6, tf*atol), 1e-12*tf), capped at hmax, and
    hmax = tf/20.  ``fixed_h``, when set, must divide tf into whole steps,
    and selects the fixed-step driver.  The error test's rtol is 10*atol,
    not an option."""

    tf: float
    atol: float = 1e-6
    hinit: Optional[float] = None
    hmax: Optional[float] = None
    ntot: int = 1000
    iter: int = 5
    method: MethodKind = MethodKind.IMPTRAP
    extrapolate: bool = True
    fixed_h: Optional[float] = None
    err_denominator: str = "literal"   # "literal" or "standard"

    def __post_init__(self):
        if not 0 < self.tf < math.inf:
            raise ValueError("tf must be positive and finite")
        if not 0 < self.atol < math.inf:
            raise ValueError("atol must be positive and finite")
        if self.fixed_h is not None:
            steps = self.tf / self.fixed_h if self.fixed_h > 0 else math.nan
            if not (steps < math.inf and abs(round(steps) * self.fixed_h - self.tf) <= 1e-12 * self.tf):
                raise ValueError("fixed_h must be positive and divide tf into whole steps")
        if self.hmax is None:
            self.hmax = self.tf / 20.0
        if self.hinit is None:
            # capped at hmax, given or not, so a default never makes a valid run invalid
            self.hinit = min(max(min(1e-6, self.tf * self.atol), 100 * _H_FLOOR * self.tf), self.hmax)
        if not (0 < self.hinit <= self.hmax <= self.tf):
            raise ValueError("need 0 < hinit <= hmax <= tf")
        if self.ntot < 1 or self.iter < 1:
            raise ValueError("ntot and iter must be at least 1")
        if self.err_denominator not in ("literal", "standard"):
            raise ValueError("err_denominator must be 'literal' or 'standard'")


@dataclass
class Trajectory:
    """Accepted-step records plus step/rejection/factorization counters.

    Counters cover the time-stepping loop; the factorization used by
    consistent initialization is reported separately in ``init_lu``.  Both
    add up each computed LU's ``Factorization.lus``; a refresh whose
    Jacobian is not finite adds none.  ``conv_fails`` counts attempts with
    an unconverged Newton solve: in the adaptive driver those abandoned,
    retried or rejected; in the fixed-step driver, which keeps every
    finite step, those kept with one.  ``err_fails`` counts the rejections
    by the error test (SUNDIALS IDA's ncfn and netf).
    """

    var_names: Tuple[str, ...]
    times: List[float] = field(default_factory=list)
    states: List[np.ndarray] = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0
    jac_updates: int = 0
    lu_count: int = 0
    init_lu: int = 0
    conv_fails: int = 0
    err_fails: int = 0
    status: Status = Status.SUCCESS

    def record(self, t: float, state: np.ndarray) -> None:
        self.times.append(float(t))
        self.states.append(np.array(state))

    @property
    def message(self) -> str:
        return f"integration {self.status.value}; number of failed steps={self.rejected}"

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def summary(self) -> str:
        return (f"# accepted={self.accepted}, rejected={self.rejected}, "
                f"jac_updates={self.jac_updates}, lu={self.lu_count}, "
                f"status={self.status.value}")

    def write_csv(self, fh: TextIO) -> None:
        fh.write("t," + ",".join(self.var_names) + "\n")
        for t, s in zip(self.times, self.states):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in s) + "\n")
        fh.write(self.summary() + "\n")


@dataclass
class Attempt:
    """What one step attempt gave.  ``state`` is None when it failed: on a
    non-finite value, or, given a rate tolerance, on an unconverged Newton
    solve.  ``unconverged`` is set when a solve stopped unconverged, also
    when the state was kept without a rate tolerance.  ``theta`` is the
    largest Newton contraction rate of the step."""

    state: Optional[np.ndarray] = None
    err: float = math.inf
    theta: float = 0.0
    unconverged: bool = False


class _Unconverged(Exception):
    """A Newton solve of a step attempt stopped unconverged."""


# --- the three controller formulas ---------------------------------------


def error_norm(y_err: np.ndarray, yref: np.ndarray, atol: float, rtol: float,
               denominator: str = "literal") -> float:
    """Infinity norm of the weighted step-doubling error estimate; inf when
    any weighted component is not finite.

    The default ("literal") denominator is atol + |y_err_i|*rtol; the
    "standard" alternative uses the solution magnitude, atol + |yref_i|*rtol.
    ODE and algebraic components are both included.  A component that
    overflows makes the literal weight inf/inf = nan, so the norm is
    screened by its sum of squares, as ``newton_solve`` screens a
    correction, and its largest entry is BLAS ``idamax``'s.
    """
    a = np.abs(y_err)
    w = a / (atol + (a if denominator == "literal" else np.abs(yref)) * rtol)
    if not math.isfinite(w.dot(w)) and not np.isfinite(w).all():
        return math.inf
    return w.item(idamax(w)) if len(w) else 0.0


def next_h(h_old: float, err: float, p: int, hmax: float) -> float:
    """h_new = min(hmax, h_old * min(_GROWTH, _SAFETY * (1/err)^(1/(p+1))))."""
    if err <= 0.0:
        factor = _GROWTH
    else:
        factor = min(_GROWTH, _SAFETY * (1.0 / err) ** (1.0 / (p + 1)))
    return min(hmax, h_old * factor)


def richardson(y_h: np.ndarray, y_h2: np.ndarray, p: int, extrapolate: bool = True) -> np.ndarray:
    """(2^p * y_h2 - y_h) / (2^p - 1) on every component; a copy of the
    plain two-half-steps value when extrapolation is disabled.  Both are
    float arrays of one length."""
    if not extrapolate:
        return y_h2.copy()
    w = float(2 ** p)
    return (w * y_h2 - y_h) / (w - 1.0)


# --- engine ---------------------------------------------------------------


class Stepper:
    """Holds the compiled residual/Jacobian machinery for one (system,
    method) pair and drives the integration loop."""

    def __init__(self, sys: DaeSystem, options: SolverOptions):
        self.system = sys
        self.options = options
        groups = build_residual(sys, options.method)
        # the residual's shape groups are compiled and reused by the pattern,
        # the derivatives and the Jacobian code
        self.res = CompiledResidual(groups, sys.layout)
        self.res.set_params(sys.params)
        pattern = detect_pattern(groups)
        self.assembler = JacobianAssembler(pattern, differentiate(pattern), sys.layout)
        self.n = self.res.n
        self._uu0 = np.zeros(self.n)
        self.ctol = 0.01 * options.atol   # Newton's correction tolerance
        # set once a refresh needed the eps*I retry: every later refresh
        # then adds eps*I from the first try
        self._perturb = False

    # -- bindings ---------------------------------------------------------

    def _bind(self, base: np.ndarray, h: float) -> None:
        # bases are float arrays already: set_base's conversion is skipped
        # on this once-per-solve path
        self.res.b = base
        self.res.h = float(h)

    def _factorize(self, base: np.ndarray, h: float, perturb: bool = False) -> Factorization:
        """Assemble and factorize the Jacobian at (base, h), with eps*I from
        the first try given ``perturb``.  The residual is not bound."""
        return factorize(self.assembler.assemble(self._uu0, base, h, self.res.p), perturb)

    def _refresh(self, base: np.ndarray, h: float, traj: Trajectory) -> Optional[Factorization]:
        """``_factorize``, counted in ``traj``: one Jacobian update and the
        LU's ``lus``.  Once the eps*I retry has run, every later refresh adds
        eps*I from the first try.  None, counting nothing, when the Jacobian
        is not finite."""
        try:
            f = self._factorize(base, h, self._perturb)
        except NonFiniteResidual:
            return None
        traj.jac_updates += 1
        traj.lu_count += f.lus
        self._perturb = f.perturbed
        return f

    def _solve_once(self, base: np.ndarray, h: float, f: Factorization,
                    rate_tol: Optional[float],
                    uu0: np.ndarray) -> Tuple[np.ndarray, NewtonOutcome]:
        """The state one Newton solve reaches from ``base``, starting at the
        increment ``uu0``, and the solve's outcome.  Given ``rate_tol``,
        raises _Unconverged when the solve does not converge."""
        self._bind(base, h)
        out = newton_solve(self.res, f, uu0, self.options.iter, self.ctol, rate_tol)
        if rate_tol is not None and not out.converged:
            raise _Unconverged
        # the first block; RAD's interior stage is discarded
        return base + out.uu[:len(base)], out

    # -- initialization and stepping ----------------------------------------

    def initialize(self) -> Tuple[np.ndarray, Factorization]:
        """Consistent initialization: Newton on the h=0 residual with a
        fresh factorization.  Returns the corrected state."""
        state0 = self.system.initial_state()
        f = self._factorize(state0, 0.0)
        self._bind(state0, 0.0)
        ctol = min(self.ctol, 1e-10)
        out = newton_solve(self.res, f, self._uu0, _INIT_MAX_ITER, ctol)
        if not out.converged:
            raise InitializationFailed(
                f"h=0 Newton stalled (last correction {out.correction_norm:.3e}); "
                "the algebraic constraints could not be satisfied from the given guesses"
            )
        return state0 + out.uu[:len(state0)], f

    def attempt_step(self, state: np.ndarray, h: float, f: Factorization,
                     rate_tol: Optional[float] = None) -> Attempt:
        """One full step and two half steps from ``state``, all against the
        frozen factorization ``f``.  Gives the new state, Richardson-combined
        per ``options.extrapolate``, the scalar error estimate and the largest
        contraction rate; no state on a non-finite residual.  The full step
        starts from zero and the half steps from its prediction.  Given
        ``rate_tol``, Newton also stops on its rate and the attempt fails at
        its first unconverged solve."""
        opt = self.options
        try:
            y_h, full = self._solve_once(state, h, f, rate_tol, self._uu0)
            # the full step predicts both half steps: the first takes about
            # half its increment, the second about the rest, y_h - mid
            mid, half1 = self._solve_once(state, 0.5 * h, f, rate_tol, 0.5 * full.uu)
            y_h2, half2 = self._solve_once(mid, 0.5 * h, f, rate_tol, full.uu - half1.uu)
        except NonFiniteResidual:
            return Attempt()
        except _Unconverged:
            return Attempt(unconverged=True)
        p = opt.method.order
        y_err = (y_h2 - y_h) / (2 ** p - 1)
        err = error_norm(y_err, y_h2, opt.atol, 10.0 * opt.atol, opt.err_denominator)
        return Attempt(richardson(y_h, y_h2, p, opt.extrapolate), err,
                       max(full.theta, half1.theta, half2.theta),
                       not (full.converged and half1.converged and half2.converged))

    def _start(self) -> Tuple[np.ndarray, Trajectory]:
        """The consistent initial state and a Trajectory holding it at t=0."""
        state, f = self.initialize()
        traj = Trajectory(var_names=self.system.var_names, init_lu=f.lus)
        traj.record(0.0, state)
        return state, traj

    # -- drivers ------------------------------------------------------------

    @np.errstate(all="ignore")
    def integrate(self) -> Trajectory:
        """The run to options.tf: fixed-step given options.fixed_h, else adaptive."""
        if self.options.fixed_h is not None:
            return self._integrate_fixed()
        opt = self.options
        state, traj = self._start()
        p = opt.method.order
        rate_tol = _RATE_TOL * opt.atol
        h_floor = max(_H_FLOOR * opt.tf, 1e-3 * opt.hinit)
        # a step that would end within h_floor of tf lands on tf: the rest
        # would be a step below the floor
        t, h = 0.0, min(opt.hinit, opt.tf)
        landing = h >= opt.tf - h_floor
        h = opt.tf if landing else h
        frozen: Optional[Factorization] = None   # None: refresh before the next attempt
        h_lu = h           # the h frozen was factorized at

        while t < opt.tf:
            if traj.accepted >= opt.ntot:
                traj.status = Status.TOO_MANY_STEPS
                break
            if h < h_floor:
                traj.status = Status.STEP_UNDERFLOW
                break
            fresh = frozen is None   # refresh now, at (state, h)
            if fresh:
                frozen, h_lu = self._refresh(state, h, traj), h
            attempt = Attempt() if frozen is None else self.attempt_step(state, h, frozen, rate_tol)
            if attempt.unconverged:
                traj.conv_fails += 1
                if not fresh:   # retry the same h against an LU of (state, h)
                    frozen = None
                    continue
            elif attempt.state is not None and not attempt.err <= 1.0:
                traj.err_fails += 1
            if not attempt.err <= 1.0:   # a nan error rejects too
                traj.rejected += 1
                h = h / _REJECT_DIVISOR
                landing = False
                frozen = None
                continue

            state = attempt.state
            t = opt.tf if landing else t + h
            traj.accepted += 1
            traj.record(t, state)
            h = next_h(h, attempt.err, p, opt.hmax)
            landing = h >= opt.tf - t - h_floor
            h = opt.tf - t if landing else h
            if attempt.theta > _THETA_REFRESH or not _H_RATIO_MIN <= h / h_lu <= _H_RATIO_MAX:
                frozen = None
        return traj

    def _integrate_fixed(self) -> Trajectory:
        """``integrate``'s fixed-step mode, for order verification: Jacobian
        refreshed every step, extrapolation per options.  Stops with
        TOO_MANY_STEPS after ``ntot`` steps, as the adaptive mode does, and
        with STEP_UNDERFLOW, one step rejected, when a step leaves the domain."""
        opt = self.options
        h = opt.fixed_h
        nsteps = round(opt.tf / h)
        state, traj = self._start()
        for k in range(nsteps):
            if traj.accepted >= opt.ntot:
                traj.status = Status.TOO_MANY_STEPS
                break
            f = self._refresh(state, h, traj)
            attempt = Attempt() if f is None else self.attempt_step(state, h, f)
            traj.conv_fails += attempt.unconverged
            if attempt.state is None:
                traj.rejected += 1
                traj.status = Status.STEP_UNDERFLOW
                break
            state = attempt.state
            traj.accepted += 1
            traj.record(opt.tf if k == nsteps - 1 else (k + 1) * h, state)
        return traj


def integrate(sys: DaeSystem, options: SolverOptions) -> Trajectory:
    """``Stepper(sys, options).integrate()``."""
    return Stepper(sys, options).integrate()


def integrate_fixed(sys: DaeSystem, options: SolverOptions) -> Trajectory:
    """``integrate`` for convergence studies; ValueError unless fixed_h is set."""
    if options.fixed_h is None:
        raise ValueError("fixed_h must be set")
    return Stepper(sys, options).integrate()
