"""Step-doubling controller, error norms, and the integration drivers."""

import io
import math
import warnings

import numpy as np
import pytest

from sparsedae import expr as ex
from sparsedae import linalg
from sparsedae import stepper as stepper_mod
from sparsedae.errors import NonFiniteResidual
from sparsedae.problemfile import parse_problem_text
from sparsedae.problems import example1, example2, example5
from sparsedae.stepper import (
    Attempt,
    SolverOptions,
    Status,
    Stepper,
    error_norm,
    integrate,
    integrate_fixed,
    next_h,
    richardson,
)
from sparsedae.system import DaeSystem, MethodKind


def decay():
    # y' = -y, y(0) = 1
    return DaeSystem(ode_rhs=(ex.neg(ex.U(1)),), alg_residual=(),
                     var_names=("y",), y0z0=(1.0,))


def test_error_norm_literal_and_standard():
    y_err = np.array([1e-6, -2e-6])
    yref = np.array([10.0, 0.5])
    atol, rtol = 1e-6, 1e-5
    lit = error_norm(y_err, yref, atol, rtol, "literal")
    assert lit == pytest.approx(2e-6 / (atol + 2e-6 * rtol))
    std = error_norm(y_err, yref, atol, rtol, "standard")
    assert std == pytest.approx(max(1e-6 / (atol + 10.0 * rtol),
                                    2e-6 / (atol + 0.5 * rtol)))


def test_error_norm_of_no_components_is_zero():
    for denominator in ("literal", "standard"):
        assert error_norm(np.zeros(0), np.zeros(0), 1e-6, 1e-5, denominator) == 0.0


@pytest.mark.parametrize("denominator", ["literal", "standard"])
def test_error_norm_of_an_overflowing_difference_is_inf(denominator):
    # y_h2 - y_h overflows to -inf: the literal weight is inf/inf = nan, and
    # a nan norm would pass the error test (nan > 1 is False)
    y_h, y_h2 = np.array([-1e308]), np.array([1e308])
    with np.errstate(over="ignore"):
        y_err = (y_h2 - y_h) / 3
    with np.errstate(invalid="ignore"):
        assert error_norm(y_err, y_h2, 1e-6, 1e-5, denominator) == math.inf


def test_a_nan_error_estimate_rejects_the_step():
    st = Stepper(decay(), SolverOptions(tf=1.0, atol=1e-6, hinit=0.01))
    attempt = st.attempt_step
    calls = []

    def nan_once(*args):
        out = attempt(*args)
        calls.append(1)
        if len(calls) == 1:
            out.err = math.nan
        return out

    st.attempt_step = nan_once
    traj = st.integrate()
    assert traj.status is Status.SUCCESS
    assert traj.rejected == traj.err_fails == 1
    assert traj.times[1] == pytest.approx(0.01 / 4)


def test_next_h_formula():
    assert next_h(0.1, 1e-4, 1, hmax=1.0) == pytest.approx(0.3)  # capped at 3x
    err = 0.5
    assert next_h(0.1, err, 1, hmax=1.0) == pytest.approx(
        0.1 * 0.9 * (1 / err) ** 0.5)
    assert next_h(0.9, 1e-12, 1, hmax=1.0) == 1.0  # hmax cap
    assert next_h(0.1, 0.0, 2, hmax=1.0) == pytest.approx(0.3)


def test_richardson_combinations():
    y_h = np.array([1.0])
    y_h2 = np.array([1.1])
    assert richardson(y_h, y_h2, 1) == pytest.approx([1.2])
    assert richardson(y_h, y_h2, 2) == pytest.approx([(4 * 1.1 - 1.0) / 3])
    assert richardson(y_h, y_h2, 3, extrapolate=False) == pytest.approx([1.1])
    with pytest.raises(ValueError):
        richardson(np.zeros(2), np.zeros(3), 1)


def test_backward_euler_single_step_closed_form():
    # y' = -y: one EB step gives y0/(1+h); two half steps give y0/(1+h/2)^2;
    # the estimate is their difference, extrapolation adds it to the latter
    h, atol = 0.1, 1e-13
    y_h, y_h2 = 1.0 / 1.1, 1.0 / 1.05 ** 2
    a = abs(y_h2 - y_h)
    for extrapolate, want in ((False, y_h2), (True, 2 * y_h2 - y_h)):
        st = Stepper(decay(), SolverOptions(tf=1.0, atol=atol, method=MethodKind.EB,
                                            iter=40, extrapolate=extrapolate))
        state, _ = st.initialize()
        assert state == pytest.approx([1.0])
        out = st.attempt_step(state, h, st._factorize(state, h))
        assert out.state == pytest.approx([want], abs=1e-12)
        assert out.err == pytest.approx(a / (atol + a * 10 * atol), rel=1e-8)


def test_nonfinite_step_reports_infinite_error():
    sysd = DaeSystem(ode_rhs=(ex.ln(ex.U(1)),), alg_residual=(),
                     var_names=("y",), y0z0=(0.5,))
    st = Stepper(sysd, SolverOptions(tf=1.0, atol=1e-6, method=MethodKind.EB,
                                     hinit=1e-3, iter=50))
    state, f = st.initialize()
    # a huge step drives the iterate negative and ln out of its domain;
    # outside the integrators' errstate numpy warns of it
    with pytest.warns(RuntimeWarning):
        out = st.attempt_step(np.array([0.5]), 1.0, f)
    assert out.err == math.inf and out.state is None and not out.unconverged


SQRT_DECAY = """
[odes]
x' = -x^0.5 - 1
[init]
x = 1.0
"""


def test_nonfinite_jacobian_at_refresh_rejects_the_step():
    # x reaches 0 near t=0.61; past it x^0.5 and the refreshed Jacobian
    # -0.5*x^-0.5 are not finite, which must reject steps, not end the run
    # ...and must not warn either, from the generated code or the stepping loop
    sysd = parse_problem_text(SQRT_DECAY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(sysd, SolverOptions(tf=3.0, atol=1e-6))
    assert traj.status is Status.STEP_UNDERFLOW
    assert traj.rejected > 0
    assert traj.lu_count == traj.jac_updates
    assert traj.final_time < 0.7


def test_nonfinite_jacobian_in_fixed_step_mode_stops_the_run(monkeypatch):
    # a fixed step cannot shrink, so a step that leaves the domain ends the
    # run as StepUnderflow with the records accepted so far
    st = Stepper(decay(), SolverOptions(tf=1.5, atol=1e-6, fixed_h=0.5, hinit=0.5, hmax=0.5))
    assemble = st.assembler.assemble
    calls = []

    def third_fails(*args):
        calls.append(args)
        if len(calls) == 3:   # the refresh of the second step
            raise NonFiniteResidual("non-finite Jacobian entry at row 1, col 1")
        return assemble(*args)

    monkeypatch.setattr(st.assembler, "assemble", third_fails)
    traj = st.integrate()
    assert traj.status is Status.STEP_UNDERFLOW
    assert (traj.accepted, traj.rejected, traj.jac_updates) == (1, 1, 1)
    assert traj.times == [0.0, 0.5]
    assert traj.final_state[0] == pytest.approx(math.exp(-0.5), abs=1e-2)


def unconverged_on_call(st, n):
    """Make ``st``'s n-th step attempt (1-based) fail on an unconverged Newton
    solve; returns the list of (h, factorization) of every attempt."""
    attempt = st.attempt_step
    calls = []

    def fake(state, h, f, rate_tol=None):
        calls.append((h, f))
        return Attempt(unconverged=True) if len(calls) == n else attempt(state, h, f, rate_tol)

    st.attempt_step = fake
    return calls


# a constant h keeps the LU of one step for the next (h / h_LU = 1)
CONSTANT_H = dict(tf=1.0, atol=1e-3, hinit=0.125, hmax=0.125)


def test_unconverged_attempt_against_a_stale_lu_retries_the_same_h():
    plain = Stepper(decay(), SolverOptions(**CONSTANT_H)).integrate()
    st = Stepper(decay(), SolverOptions(**CONSTANT_H))
    calls = unconverged_on_call(st, 2)   # the second step, on the first step's LU
    traj = st.integrate()
    assert calls[1][1] is calls[0][1]
    assert calls[2][0] == calls[1][0] and calls[2][1] is not calls[1][1]
    assert (traj.rejected, traj.conv_fails, traj.err_fails) == (0, 1, 0)
    assert traj.accepted == plain.accepted
    assert traj.jac_updates == traj.lu_count == plain.jac_updates + 1


def test_unconverged_attempt_against_a_fresh_lu_rejects_the_step():
    st = Stepper(decay(), SolverOptions(**CONSTANT_H))
    calls = unconverged_on_call(st, 1)   # the first step, on its own fresh LU
    traj = st.integrate()
    assert calls[1][0] == calls[0][0] / 4 and calls[1][1] is not calls[0][1]
    assert (traj.rejected, traj.conv_fails, traj.err_fails) == (1, 1, 0)
    assert traj.status is Status.SUCCESS


def test_longest_rejection_chain_ends_in_step_underflow():
    # hinit <= 1e-11*tf puts h_floor at 1e-14*tf.  After 25 good steps h is
    # near tf; from there every attempt fails.  Every rejection divides h by
    # 4 and h <= tf, so at most 24 rejections (4^24 > 1e14) reach the floor
    st = Stepper(decay(), SolverOptions(tf=1.0, atol=1e-3, hinit=1e-12, hmax=1.0))
    attempt = st.attempt_step
    hs = []

    def fail_after_25(state, h, f, rate_tol=None):
        hs.append(h)
        return attempt(state, h, f, rate_tol) if len(hs) <= 25 else Attempt(unconverged=True)

    st.attempt_step = fail_after_25
    traj = st.integrate()
    assert traj.status is Status.STEP_UNDERFLOW
    assert traj.accepted == 25 and hs[25] > 0.1
    chain = traj.rejected
    assert chain <= 24
    assert hs[25] / 4 ** chain < 1e-14 <= hs[25] / 4 ** (chain - 1) == hs[-1]


def test_default_hinit_lets_a_long_run_take_its_first_step():
    # the default hinit must stay above the step floor, 1e-14*tf, however
    # large tf is; min(1e-6, tf*atol) alone falls below it for tf > 1e8
    traj = integrate(decay(), SolverOptions(tf=1e9))
    assert traj.status is Status.SUCCESS and traj.accepted > 0
    assert traj.final_time == 1e9


def test_default_hinit_is_capped_at_hmax():
    # min(1e-6, tf*atol) exceeds the default hmax = tf/20 once atol > 0.05 and
    # tf < 2e-5; the default hinit must not make such a run invalid
    opt = SolverOptions(tf=1e-5, atol=0.1)
    assert opt.hinit == opt.hmax == 1e-5 / 20
    traj = integrate(decay(), opt)
    assert traj.status is Status.SUCCESS and traj.final_time == 1e-5
    # a given hmax caps it too
    assert SolverOptions(tf=1.0, hmax=1e-9).hinit == 1e-9
    # where the default fits, it is unchanged
    assert SolverOptions(tf=10.0, atol=1e-6, hmax=0.1).hinit == 1e-6
    # a given hinit is not capped: above the default hmax it is still refused
    with pytest.raises(ValueError, match="hinit <= hmax"):
        SolverOptions(tf=1e-5, hinit=1e-6)


def test_rejections_are_split_by_cause():
    traj = integrate(example2(), SolverOptions(tf=10.0, atol=1e-6, hmax=0.1, method=MethodKind.RAD,
                                               err_denominator="standard"))
    assert traj.err_fails > 0 and traj.conv_fails > 0
    # every rejection is an error-test failure or a convergence failure
    assert traj.err_fails <= traj.rejected <= traj.err_fails + traj.conv_fails


def test_lus_follow_newton_contraction_not_every_step():
    # criterion 10's options on ex5 16x16 (41 steps): Newton contracts fast
    # enough that most steps keep the previous step's LU
    traj = integrate(example5(16, 16, c0=1.0), SolverOptions(
        tf=5.0, atol=1e-6, hmax=0.25, hinit=1e-4, ntot=4000, method=MethodKind.IMPTRAP,
        err_denominator="standard", extrapolate=False))
    assert traj.status is Status.SUCCESS
    assert traj.rejected == 0 and 30 <= traj.accepted <= 45
    assert traj.lu_count <= 12


def test_adaptive_run_hits_tf_exactly():
    traj = integrate(decay(), SolverOptions(tf=2.0, atol=1e-8))
    assert traj.status is Status.SUCCESS
    assert traj.final_time == 2.0
    assert traj.final_state[0] == pytest.approx(math.exp(-2.0), abs=1e-6)
    assert traj.accepted == len(traj.times) - 1


def test_counters_one_lu_per_jacobian_update():
    traj = integrate(example1(), SolverOptions(tf=1.0, atol=1e-8))
    assert traj.status is Status.SUCCESS
    assert traj.lu_count == traj.jac_updates
    assert traj.init_lu == 1
    assert traj.jac_updates <= traj.accepted + traj.rejected + 1


def neumann_chain(n=80):
    # a pure-Neumann chain of n algebraic rows: singular at every h, and on
    # the sparse path for n > 64
    u = ex.U
    rows = ([ex.add(u(2), ex.neg(u(1)))]
            + [ex.add(u(i - 1), ex.mul(-2.0, u(i)), u(i + 1)) for i in range(2, n)]
            + [ex.add(u(n - 1), ex.neg(u(n)))])
    return DaeSystem(ode_rhs=(), alg_residual=tuple(rows),
                     var_names=tuple(f"u{i}" for i in range(1, n + 1)), y0z0=(1.0,) * n)


def test_perturbed_initial_lu_counts_two():
    # the initial LU takes the perturbed retry; so does the first refresh,
    # and every later refresh adds eps*I from the first try
    st = Stepper(neumann_chain(), SolverOptions(tf=0.1, method=MethodKind.EB))
    assert st.initialize()[1].perturbed
    traj = st.integrate()
    assert traj.status is Status.SUCCESS
    assert traj.init_lu == 2
    assert traj.lu_count == traj.jac_updates + 1


def test_remembered_retry_counts_the_lus_computed_and_changes_no_value(monkeypatch):
    superlu_calls = []
    superlu = linalg._superlu
    monkeypatch.setattr(linalg, "_superlu", lambda m: superlu_calls.append(1) or superlu(m))
    opts = SolverOptions(tf=0.1, method=MethodKind.EB)
    traj = integrate(neumann_chain(), opts)
    assert traj.jac_updates == 12
    assert len(superlu_calls) == traj.init_lu + traj.lu_count == 2 + 13
    # every refresh tried without eps*I first: the same values, at twice the LUs
    monkeypatch.setattr(stepper_mod, "factorize", lambda a, _perturb=False: linalg.factorize(a))
    superlu_calls.clear()
    plain = integrate(neumann_chain(), opts)
    assert len(superlu_calls) == 2 * (1 + plain.jac_updates)
    assert plain.times == traj.times
    assert np.array_equal(plain.final_state, traj.final_state)


def test_initialization_does_not_remember_the_retry():
    # the circle DAE's h=0 Jacobian is singular at (1, 0), its h>0 ones are not
    sys_ = parse_problem_text("[odes]\nx' = y\n[algebraic]\n0 = x^2 + y^2 - 1\n[init]\nx = 1\ny = 0\n")
    st = Stepper(sys_, SolverOptions(tf=1.0))
    traj = st.integrate()
    assert traj.status is Status.SUCCESS
    assert traj.init_lu == 2
    assert traj.lu_count == traj.jac_updates and not st._perturb


def spy_newton(monkeypatch, st):
    """Record each Newton solve's starting value and converged increment,
    with None marking the start of each step attempt."""
    log = []
    solve = stepper_mod.newton_solve

    def spy(res, f, uu0, *args):
        out = solve(res, f, uu0, *args)
        log.append((np.array(uu0), out.uu.copy()))
        return out

    attempt = st.attempt_step

    def marked(*args):
        log.append(None)
        return attempt(*args)

    monkeypatch.setattr(stepper_mod, "newton_solve", spy)
    st.attempt_step = marked
    return log


def attempts(log):
    """The solves of each attempt, after initialization's."""
    out = []
    for entry in log:
        if entry is None:
            out.append([])
        elif out:
            out[-1].append(entry)
    return out


@pytest.mark.parametrize("kind", [MethodKind.IMPTRAP, MethodKind.RAD], ids=lambda k: k.name)
def test_adaptive_half_steps_start_from_the_full_step(monkeypatch, kind):
    st = Stepper(example2(), SolverOptions(tf=2.0, hmax=0.1, method=kind,
                                           err_denominator="standard"))
    log = spy_newton(monkeypatch, st)
    traj = st.integrate()
    assert traj.status is Status.SUCCESS
    assert not log[0][0].any()   # initialization starts from zero
    whole = [a for a in attempts(log) if len(a) == 3]
    assert len(whole) >= traj.accepted
    n = st.system.n_total
    assert st.n == (2 if kind is MethodKind.RAD else 1) * n
    for (z, uu_h), (p1, uu_1), (p2, _) in whole:
        assert len(z) == st.n and not z.any()
        assert np.array_equal(p1, 0.5 * uu_h)
        assert np.array_equal(p2, uu_h - uu_1)
    if kind is MethodKind.RAD:
        # the interior stage block is predicted too
        assert all(p1[n:].any() and p2[n:].any() for _, (p1, _), (p2, _) in whole)


@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda k: k.name)
def test_fixed_step_and_initialization_start_from_zero(monkeypatch, kind):
    # initialization and each fixed step's full step start from zero; the
    # full step predicts the half steps, as in the adaptive driver
    st = Stepper(example2(), SolverOptions(tf=0.5, fixed_h=0.05, method=kind))
    log = spy_newton(monkeypatch, st)
    traj = st.integrate()
    assert traj.accepted == 10
    assert not log[0][0].any()
    steps = attempts(log)
    assert len(steps) == 10
    for (z, uu_h), (p1, uu_1), (p2, _) in steps:
        assert len(z) == st.n and not z.any()
        assert np.array_equal(p1, 0.5 * uu_h)
        assert np.array_equal(p2, uu_h - uu_1)


def test_algebraic_invariant_tracks_tolerance():
    # on the unit-circle system y^2 + z^2 = 1 must hold at every record
    atol = 1e-8
    traj = integrate(example1(), SolverOptions(tf=1.0, atol=atol))
    worst = max(abs(s[0] ** 2 + s[1] ** 2 - 1.0) for s in traj.states)
    assert worst <= 10 * atol


def test_initialization_projects_onto_constraint():
    # ex1 starts with z0 = 0.95, off the constraint y^2 + z^2 = 1 at y = 0
    st = Stepper(example1(), SolverOptions(tf=1.0, atol=1e-8))
    state, _ = st.initialize()
    assert state[0] == 0.0
    assert state[1] == pytest.approx(1.0, abs=1e-9)


def test_tighter_tolerance_takes_more_steps():
    loose = integrate(decay(), SolverOptions(tf=1.0, atol=1e-4))
    tight = integrate(decay(), SolverOptions(tf=1.0, atol=1e-9))
    assert tight.accepted > loose.accepted


def test_fixed_step_driver():
    opt = SolverOptions(tf=1.0, atol=1e-10, method=MethodKind.CN,
                        fixed_h=0.05, iter=10, hinit=0.05, hmax=0.05)
    traj = integrate_fixed(decay(), opt)
    assert traj.accepted == traj.jac_updates == traj.lu_count == 20
    assert traj.final_time == 1.0
    assert traj.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-7)
    with pytest.raises(ValueError):
        integrate_fixed(decay(), SolverOptions(tf=1.0, atol=1e-8, fixed_h=0.3,
                                               hinit=0.3, hmax=0.5))
    with pytest.raises(ValueError, match="fixed_h must be set"):
        integrate_fixed(decay(), SolverOptions(tf=1.0))


@pytest.mark.parametrize("kind", [MethodKind.IMPTRAP, MethodKind.EB], ids=lambda k: k.name)
def test_fixed_step_counts_the_steps_kept_with_an_unconverged_solve(kind):
    # Van der Pol at h = 0.1 with 5 iterations: 101 (IMPTRAP) and 247 (EB)
    # of the 300 step solves stop unconverged, in 52 and in all 100 steps;
    # the driver keeps each step and counts it
    traj = integrate_fixed(example2(), SolverOptions(tf=10.0, fixed_h=0.1, method=kind))
    assert traj.status is Status.SUCCESS
    assert traj.accepted == 100
    assert traj.conv_fails == {MethodKind.IMPTRAP: 52, MethodKind.EB: 100}[kind]
    assert traj.rejected == traj.err_fails == 0


def test_fixed_step_order_runs_converge_every_solve():
    # criterion 04's runs: 18,032 Newton solves, none unconverged
    for kind in MethodKind:
        for extrapolate in (False, True):
            for h in (0.02, 0.01, 0.005, 0.0025):
                traj = integrate_fixed(example1(), SolverOptions(
                    tf=1.0, atol=1e-12, hinit=h, hmax=1.0, fixed_h=h,
                    ntot=2000, iter=12, method=kind, extrapolate=extrapolate))
                assert traj.conv_fails == 0, (kind, extrapolate, h)


def test_integrate_honours_fixed_h():
    opt = SolverOptions(tf=1, fixed_h=0.25, hinit=0.25, hmax=0.25)
    traj = integrate(decay(), opt)
    assert traj.status is Status.SUCCESS
    assert traj.accepted == 4 and traj.times == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert np.array_equal(traj.final_state, integrate_fixed(decay(), opt).final_state)


def test_stepper_integrate_honours_fixed_h():
    # the method the benchmark and most callers use picks the driver too:
    # ten fixed steps, not an adaptive run from the default hinit
    opt = SolverOptions(tf=1, fixed_h=0.1)
    traj = Stepper(example2(), opt).integrate()
    fixed = integrate_fixed(example2(), opt)
    assert traj.status is Status.SUCCESS
    assert traj.accepted == traj.jac_updates == 10 and traj.times[1] == 0.1
    assert traj.times == fixed.times
    assert all(np.array_equal(a, b) for a, b in zip(traj.states, fixed.states))


def test_csv_output_shape():
    traj = integrate(decay(), SolverOptions(tf=1.0, atol=1e-6))
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == len(traj.times) + 2  # header + rows + summary
    assert lines[-1].startswith("# accepted=")


def test_ntot_limit_reported():
    traj = integrate(decay(), SolverOptions(tf=1.0, atol=1e-10, ntot=3))
    assert traj.status is Status.TOO_MANY_STEPS
    assert traj.accepted == 3


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tf=-1.0, atol=1e-6)
    with pytest.raises(ValueError):
        SolverOptions(tf=1.0, atol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(tf=1.0, atol=1e-6, hinit=0.5, hmax=0.1)
    with pytest.raises(ValueError):
        SolverOptions(tf=1.0, atol=1e-6, err_denominator="other")
    for fixed_h in (0.0, -0.5, math.nan, math.inf, 0.3, 1e-320):
        with pytest.raises(ValueError, match="fixed_h"):
            SolverOptions(tf=1.0, fixed_h=fixed_h)
    assert SolverOptions(tf=1.0, fixed_h=0.1).fixed_h == 0.1
