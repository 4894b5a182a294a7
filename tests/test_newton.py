"""Modified Newton iteration against frozen LU factors."""

import numpy as np
import pytest

from sparsedae import expr as ex
from sparsedae import newton as newton_mod
from sparsedae.codegen import CompiledResidual, group_shapes
from sparsedae.errors import NonFiniteResidual
from sparsedae.linalg import factorize, solve
from sparsedae.newton import NewtonOutcome, newton_solve

from matrix_helpers import from_dense


def make_residual(exprs, params=None):
    layout = {name: k for k, name in enumerate(sorted(params or {}))}
    res = CompiledResidual(group_shapes(exprs, layout), layout)
    res.set_params(params or {})
    return res


def test_linear_system_converges_in_one_iteration():
    # R(u) = A u - rhs with the exact Jacobian factorized
    exprs = [2.0 * ex.U(1) + ex.U(2) - 3.0,
             ex.U(1) + 3.0 * ex.U(2) - 4.0]
    res = make_residual(exprs)
    f = factorize(from_dense(np.array([[2.0, 1.0], [1.0, 3.0]])))
    out = newton_solve(res, f, np.zeros(2), max_iter=5, ctol=1e-12)
    assert out.converged
    assert out.iterations <= 2  # exact solve, second pass only confirms
    assert out.uu == pytest.approx([1.0, 1.0])


def test_residual_too_large_to_square_converges():
    # residual entries near 2e200 overflow evaluate's sum-of-squares screen;
    # the exact isfinite test must clear them
    exprs = [1e200 * ex.U(1) - 2e200, 1e200 * ex.U(2) + 3e200]
    res = make_residual(exprs)
    f = factorize(from_dense(np.diag([1e200, 1e200])))
    with np.errstate(all="ignore"):
        out = newton_solve(res, f, np.zeros(2), max_iter=5, ctol=1e-12)
    assert out.converged
    assert out.uu.tolist() == [2.0, -3.0]


def test_quadratic_convergence_with_fresh_jacobian():
    # u^2 - 2 = 0 from u0 = 1.5 with J evaluated at u0 and frozen:
    # linear contraction, but still reaches sqrt(2)
    res = make_residual([ex.U(1) * ex.U(1) - 2.0])
    f = factorize(from_dense(np.array([[3.0]])))  # 2*u0
    out = newton_solve(res, f, np.array([1.5]), max_iter=30, ctol=1e-13)
    assert out.converged
    assert out.uu[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_budget_exhaustion_is_not_an_error():
    # badly scaled frozen Jacobian: converges too slowly to finish
    res = make_residual([ex.U(1) * ex.U(1) - 2.0])
    f = factorize(from_dense(np.array([[40.0]])))
    out = newton_solve(res, f, np.array([1.5]), max_iter=3, ctol=1e-13)
    assert isinstance(out, NewtonOutcome)
    assert not out.converged
    assert out.iterations == 3
    assert np.isfinite(out.correction_norm)


def test_early_exit_on_small_correction():
    res = make_residual([ex.U(1) - 1.0])
    f = factorize(from_dense(np.array([[1.0]])))
    out = newton_solve(res, f, np.array([1.0 + 1e-15]), max_iter=50, ctol=1e-8)
    assert out.converged
    assert out.iterations == 1


def test_nonfinite_residual_raises():
    res = make_residual([ex.ln(ex.U(1))])
    f = factorize(from_dense(np.array([[1.0]])))
    # outside the integrators' errstate numpy warns of the log's domain error
    with pytest.raises(NonFiniteResidual), pytest.warns(RuntimeWarning):
        newton_solve(res, f, np.array([-0.5]), max_iter=5, ctol=1e-10)


def test_nonfinite_correction_raises():
    # the residual is finite, but its solve against a tiny pivot overflows
    res = make_residual([1e-300 * ex.U(1) - 1e10])
    f = factorize(from_dense(np.array([[1e-300]])))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResidual, match="correction went non-finite"):
        newton_solve(res, f, np.zeros(1), max_iter=5, ctol=1e-10)


@pytest.mark.parametrize("row", [0, 1, 2], ids=["first", "middle", "last"])
def test_correction_that_overflows_at_any_entry_raises(row):
    # a dense diagonal LU with a 1e-300 pivot in one row: that row's
    # correction overflows while the residual stays finite
    pivots = [1.0, 1.0, 1.0]
    pivots[row] = 1e-300
    res = make_residual([p * ex.U(i) - 1e10 for i, p in enumerate(pivots, start=1)])
    f = factorize(from_dense(np.diag(pivots)))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResidual, match="correction went non-finite"):
        newton_solve(res, f, np.zeros(3), max_iter=5, ctol=1e-10)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("row", [0, 1, 2], ids=["first", "middle", "last"])
def test_nonfinite_correction_entry_raises_wherever_it_sits(monkeypatch, row, value):
    # the other entries are finite and larger than 1: a maximum that skipped
    # a nan, as some BLAS builds' idamax does, would see only them
    def spoiled_solve(f, r):
        x = solve(f, r)
        x[row] = value
        return x

    monkeypatch.setattr(newton_mod, "solve", spoiled_solve)
    res = make_residual([ex.U(1) - 2.0, ex.U(2) - 3.0, ex.U(3) - 4.0])
    f = factorize(from_dense(np.eye(3)))
    for rate_tol in (None, 1e-8):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResidual, match="correction went non-finite"):
            newton_solve(res, f, np.zeros(3), max_iter=5, ctol=1e-10, rate_tol=rate_tol)


def test_correction_too_large_to_square_is_measured_exactly():
    # corrections near 1e200 overflow the sum-of-squares screen; the exact
    # isfinite test clears them, and the norm is their largest magnitude
    res = make_residual([ex.U(1) - 1e200, ex.U(2) + 3e200, ex.U(3) - 2e200])
    f = factorize(from_dense(np.eye(3)))
    with np.errstate(all="ignore"):
        first = newton_solve(res, f, np.zeros(3), max_iter=1, ctol=1e-12)
        out = newton_solve(res, f, np.zeros(3), max_iter=5, ctol=1e-12, rate_tol=1e-8)
    assert not first.converged and first.correction_norm == 3e200
    assert first.uu.tolist() == [1e200, -3e200, 2e200]
    assert out.converged and out.iterations == 2 and out.correction_norm == 0.0
    assert out.uu.tolist() == [1e200, -3e200, 2e200]


def test_never_factorizes_only_solves(monkeypatch):
    calls = []

    def counting_solve(f, r):
        calls.append(f)
        return solve(f, r)

    monkeypatch.setattr(newton_mod, "solve", counting_solve)
    res = make_residual([ex.U(1) * ex.U(1) - 2.0])
    f = factorize(from_dense(np.array([[3.0]])))
    out = newton_solve(res, f, np.array([1.5]), max_iter=30, ctol=1e-13)
    # one triangular solve per iteration, all against the factors handed in
    assert len(calls) == out.iterations
    assert all(c is f for c in calls)


def test_uu0_length_validated():
    res = make_residual([ex.U(1) - 1.0])
    f = factorize(from_dense(np.array([[1.0]])))
    with pytest.raises(ValueError):
        newton_solve(res, f, np.zeros(2), max_iter=5, ctol=1e-10)


def test_parameters_enter_through_bindings():
    res = make_residual([ex.Param("k") * ex.U(1) - 6.0], params={"k": 2.0})
    f = factorize(from_dense(np.array([[2.0]])))
    out = newton_solve(res, f, np.zeros(1), max_iter=5, ctol=1e-12)
    assert out.uu[0] == pytest.approx(3.0)
    res.set_params({"k": 3.0})
    f2 = factorize(from_dense(np.array([[3.0]])))
    out2 = newton_solve(res, f2, np.zeros(1), max_iter=5, ctol=1e-12)
    assert out2.uu[0] == pytest.approx(2.0)


def test_rate_test_stops_a_linear_contraction_early():
    # R(u) = u - 1 against a frozen slope of 2: each correction halves the
    # error, so theta = 0.5 and theta/(1-theta)*|d_k| is exactly the error left
    res = make_residual([ex.U(1) - 1.0])
    f = factorize(from_dense(np.array([[2.0]])))
    out = newton_solve(res, f, np.zeros(1), max_iter=50, ctol=1e-12, rate_tol=1e-3)
    assert out.converged
    assert out.iterations == 10          # 2^-10 <= 1e-3; the absolute test needs 40
    assert out.theta == pytest.approx(0.5)
    assert abs(out.uu[0] - 1.0) <= 1e-3


def test_rate_test_stops_a_diverging_iteration():
    # a frozen slope of 0.4 for R(u) = u - 1 multiplies the error by -1.5
    res = make_residual([ex.U(1) - 1.0])
    f = factorize(from_dense(np.array([[0.4]])))
    out = newton_solve(res, f, np.zeros(1), max_iter=50, ctol=1e-12, rate_tol=1e-3)
    assert not out.converged
    assert out.iterations == 2
    assert out.theta == pytest.approx(1.5)


def test_without_a_rate_tolerance_only_the_absolute_test_stops():
    res = make_residual([ex.U(1) - 1.0])
    # the slow contraction runs to the absolute test, the divergence to max_iter
    for slope, max_iter, iterations, converged in ((2.0, 50, 40, True), (0.4, 6, 6, False)):
        f = factorize(from_dense(np.array([[slope]])))
        plain = newton_solve(res, f, np.zeros(1), max_iter, 1e-12)
        out = newton_solve(res, f, np.zeros(1), max_iter, 1e-12, rate_tol=None)
        assert (out.iterations, out.converged) == (plain.iterations, plain.converged) == (
            iterations, converged)
        assert out.uu[0] == plain.uu[0]
        assert out.correction_norm == plain.correction_norm
