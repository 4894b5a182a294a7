"""Expression tree: evaluation, differentiation, scanning, substitution."""

import math

import numpy as np
import pytest

from sparsedae import expr as ex
from sparsedae.errors import NonFiniteValue

from expr_reference import UnboundSymbol, eval_expr, free_params


def test_eval_basic_arithmetic():
    e = (ex.U(1) + 2.0) * ex.U(2) - ex.U(1) / 4.0
    assert eval_expr(e, [2.0, 3.0], {}) == pytest.approx(11.5)


def test_eval_params_and_functions():
    e = ex.exp(ex.Param("a") * ex.U(1)) + ex.ln(ex.U(2))
    got = eval_expr(e, [0.5, 2.0], {"a": -2.0})
    assert got == pytest.approx(math.exp(-1.0) + math.log(2.0))


def test_eval_unbound_param_raises():
    with pytest.raises(UnboundSymbol):
        eval_expr(ex.Param("missing"), [], {})


def test_eval_nonfinite_raises():
    with pytest.raises(NonFiniteValue):
        eval_expr(ex.U(1) / ex.U(2), [1.0, 0.0], {})
    with pytest.raises(NonFiniteValue):
        eval_expr(ex.ln(ex.U(1)), [-1.0], {})


def test_constant_folding():
    assert ex.add(ex.Const(2.0), ex.Const(3.0)) == ex.Const(5.0)
    assert ex.mul(ex.Const(0.0), ex.U(1)) == ex.Const(0.0)
    assert ex.mul(ex.Const(1.0), ex.U(1)) == ex.U(1)
    assert ex.add(ex.Const(0.0), ex.U(2)) == ex.U(2)


@pytest.mark.parametrize("build", [
    lambda: ex.mul(-1e308, 10.0, ex.U(1)),
    lambda: ex.add(1e308, 1e308, ex.U(1)),
    lambda: ex.mul(ex.U(1), math.inf),
    lambda: ex.div(ex.U(1), ex.mul(1e-320, 1e-10)),
    lambda: ex.div(1.0, 1e-320),
    lambda: ex.exp(1000.0),
    lambda: ex.pow_(1e200, 2.0),
    lambda: ex.pow_(0.0, -1.0),
    lambda: ex.pow_(-8.0, 0.5),
])
def test_nonfinite_constant_fold_raises(build):
    with pytest.raises(NonFiniteValue):
        build()


def test_pow_integer_derivative():
    e = ex.pow_(ex.U(1), 3.0)
    d = ex.diff(e, 1)
    assert eval_expr(d, [2.0], {}) == pytest.approx(12.0)


def test_general_power_is_lowered():
    # a^b with non-constant exponent goes through exp/ln
    e = ex.pow_(ex.U(1), ex.U(2))
    got = eval_expr(e, [2.0, 3.5], {})
    assert got == pytest.approx(2.0 ** 3.5)


def test_piecewise_eval_and_diff():
    e = ex.piecewise([ex.Branch(ex.U(1), "<", 0.0, ex.neg(ex.U(1)))],
                     ex.U(1) * ex.U(1))
    assert eval_expr(e, [-2.0], {}) == pytest.approx(2.0)
    assert eval_expr(e, [3.0], {}) == pytest.approx(9.0)
    d = ex.diff(e, 1)
    assert eval_expr(d, [-2.0], {}) == pytest.approx(-1.0)
    assert eval_expr(d, [3.0], {}) == pytest.approx(6.0)


def test_free_unknowns_sorted_unique():
    e = ex.U(3) * ex.U(1) + ex.U(3) + ex.Param("a")
    assert ex.free_unknowns(e) == [1, 3]
    assert free_params(e) == {"a"}
    assert ex.free_unknowns(ex.pow_(ex.U(3), 2.5)) == [3]


def test_substitute_shifts_indices():
    e = ex.U(1) + ex.exp(ex.U(2))
    s = ex.substitute(e, {1: ex.U(5), 2: ex.U(6) * 0.5})
    assert ex.free_unknowns(s) == [5, 6]
    assert eval_expr(s, [0, 0, 0, 0, 1.0, 2.0], {}) == pytest.approx(
        1.0 + math.exp(1.0))


def _random_expr(rng, depth):
    """Random tree avoiding ln/division domain edges (positive-leaning leaves)."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            return ex.Const(float(rng.uniform(0.3, 2.0)))
        if kind == 1:
            return ex.U(int(rng.integers(1, 4)))
        return ex.Param("a")
    op = rng.integers(0, 6)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if op == 0:
        return ex.add(a, b)
    if op == 1:
        return ex.mul(a, b)
    if op == 2:
        return ex.div(a, ex.add(ex.mul(b, b), ex.Const(1.0)))
    if op == 3:
        return ex.exp(ex.mul(a, ex.Const(0.3)))
    if op == 4:
        return ex.ln(ex.add(ex.mul(a, a), ex.Const(1.0)))
    return ex.neg(a)


def test_derivative_matches_finite_difference_on_random_corpus():
    rng = np.random.default_rng(2024)
    params = {"a": 0.7}
    checked = 0
    for _ in range(60):
        e = _random_expr(rng, depth=5)
        for k in (1, 2, 3):
            d = ex.diff(e, k)
            u = rng.uniform(0.4, 1.6, size=3)
            up, um = u.copy(), u.copy()
            eps = 1e-6
            up[k - 1] += eps
            um[k - 1] -= eps
            fd = (eval_expr(e, up, params) - eval_expr(e, um, params)) / (2 * eps)
            exact = eval_expr(d, u, params)
            assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact)), (e, k)
            checked += 1
    assert checked == 180


def test_diff_wrt_absent_unknown_is_zero():
    assert ex.diff(ex.U(1) * 2.0, 2) == ex.Const(0.0)
