"""Expression text syntax: parsing, precedence, printing round trips."""

import math

import numpy as np
import pytest

from sparsedae import expr as ex
from sparsedae.grammar import _MAX_DEPTH, ExprSyntaxError, parse_expr

from expr_reference import eval_expr, format_expr, free_params


VARS = ["x", "y", "z"]


def ev(text, u, params=None):
    return eval_expr(parse_expr(text, VARS), u, params or {})


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4", [0, 0, 0]) == 14.0
    assert ev("2 * 3 ^ 2", [0, 0, 0]) == 18.0
    assert ev("2 ^ 3 ^ 2", [0, 0, 0]) == 512.0      # right-associative
    assert ev("10 - 4 - 3", [0, 0, 0]) == 3.0       # left-associative
    assert ev("-x^2", [3.0, 0, 0]) == -9.0


def test_variables_vs_parameters():
    e = parse_expr("mu * x + y", VARS)
    assert ex.free_unknowns(e) == [1, 2]
    assert free_params(e) == {"mu"}
    assert eval_expr(e, [2.0, 1.0, 0.0], {"mu": 3.0}) == 7.0


def test_functions():
    assert ev("exp(ln(x))", [2.5, 0, 0]) == pytest.approx(2.5)
    assert ev("ln(exp(1))", [0, 0, 0]) == pytest.approx(1.0)


def test_piecewise_syntax():
    e = parse_expr("piecewise(x < 0, -x, x*x)", VARS)
    assert eval_expr(e, [-3.0, 0, 0], {}) == 3.0
    assert eval_expr(e, [2.0, 0, 0], {}) == 4.0


def test_piecewise_multiple_branches():
    e = parse_expr("piecewise(x < 0, 0, x >= 1, 1, x)", VARS)
    assert eval_expr(e, [-5.0, 0, 0], {}) == 0.0
    assert eval_expr(e, [0.5, 0, 0], {}) == 0.5
    assert eval_expr(e, [2.0, 0, 0], {}) == 1.0


def test_syntax_errors():
    for bad in ("x +", "(x", "x ** y", "piecewise(x)", "sin(x)", "1 2"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad, VARS)


def test_tokenizer_names_an_unexpected_character_and_skips_trailing_space():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x $ 1", ["x"])
    assert str(err.value) == "unexpected character at ' $ 1'"
    assert parse_expr("x + 1   ", ["x"]) == parse_expr("x + 1", ["x"])


def test_nesting_limit_is_a_fixed_count_of_parser_calls():
    # "-" * k + "x" nests k + 2 parser calls: expr, one unary per sign, x's unary
    assert parse_expr("-" * (_MAX_DEPTH - 2) + "x", VARS) == ex.U(1)
    with pytest.raises(ExprSyntaxError, match="nested too deeply") as err:
        parse_expr("-" * (_MAX_DEPTH - 1) + "x", VARS)
    assert err.value.__context__ is None   # the limit, not the RecursionError backstop


def test_format_round_trip_random_corpus():
    rng = np.random.default_rng(7)

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.3:
            choice = rng.integers(0, 3)
            if choice == 0:
                return ex.Const(float(rng.uniform(0.5, 3.0)))
            if choice == 1:
                return ex.U(int(rng.integers(1, 4)))
            return ex.Param("k")
        a, b = rand_tree(depth - 1), rand_tree(depth - 1)
        op = rng.integers(0, 5)
        if op == 0:
            return ex.add(a, b)
        if op == 1:
            return ex.mul(a, b)
        if op == 2:
            return ex.div(a, ex.add(ex.mul(b, b), 1.0))
        if op == 3:
            return ex.exp(ex.mul(0.2, a))
        return ex.neg(a)

    for _ in range(40):
        e = rand_tree(4)
        text = format_expr(e, VARS)
        back = parse_expr(text, VARS)
        u = rng.uniform(0.5, 1.5, size=3)
        v1 = eval_expr(e, u, {"k": 1.3})
        v2 = eval_expr(back, u, {"k": 1.3})
        assert v1 == pytest.approx(v2, rel=1e-13), text


def test_format_piecewise_round_trip():
    e = parse_expr("piecewise(z >= 0.7, x, 0.5*x)", VARS)
    back = parse_expr(format_expr(e, VARS), VARS)
    for zz in (0.2, 0.7, 0.9):
        assert (eval_expr(e, [2.0, 0, zz], {})
                == eval_expr(back, [2.0, 0, zz], {}))
