"""A tree-walking reference evaluator, independent of the compiled path.

The library evaluates residuals and Jacobians only through generated code
(``sparsedae.codegen``).  ``eval_expr`` walks an expression tree with Python
floats instead, so tests use it as an oracle for the parser, the symbolic
derivatives and the compiled functions.
"""

import math
from typing import Mapping, Sequence

from sparsedae import expr as ex
from sparsedae.errors import NonFiniteValue, UnboundSymbol


def eval_expr(e: ex.Expr, uu: Sequence[float], params: Mapping[str, float]) -> float:
    """Numeric value of ``e`` at the 1-based unknown vector ``uu``.

    Raises UnboundSymbol for a missing unknown index or parameter name and
    NonFiniteValue for overflow, ln of a non-positive argument, or division
    by zero.  Deterministic and side-effect free.
    """
    try:
        v = _eval(e, uu, params)
    except (ZeroDivisionError, OverflowError):
        raise NonFiniteValue("evaluation overflowed or divided by zero")
    except ValueError:
        raise NonFiniteValue("ln of a non-positive argument")
    if not math.isfinite(v):
        raise NonFiniteValue("evaluation produced a non-finite value")
    return v


def _eval(e: ex.Expr, uu, params) -> float:
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.U):
        if not 1 <= e.index <= len(uu):
            raise UnboundSymbol(f"unknown index {e.index} outside 1..{len(uu)}")
        return float(uu[e.index - 1])
    if isinstance(e, ex.Param):
        try:
            return float(params[e.name])
        except KeyError:
            raise UnboundSymbol(f"parameter {e.name!r} is not bound")
    if isinstance(e, ex.Add):
        return sum(_eval(t, uu, params) for t in e.terms)
    if isinstance(e, ex.Mul):
        v = 1.0
        for f in e.factors:
            v *= _eval(f, uu, params)
        return v
    if isinstance(e, ex.Div):
        return _eval(e.num, uu, params) / _eval(e.den, uu, params)
    if isinstance(e, ex.Pow):
        return _eval(e.base, uu, params) ** e.exponent
    if isinstance(e, ex.Neg):
        return -_eval(e.arg, uu, params)
    if isinstance(e, ex.ExpF):
        return math.exp(_eval(e.arg, uu, params))
    if isinstance(e, ex.LnF):
        return math.log(_eval(e.arg, uu, params))
    if isinstance(e, ex.Piecewise):
        for b in e.branches:
            t = _eval(b.test, uu, params)
            if _compare(t, b.op, b.threshold):
                return _eval(b.value, uu, params)
        return _eval(e.default, uu, params)
    raise TypeError(f"unhandled node {type(e).__name__}")


def _compare(lhs: float, op: str, rhs: float) -> bool:
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    return lhs >= rhs
