"""Tree walks that only tests need, independent of the compiled path.

The library evaluates residuals and Jacobians only through generated code
(``sparsedae.codegen``).  ``eval_expr`` walks an expression tree with Python
floats instead, so tests use it as an oracle for the parser, the symbolic
derivatives and the compiled functions.  ``symbols`` lists a tree's
leaves other than constants and ``free_params`` its parameters' names, and
``format_expr`` prints a tree in the grammar's syntax, so that printing and
parsing back checks the parser.
"""

import dataclasses
import math
from typing import Mapping, Optional, Sequence

from sparsedae import expr as ex
from sparsedae.errors import NonFiniteValue, SparseDaeError


class UnboundSymbol(SparseDaeError):
    """An unknown index, base-state entry, parameter name or the step size
    has no value bound to it."""


def eval_expr(e: ex.Expr, uu: Sequence[float], params: Mapping[str, float],
              base: Sequence[float] = (), h: Optional[float] = None) -> float:
    """Numeric value of ``e`` at the 1-based unknown vector ``uu``, with
    ``Base(k)`` read from the 1-based ``base`` and ``H`` bound to ``h``.

    Raises UnboundSymbol for a missing unknown index, base-state entry,
    parameter name or step size and NonFiniteValue for overflow, ln of a
    non-positive argument, or division by zero.  Deterministic and
    side-effect free.
    """
    try:
        v = _eval(e, uu, params, base, h)
    except (ZeroDivisionError, OverflowError):
        raise NonFiniteValue("evaluation overflowed or divided by zero")
    except ValueError:
        raise NonFiniteValue("ln of a non-positive argument")
    if not math.isfinite(v):
        raise NonFiniteValue("evaluation produced a non-finite value")
    return v


def _eval(e: ex.Expr, uu, params, base, h) -> float:
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.U):
        if not 1 <= e.index <= len(uu):
            raise UnboundSymbol(f"unknown index {e.index} outside 1..{len(uu)}")
        return float(uu[e.index - 1])
    if isinstance(e, ex.Base):
        if not 1 <= e.index <= len(base):
            raise UnboundSymbol(f"base-state entry {e.index} outside 1..{len(base)}")
        return float(base[e.index - 1])
    if isinstance(e, ex.StepSize):
        if h is None:
            raise UnboundSymbol("the step size is not bound")
        return float(h)
    if isinstance(e, ex.Param):
        try:
            return float(params[e.name])
        except KeyError:
            raise UnboundSymbol(f"parameter {e.name!r} is not bound")
    if isinstance(e, ex.Add):
        return sum(_eval(t, uu, params, base, h) for t in e.terms)
    if isinstance(e, ex.Mul):
        v = 1.0
        for f in e.factors:
            v *= _eval(f, uu, params, base, h)
        return v
    if isinstance(e, ex.Div):
        return _eval(e.num, uu, params, base, h) / _eval(e.den, uu, params, base, h)
    if isinstance(e, ex.Pow):
        return _eval(e.base, uu, params, base, h) ** e.exponent
    if isinstance(e, ex.Neg):
        return -_eval(e.arg, uu, params, base, h)
    if isinstance(e, ex.ExpF):
        return math.exp(_eval(e.arg, uu, params, base, h))
    if isinstance(e, ex.LnF):
        return math.log(_eval(e.arg, uu, params, base, h))
    if isinstance(e, ex.Piecewise):
        for b in e.branches:
            t = _eval(b.test, uu, params, base, h)
            if _compare(t, b.op, b.threshold):
                return _eval(b.value, uu, params, base, h)
        return _eval(e.default, uu, params, base, h)
    raise TypeError(f"unhandled node {type(e).__name__}")


def _compare(lhs: float, op: str, rhs: float) -> bool:
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    return lhs >= rhs


def symbols(e) -> set:
    """The leaves of ``e``, an expression or a piecewise Branch, other than
    constants: its unknowns, parameters, base-state entries and step size."""
    if isinstance(e, (ex.U, ex.Param, ex.Base, ex.StepSize)):
        return {e}
    found = set()
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, (ex.Expr, ex.Branch)):
                found |= symbols(child)
    return found


def free_params(e) -> set:
    """Names of the parameters in ``e``, an expression or a piecewise Branch."""
    return {s.name for s in symbols(e) if isinstance(s, ex.Param)}


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def format_expr(e: ex.Expr, var_names: Optional[Sequence[str]] = None) -> str:
    """Print ``e`` in grammar syntax.  Unknown index k prints as
    var_names[k-1] when given, else ``u[k]`` (which re-parses as a parameter,
    so pass var_names for true round-trips)."""
    return _fmt(e, var_names, 0)


# precedence levels: 0 add, 1 mul, 2 unary, 3 power/atom
def _fmt(e: ex.Expr, names, level: int) -> str:
    if isinstance(e, ex.Const):
        s = _fmt_num(e.value)
        return f"({s})" if e.value < 0 and level >= 1 else s
    if isinstance(e, ex.U):
        return names[e.index - 1] if names else f"u[{e.index}]"
    if isinstance(e, ex.Param):
        return e.name
    if isinstance(e, ex.Add):
        s = " + ".join(_fmt(t, names, 1) for t in e.terms)
        return f"({s})" if level >= 1 else s
    if isinstance(e, ex.Mul):
        s = " * ".join(_fmt(f, names, 2) for f in e.factors)
        return f"({s})" if level >= 2 else s
    if isinstance(e, ex.Div):
        s = f"{_fmt(e.num, names, 2)} / {_fmt(e.den, names, 2)}"
        return f"({s})" if level >= 2 else s
    if isinstance(e, ex.Neg):
        s = f"-{_fmt(e.arg, names, 2)}"
        return f"({s})" if level >= 2 else s
    if isinstance(e, ex.Pow):
        return f"{_fmt(e.base, names, 3)} ^ ({_fmt_num(e.exponent)})"
    if isinstance(e, ex.ExpF):
        return f"exp({_fmt(e.arg, names, 0)})"
    if isinstance(e, ex.LnF):
        return f"ln({_fmt(e.arg, names, 0)})"
    if isinstance(e, ex.Piecewise):
        parts = []
        for b in e.branches:
            parts.append(f"{_fmt(b.test, names, 0)} {b.op} {_fmt_num(b.threshold)}")
            parts.append(_fmt(b.value, names, 0))
        parts.append(_fmt(e.default, names, 0))
        return "piecewise(" + ", ".join(parts) + ")"
    raise TypeError(f"unhandled node {type(e).__name__}")
