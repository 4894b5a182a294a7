"""Plain-text expression grammar for problem files and the CLI.

Infix syntax with ``+ - * / ^``, functions ``exp``, ``ln`` and
``piecewise(cond1, e1, ..., default)``, where a condition compares an
expression against a numeric constant with one of ``< <= > >=``.

Unknowns are written as their declared variable names; any other identifier
parses as a late-bound parameter.  ``format_expr`` prints a form that parses
back to the identical tree (round-trip up to whitespace).
"""

from __future__ import annotations

import re
from typing import Mapping, Optional, Sequence

from . import expr as ex

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\[\d+(?:,\d+)*\])?)"
    r"|(?P<op><=|>=|<|>|[-+*/^(),]))"
)


class ExprSyntaxError(ValueError):
    pass


def _tokenize(text: str):
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprSyntaxError(f"unexpected character at {text[pos:pos+10]!r}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, var_index: Mapping[str, int]):
        self.toks = tokens
        self.i = 0
        self.var_index = var_index

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, got {val!r}")

    def parse_expr(self) -> ex.Expr:
        node = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.next()
                rhs = self.parse_term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def parse_term(self) -> ex.Expr:
        node = self.parse_unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in ("*", "/"):
                self.next()
                rhs = self.parse_unary()
                node = node * rhs if val == "*" else node / rhs
            else:
                return node

    def parse_unary(self) -> ex.Expr:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.parse_unary()
        if kind == "op" and val == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> ex.Expr:
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent = self.parse_unary()  # right-associative
            return ex.pow_(base, exponent)
        return base

    def parse_atom(self) -> ex.Expr:
        kind, val = self.next()
        if kind == "num":
            return ex.const(val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "name":
            pk, pv = self.peek()
            if pk == "op" and pv == "(":
                return self.parse_call(val)
            if val in self.var_index:
                return ex.U(self.var_index[val])
            return ex.Param(val)
        raise ExprSyntaxError(f"unexpected token {val!r}")

    def parse_call(self, name: str) -> ex.Expr:
        self.expect_op("(")
        if name == "exp":
            node = ex.exp(self.parse_expr())
            self.expect_op(")")
            return node
        if name == "ln":
            node = ex.ln(self.parse_expr())
            self.expect_op(")")
            return node
        if name == "piecewise":
            return self.parse_piecewise()
        raise ExprSyntaxError(f"unknown function {name!r}")

    def parse_piecewise(self) -> ex.Expr:
        # arguments: cond1, e1, cond2, e2, ..., default
        items = [self.parse_piecewise_arg()]
        while True:
            kind, val = self.next()
            if kind == "op" and val == ")":
                break
            if not (kind == "op" and val == ","):
                raise ExprSyntaxError(f"expected ',' or ')' in piecewise, got {val!r}")
            items.append(self.parse_piecewise_arg())
        if len(items) < 3 or len(items) % 2 != 1:
            raise ExprSyntaxError("piecewise needs cond/value pairs plus a default")
        branches = []
        for j in range(0, len(items) - 1, 2):
            cond, value = items[j], items[j + 1]
            if not isinstance(cond, tuple):
                raise ExprSyntaxError("piecewise argument at an odd position must be a condition")
            if isinstance(value, tuple):
                raise ExprSyntaxError("piecewise branch value cannot be a condition")
            test, op, threshold = cond
            branches.append(ex.Branch(test, op, threshold, value))
        default = items[-1]
        if isinstance(default, tuple):
            raise ExprSyntaxError("piecewise default cannot be a condition")
        return ex.piecewise(branches, default)

    def parse_piecewise_arg(self):
        node = self.parse_expr()
        kind, val = self.peek()
        if kind == "op" and val in ("<", "<=", ">", ">="):
            self.next()
            nk, nv = self.next()
            sign = 1.0
            if nk == "op" and nv == "-":
                sign = -1.0
                nk, nv = self.next()
            if nk != "num":
                raise ExprSyntaxError("piecewise condition must compare against a constant")
            return (node, val, sign * nv)
        return node


def parse_expr(text: str, var_names: Optional[Sequence[str]] = None) -> ex.Expr:
    """Parse ``text``; names in ``var_names`` become unknowns (1-based, in
    list order), all other identifiers become parameters."""
    var_index = {name: i + 1 for i, name in enumerate(var_names or [])}
    p = _Parser(_tokenize(text), var_index)
    node = p.parse_expr()
    kind, val = p.next()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input starting at {val!r}")
    if isinstance(node, tuple):
        raise ExprSyntaxError("a bare condition is not an expression")
    return node


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
