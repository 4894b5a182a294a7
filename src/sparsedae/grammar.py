"""Plain-text expression grammar for problem files and the CLI.

Infix syntax with ``+ - * / ^``, functions ``exp``, ``ln`` and
``piecewise(cond1, e1, ..., default)``, where a condition compares an
expression against a numeric constant with one of ``< <= > >=``.

Unknowns are written as their declared variable names; any other identifier
parses as a late-bound parameter.
"""

from __future__ import annotations

import operator
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


# binary operator -> (precedence, node builder); a higher precedence binds tighter
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub),
           "*": (2, operator.mul), "/": (2, operator.truediv)}
_FUNCTIONS = {"exp": ex.exp, "ln": ex.ln}
# the deepest the parser recurses, in calls of its own methods (three per
# level of parentheses); it is reached before Python's default recursion
# limit of 1000 from a caller up to about 145 frames deep
_MAX_DEPTH = 850


class _Parser:
    """Precedence climbing over ``_BINARY`` in ``expr``, recursive descent below it.

    ``depth`` is the number of parser calls a method runs nested in; ``unary``,
    which every nesting passes through, enforces ``_MAX_DEPTH``."""

    def __init__(self, tokens, var_index: Mapping[str, int]):
        self.toks = tokens
        self.i = 0
        self.var_index = var_index

    def peek_op(self) -> Optional[str]:
        kind, val = self.toks[self.i]
        return val if kind == "op" else None

    def next(self):
        self.i += 1
        return self.toks[self.i - 1]

    def accept(self, ops) -> Optional[str]:
        """Consume and return the next token if it is an operator in ``ops``."""
        op = self.peek_op()
        if op in ops:
            self.i += 1
            return op
        return None

    def close(self, node):
        """``node``, once the ``)`` that must follow it is consumed."""
        if not self.accept((")",)):
            raise ExprSyntaxError(f"expected ')', got {self.toks[self.i][1]!r}")
        return node

    def expr(self, depth: int, level: int = 0) -> ex.Expr:
        """Unary operands joined by operators binding tighter than ``level``, folded left."""
        node = self.unary(depth + 1)
        while (op := self.peek_op()) in _BINARY and _BINARY[op][0] > level:
            self.next()
            prec, build = _BINARY[op]
            node = build(node, self.expr(depth + 1, prec))
        return node

    def unary(self, depth: int) -> ex.Expr:
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply")
        sign = self.accept(("-", "+"))
        if sign:
            return -self.unary(depth + 1) if sign == "-" else self.unary(depth + 1)
        base = self.atom(depth + 1)
        if self.accept(("^",)):
            return ex.pow_(base, self.unary(depth + 1))  # right-associative
        return base

    def atom(self, depth: int) -> ex.Expr:
        kind, val = self.next()
        if kind == "num":
            return ex.const(val)
        if (kind, val) == ("op", "("):
            return self.close(self.expr(depth + 1))
        if kind != "name":
            raise ExprSyntaxError(f"unexpected token {val!r}")
        if not self.accept(("(",)):
            return ex.U(self.var_index[val]) if val in self.var_index else ex.Param(val)
        if val == "piecewise":
            return self.piecewise(depth + 1)
        if val not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {val!r}")
        return self.close(_FUNCTIONS[val](self.expr(depth + 1)))

    def piecewise(self, depth: int) -> ex.Expr:
        """The arguments ``cond1, e1, ..., default)`` of ``piecewise(``."""
        args = [self.argument(depth + 1)]
        while self.accept((",",)):
            args.append(self.argument(depth + 1))
        self.close(args)
        last = len(args) - 1
        if last < 2 or last % 2 or any(isinstance(a, tuple) != (j % 2 == 0 and j < last)
                                       for j, a in enumerate(args)):
            raise ExprSyntaxError("piecewise needs condition, value pairs and then a default")
        return ex.piecewise([ex.Branch(*args[j], args[j + 1]) for j in range(0, last, 2)], args[-1])

    def argument(self, depth: int):
        """An expression, or a condition ``expr < c`` as a (test, op, c) tuple."""
        node = self.expr(depth + 1)
        op = self.accept(("<", "<=", ">", ">="))
        if not op:
            return node
        sign = -1.0 if self.accept(("-",)) else 1.0
        kind, val = self.next()
        if kind != "num":
            raise ExprSyntaxError("piecewise condition must compare against a constant")
        return (node, op, sign * val)


def parse_expr(text: str, var_names: Optional[Sequence[str]] = None) -> ex.Expr:
    """Parse ``text``; names in ``var_names`` become unknowns (1-based, in
    list order), all other identifiers become parameters."""
    var_index = {name: i + 1 for i, name in enumerate(var_names or [])}
    p = _Parser(_tokenize(text), var_index)
    try:
        node = p.expr(1)
    except RecursionError:
        # a backstop for a caller whose own stack leaves too little room
        raise ExprSyntaxError("expression nested too deeply") from None
    kind, val = p.next()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input starting at {val!r}")
    return node
