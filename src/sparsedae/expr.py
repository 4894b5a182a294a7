"""Symbolic scalar expression trees.

Expressions are built over 1-based unknown indices (the ``uu`` vector solved
for at each time step) and late-bound named parameters.  The state a step
starts from, entry by entry (``Base``), and the step size (``H``) are leaves
of their own, not parameters, which only a method residual reads: a source
equation of a ``DaeSystem`` may not.  The node set is deliberately small:
arithmetic, integer/real powers, exp, ln, and piecewise branches whose
conditions compare a subexpression against a constant.

Trees are immutable; construction goes through the smart constructors
(``add``, ``mul``, ...) which do local constant folding and zero/one
elimination only.  No canonicalization beyond that: structural zeros are what
the sparsity detection relies on, not canonical forms.  A constant that
would fold to inf or nan, or a division by the constant zero, raises
NonFiniteValue at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .errors import NonFiniteValue

Number = Union[int, float]

_COMPARE_OPS = ("<", "<=", ">", ">=")


class Expr:
    """Base node. Subclasses are frozen dataclasses; safe to share across threads."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class U(Expr):
    """Unknown, 1-based index into the uu vector."""

    index: int


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Base(Expr):
    """Entry k (1-based) of the base state, the state a step starts from."""

    index: int


@dataclass(frozen=True)
class StepSize(Expr):
    """The step size h; ``H`` is its one instance."""


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """Power with a constant real exponent.  General a^b is lowered to
    exp(b*ln(a)) at construction time."""

    base: Expr
    exponent: float


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class ExpF(Expr):
    arg: Expr


@dataclass(frozen=True)
class LnF(Expr):
    arg: Expr


@dataclass(frozen=True)
class Branch:
    """One piecewise branch: taken when ``test <op> threshold`` holds."""

    test: Expr
    op: str
    threshold: float
    value: Expr


@dataclass(frozen=True)
class Piecewise(Expr):
    """First matching branch wins; boundary values follow listed order."""

    branches: tuple
    default: Expr


ZERO = Const(0.0)
ONE = Const(1.0)
H = StepSize()


def const(value: float) -> Const:
    """A constant node; raises NonFiniteValue for inf or nan."""
    if math.isfinite(value):
        return Const(float(value))
    raise NonFiniteValue(f"constant folds to a non-finite value ({value!r})")


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return const(x)
    raise TypeError(f"cannot build an expression from {type(x).__name__}")


def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


# --- smart constructors -------------------------------------------------


def add(*terms) -> Expr:
    flat = []
    total = 0.0
    for t in terms:
        if not isinstance(t, Expr):
            t = _coerce(t)
        if type(t) is Add:
            flat.extend(t.terms)
        elif type(t) is Const:
            total += t.value
        else:
            flat.append(t)
    # fold constants inherited through flattening
    kept = []
    for t in flat:
        if type(t) is Const:
            total += t.value
        else:
            kept.append(t)
    if total != 0.0:
        kept.append(const(total))
    if not kept:
        return ZERO
    if len(kept) == 1:
        return kept[0]
    return Add(tuple(kept))


def mul(*factors) -> Expr:
    flat = []
    product = 1.0
    for f in factors:
        if not isinstance(f, Expr):
            f = _coerce(f)
        if type(f) is Mul:
            flat.extend(f.factors)
        else:
            flat.append(f)
    kept = []
    for f in flat:
        if type(f) is Const:
            product *= f.value
        else:
            kept.append(f)
    if product == 0.0:
        return ZERO
    if not kept:
        return const(product)
    if product != 1.0:
        kept.insert(0, const(product))
    if len(kept) == 1:
        return kept[0]
    return Mul(tuple(kept))


def div(num, den) -> Expr:
    num, den = _coerce(num), _coerce(den)
    if _is_const(den, 0.0):
        raise NonFiniteValue("division by the constant zero")
    if _is_const(num, 0.0):
        return ZERO
    if _is_const(den, 1.0):
        return num
    if isinstance(num, Const) and isinstance(den, Const):
        return const(num.value / den.value)
    return Div(num, den)


def neg(e) -> Expr:
    e = _coerce(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def pow_(base, exponent) -> Expr:
    base = _coerce(base)
    if isinstance(exponent, Expr):
        if isinstance(exponent, Const):
            exponent = exponent.value
        else:
            # general a^b: lowered with ln-domain error semantics
            return exp(mul(exponent, ln(base)))
    exponent = float(exponent)
    if exponent == 0.0:
        return ONE
    if exponent == 1.0:
        return base
    if isinstance(base, Const):
        try:
            value = base.value ** exponent
        except (OverflowError, ZeroDivisionError):
            raise NonFiniteValue("constant power overflowed or divided by zero")
        if isinstance(value, complex):
            raise NonFiniteValue("constant power of a negative base is not real")
        return const(value)
    return Pow(base, exponent)


def exp(e) -> Expr:
    e = _coerce(e)
    if isinstance(e, Const):
        try:
            return const(math.exp(e.value))
        except OverflowError:
            raise NonFiniteValue("exp of a constant overflowed")
    return ExpF(e)


def ln(e) -> Expr:
    e = _coerce(e)
    if isinstance(e, Const):
        if e.value <= 0.0:
            raise NonFiniteValue("ln of a non-positive constant")
        return const(math.log(e.value))
    return LnF(e)


def piecewise(branches: Sequence[Branch], default) -> Expr:
    default = _coerce(default)
    branches = tuple(branches)
    for b in branches:
        if b.op not in _COMPARE_OPS:
            raise ValueError(f"unsupported comparison {b.op!r}")
    if not branches:
        return default
    return Piecewise(branches, default)


# --- differentiation ----------------------------------------------------


def diff(e: Expr, k: int) -> Expr:
    """Exact symbolic partial derivative d e / d uu_k.

    Structurally-zero results come back as the zero constant (the smart
    constructors fold them).  Piecewise derivatives keep the conditions and
    differentiate the branch values; jumps at branch boundaries are ignored.
    """
    # exact type tests: no node class is subclassed, and setup of a small
    # system spends a visible share of its time here
    t = type(e)
    if t is Const or t is Param or t is Base or t is StepSize:
        return ZERO
    if t is U:
        return ONE if e.index == k else ZERO
    if t is Add:
        return add(*[diff(a, k) for a in e.terms])
    if t is Mul:
        terms = []
        fs = e.factors
        for i in range(len(fs)):
            d = diff(fs[i], k)
            if type(d) is Const and d.value == 0.0:
                continue
            terms.append(mul(*(fs[:i] + (d,) + fs[i + 1:])))
        return add(*terms) if terms else ZERO
    if t is Div:
        dn, dd = diff(e.num, k), diff(e.den, k)
        if type(dd) is Const and dd.value == 0.0:
            return div(dn, e.den)
        return div(add(mul(dn, e.den), neg(mul(e.num, dd))), mul(e.den, e.den))
    if t is Pow:
        db = diff(e.base, k)
        if type(db) is Const and db.value == 0.0:
            return ZERO
        return mul(Const(e.exponent), pow_(e.base, e.exponent - 1.0), db)
    if t is Neg:
        return neg(diff(e.arg, k))
    if t is ExpF:
        da = diff(e.arg, k)
        if type(da) is Const and da.value == 0.0:
            return ZERO
        return mul(e, da)
    if t is LnF:
        da = diff(e.arg, k)
        if type(da) is Const and da.value == 0.0:
            return ZERO
        return div(da, e.arg)
    if t is Piecewise:
        return piecewise(
            tuple(Branch(b.test, b.op, b.threshold, diff(b.value, k)) for b in e.branches),
            diff(e.default, k),
        )
    raise TypeError(f"unhandled node {type(e).__name__}")


# --- structural queries -------------------------------------------------


def free_unknowns(e: Expr) -> list:
    """Sorted, duplicate-free list of unknown indices appearing in ``e``."""
    return sorted(leaf.index for leaf in free_leaves(e) if type(leaf) is U)


def free_leaves(e: Expr) -> set:
    """The set of ``U``, ``Base`` and ``StepSize`` leaves appearing in ``e``."""
    leaves: set = set()
    _collect(e, leaves)
    return leaves


def _collect(e: Expr, leaves: set) -> None:
    # exact type tests, as in ``diff``
    t = type(e)
    if t is U or t is Base or t is StepSize:
        leaves.add(e)
    elif t is Add:
        for a in e.terms:
            _collect(a, leaves)
    elif t is Mul:
        for a in e.factors:
            _collect(a, leaves)
    elif t is Div:
        _collect(e.num, leaves)
        _collect(e.den, leaves)
    elif t is Pow:
        _collect(e.base, leaves)
    elif t is Neg or t is ExpF or t is LnF:
        _collect(e.arg, leaves)
    elif t is Piecewise:
        for b in e.branches:
            _collect(b.test, leaves)
            _collect(b.value, leaves)
        _collect(e.default, leaves)


def substitute(e: Expr, mapping: Mapping[int, Expr]) -> Expr:
    """Replace unknowns by expressions; rebuilds through the smart constructors."""
    # exact type tests, as in ``diff``
    t = type(e)
    if t is U:
        return mapping.get(e.index, e)
    if t is Const or t is Param or t is Base or t is StepSize:
        return e
    if t is Add:
        return add(*[substitute(a, mapping) for a in e.terms])
    if t is Mul:
        return mul(*[substitute(a, mapping) for a in e.factors])
    if t is Div:
        return div(substitute(e.num, mapping), substitute(e.den, mapping))
    if t is Pow:
        return pow_(substitute(e.base, mapping), e.exponent)
    if t is Neg:
        return neg(substitute(e.arg, mapping))
    if t is ExpF:
        return exp(substitute(e.arg, mapping))
    if t is LnF:
        return ln(substitute(e.arg, mapping))
    if t is Piecewise:
        return piecewise(
            tuple(
                Branch(substitute(b.test, mapping), b.op, b.threshold, substitute(b.value, mapping))
                for b in e.branches
            ),
            substitute(e.default, mapping),
        )
    raise TypeError(f"unhandled node {type(e).__name__}")
