"""Lowering once per source shape against a per-row reference lowering.

``reference_rows`` lowers every row on its own with each method's formulas
over the whole state.  ``build_residual`` lowers one member per (source
shape, own slot) and maps index tables; the two must give the same shape
groups, the same generated residual and Jacobian source, and bit-identical
values.
"""

import numpy as np
import pytest

from sparsedae import codegen
from sparsedae import expr as ex
from sparsedae.codegen import CompiledResidual, group_shapes
from sparsedae.jacobian import JacobianAssembler, detect_pattern, differentiate
from sparsedae.problems import example5, example6, make_builtin
from sparsedae.system import DaeSystem, MethodKind, build_residual

from lowering_reference import reference_rows


def compiled(sysn: DaeSystem, groups, monkeypatch, rng):
    """The generated residual and Jacobian source of the method residual
    ``groups``, the CSC structure, and the residual and Jacobian values at
    a random point."""
    sources = []

    def recording_compile(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", recording_compile, raising=False)
    res = CompiledResidual(groups, sysn.layout)
    pat = detect_pattern(groups)
    asm = JacobianAssembler(pat, differentiate(pat), sysn.layout)
    monkeypatch.undo()
    res.set_params(sysn.params)
    res.set_base(np.asarray(sysn.y0z0) + 0.05 * rng.standard_normal(sysn.n_total))
    res.set_h(0.01)
    uu = 0.05 * rng.standard_normal(res.n)
    r = res.evaluate(uu).copy()
    values = asm.assemble(uu, res.b, res.h, res.p).values.copy()
    return sources, asm.matrix.indptr, asm.matrix.rowind, r, values


def two_odes(f1, f2):
    return DaeSystem(ode_rhs=(f1, f2), alg_residual=(), var_names=("x1", "x2"), y0z0=(1.0, 0.5))


BUILTINS = {"ex1": {}, "ex1pw": {}, "ex2": {}, "ex3": {}, "decay": {},
            "ex4": dict(n=8), "ex5": dict(n=4, m=6), "ex6": dict(n=4, m=6)}
SYSTEMS = {name: (lambda name=name: make_builtin(name, **BUILTINS[name])) for name in sorted(BUILTINS)}
SYSTEMS["ex5-16x16"] = lambda: example5(16, 16, c0=1.0)
SYSTEMS["ex6-6x12"] = lambda: example6(6, 12)
# one source shape whose rows differ in which slot is their own unknown
SYSTEMS["own-slot-differs"] = lambda: two_odes(ex.U(1) * ex.U(2), ex.U(1) * ex.U(2))
# rows that do not read their own unknown
SYSTEMS["no-own-slot"] = lambda: two_odes(ex.U(2), ex.U(1))
# one algebraic shape, over x, y, z: row 2 reads its own index y, row 3 not z
SYSTEMS["alg-own-index"] = lambda: DaeSystem(
    ode_rhs=(-ex.U(1),), alg_residual=(ex.U(2) * ex.U(3) - 1, ex.U(1) * ex.U(2) - 1),
    var_names=("x", "y", "z"), y0z0=(1.0, 1.0, 1.0))


@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_lowering_per_shape_matches_the_per_row_reference(name, kind, monkeypatch):
    sysn = SYSTEMS[name]()
    groups = build_residual(sysn, kind)
    ref = tuple(group_shapes(reference_rows(sysn, kind), sysn.layout))
    for got, want in zip(groups, ref):
        assert (got.text, got.expr, got.names) == (want.text, want.expr, want.names)
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.index, want.index)
    assert len(groups) == len(ref)

    got = compiled(sysn, groups, monkeypatch, np.random.default_rng(3))
    want = compiled(sysn, ref, monkeypatch, np.random.default_rng(3))
    assert got[0] == want[0] and len(got[0]) == 2
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_own_slot_splits_one_source_shape():
    # x1*x2 is one source shape, but row 1 owns its first slot and row 2 its
    # second, so the two lowered rows alias differently and stay apart
    sysn = SYSTEMS["own-slot-differs"]()
    assert len(group_shapes(sysn.ode_rhs, sysn.layout)) == 1
    for kind in MethodKind:
        groups = build_residual(sysn, kind)
        assert [g.rows.tolist() for g in groups][:2] == [[0], [1]]
