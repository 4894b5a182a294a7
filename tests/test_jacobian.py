"""Sparsity detection and analytic Jacobian assembly."""

import numpy as np
import pytest

from sparsedae import expr as ex
from sparsedae.errors import EmptyRow, NonFiniteResidual
from sparsedae.jacobian import (
    JacobianAssembler,
    detect_pattern,
    differentiate,
)
from sparsedae.linalg import SparseMatrix
from sparsedae.problems import example1, example4
from sparsedae.system import DaeSystem, MethodKind, build_residual


def test_pattern_simple_dae_backward_euler():
    pat = detect_pattern(build_residual(example1(), MethodKind.EB))
    assert pat.n == 2
    assert pat.rows == ((1, 2), (1, 2))
    assert pat.nnz == 4


def ex1_eb_assembler():
    pat = detect_pattern(build_residual(example1(), MethodKind.EB))
    return JacobianAssembler(pat, differentiate(pat), {})


def test_assembled_values_at_rest():
    # at uu=0, h=0, Y0=(0,1): d(row1)/d(uu1)=1, d(row2)/d(uu2)=2*z0=2,
    # and the off-diagonal slots hold structural zeros
    asm = ex1_eb_assembler()
    a = asm.assemble(np.zeros(2), np.array([0.0, 1.0]), 0.0, np.zeros(0))
    assert a.to_dense() == pytest.approx(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_pattern_is_h_and_state_independent():
    asm = ex1_eb_assembler()
    a = asm.assemble(np.zeros(2), np.array([0.0, 1.0]), 0.0, np.zeros(0))
    b = asm.assemble(np.array([0.3, -0.1]), np.array([2.0, -1.0]), 0.7, np.zeros(0))
    assert a.indptr.tolist() == b.indptr.tolist()
    assert a.rowind.tolist() == b.rowind.tolist()


def test_banded_pattern_of_tridiagonal_discretization():
    n = 8
    sysn = example4(n)
    pat = detect_pattern(build_residual(sysn, MethodKind.EB))
    # interior stencil rows touch at most 4 unknowns; nnz grows linearly
    for r in range(2, n):  # interior ODE rows
        assert len(pat.rows[r - 1]) <= 4
    pat2 = detect_pattern(build_residual(example4(2 * n), MethodKind.EB))
    assert pat2.nnz < 2.5 * pat.nnz


def test_empty_row_rejected():
    bad = DaeSystem(
        ode_rhs=(ex.neg(ex.U(1)),),
        alg_residual=(ex.Const(0.0),),  # touches nothing
        var_names=("a", "b"),
        y0z0=(1.0, 0.0),
    )
    groups = build_residual(bad, MethodKind.EB)
    with pytest.raises(EmptyRow):
        detect_pattern(groups)
    # no row touches an unknown
    none = DaeSystem(ode_rhs=(), alg_residual=(ex.Const(1.0),), var_names=("a",), y0z0=(0.0,))
    with pytest.raises(EmptyRow):
        detect_pattern(build_residual(none, MethodKind.EB))


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    sysn = example4(5)
    from sparsedae.stepper import SolverOptions, Stepper
    for kind in MethodKind:
        st = Stepper(sysn, SolverOptions(tf=1.0, atol=1e-6, method=kind))
        base = np.asarray(sysn.y0z0) + 0.05 * rng.standard_normal(len(sysn.y0z0))
        h = 0.02
        st._bind(base, h)
        a = st.assembler.assemble(np.zeros(st.n), st.res.b, h, st.res.p)
        for _ in range(5):
            d = rng.standard_normal(st.n)
            eps = 1e-6
            rp = st.res.evaluate(eps * d).copy()
            rm = st.res.evaluate(-eps * d).copy()
            fd = (rp - rm) / (2 * eps)
            jd = a.matvec(d)
            assert np.abs(jd - fd).max() <= 1e-6 * (1.0 + np.abs(jd).max())


def test_assembler_reuses_structure_buffers():
    pat = detect_pattern(build_residual(example1(), MethodKind.IMPTRAP))
    blocks = differentiate(pat)
    asm = JacobianAssembler(pat, blocks, {})
    b = np.array([0.0, 1.0])
    m1 = asm.assemble(np.zeros(2), b, 0.1, np.zeros(0))
    indptr, rowind, values = m1.indptr.copy(), m1.rowind.copy(), m1.values.copy()
    m2 = asm.assemble(np.zeros(2), b, 0.5, np.zeros(0))
    assert m2 is m1
    assert np.array_equal(m2.indptr, indptr) and np.array_equal(m2.rowind, rowind)
    # row 1 is U(1) - h*(U(2)/2 + Base(2)), so its d/dU(2) entry follows h
    fresh = JacobianAssembler(pat, blocks, {}).assemble(np.zeros(2), b, 0.5, np.zeros(0))
    assert not np.array_equal(m2.values, values)
    assert np.array_equal(m2.values, fresh.values)


def test_nonfinite_jacobian_raises_nonfinite_residual():
    # d/dy of ln(y) is 1/y: at y = 0 the EB entry 1 - h/y is not finite
    sysd = DaeSystem(ode_rhs=(ex.ln(ex.U(1)),), alg_residual=(), var_names=("y",), y0z0=(0.0,))
    pat = detect_pattern(build_residual(sysd, MethodKind.EB))
    asm = JacobianAssembler(pat, differentiate(pat), {})
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResidual, match="row 1, col 1"):
        asm.assemble(np.zeros(1), np.zeros(1), 0.1, np.zeros(0))


def test_structure_is_validated_once_per_assembler(monkeypatch):
    checks = []
    validate = SparseMatrix.__post_init__
    monkeypatch.setattr(SparseMatrix, "__post_init__", lambda m: checks.append(m) or validate(m))
    asm = ex1_eb_assembler()
    assert len(checks) == 1
    for h in (0.0, 0.1, 0.2):
        asm.assemble(np.zeros(2), np.array([0.0, 1.0]), h, np.zeros(0))
    assert len(checks) == 1
