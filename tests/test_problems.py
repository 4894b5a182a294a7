"""Built-in benchmark problems: sizes, boundary handling, reference values."""

import math

import numpy as np
import pytest

from sparsedae import problems
from sparsedae.errors import InvalidGrid, SparseDaeError, UnknownObservable
from sparsedae.problems import (
    ORACLES,
    decay,
    example1,
    example2,
    example3,
    example4,
    example5,
    example6,
    make_builtin,
    probe,
)
from sparsedae.stepper import SolverOptions, Status, integrate
from sparsedae.system import MethodKind

import problems_reference


def test_small_system_shapes():
    assert example1().n_total == 2 and example1().n_ae == 1
    assert example2().n_total == 2 and example2().n_ae == 0
    assert example3().n_total == 2 and example3().n_ae == 1
    assert decay().n_total == 1


def test_pde_system_sizes():
    for n in (4, 16, 64):
        assert example4(n).n_total == 2 * n + 4
    for n, m in ((4, 4), (8, 6)):
        assert example5(n, m).n_total == n * m + 2 * n + 2 * m
        assert example6(n, m).n_total == 2 * n * m + 4 * n + 4 * m
    assert example6(4).n_total == 2 * 4 * 8 + 4 * 4 + 4 * 8  # M defaults to 2N


def test_invalid_grids():
    with pytest.raises(InvalidGrid):
        example4(1)
    with pytest.raises(InvalidGrid):
        example5(1, 4)
    with pytest.raises(InvalidGrid):
        example6(4, 5)  # odd M puts the electrode edge inside a cell


def test_oracles_match_the_models():
    # ex1 exact solution (sin t, cos t) satisfies both equations
    for t in (0.0, 0.4, 1.0):
        y, z = ORACLES["ex1"](t)
        assert y ** 2 + z ** 2 == pytest.approx(1.0)
        assert ORACLES["decay"](t)[0] == pytest.approx(math.exp(-t))


def test_ex1_integration_hits_sin_cos():
    traj = integrate(example1(), SolverOptions(tf=1.0, atol=1e-9))
    assert traj.status is Status.SUCCESS
    assert traj.final_state == pytest.approx(ORACLES["ex1"](1.0), abs=1e-6)


def test_ex3_consistent_initialization():
    # constraint -100 ln z + 2y = 5 with y0 = 2 forces z = exp(-0.01)
    from sparsedae.stepper import Stepper
    st = Stepper(example3(), SolverOptions(tf=1.0, atol=1e-8))
    state, _ = st.initialize()
    assert state[0] == 2.0
    assert state[1] == pytest.approx(math.exp(-0.01), abs=1e-10)


def test_probe_and_unknown_observable():
    sysn = example4(4)
    state = np.asarray(sysn.y0z0, dtype=float)
    assert probe(state, sysn, "c_x0") == pytest.approx(1.0)
    assert probe(state, sysn, "z_x0") == pytest.approx(0.0)
    with pytest.raises(UnknownObservable):
        probe(state, sysn, "nope")


def test_ex4_boundary_rows_hold_after_integration():
    n = 8
    sysn = example4(n)
    traj = integrate(sysn, SolverOptions(tf=0.5, atol=1e-7, hinit=1e-5))
    assert traj.status is Status.SUCCESS
    s = traj.final_state
    c0, cn1 = s[2 * n], s[2 * n + 1]
    z0, zn1 = s[2 * n + 2], s[2 * n + 3]
    assert c0 == pytest.approx(s[0], abs=1e-8)            # zero flux at x=0
    assert (s[n - 1] + cn1) / 2 == pytest.approx(1.0, abs=1e-8)  # c(1)=1
    assert z0 == pytest.approx(s[n], abs=1e-8)
    assert (s[2 * n - 1] + zn1) / 2 == pytest.approx(0.0, abs=1e-8)  # z(1)=0


def test_ex5_solution_is_symmetric_on_square_grid():
    # problem and grid are symmetric under (x, y) swap when n == m
    n = 6
    sysn = example5(n, n, c0=1.0)
    traj = integrate(sysn, SolverOptions(tf=0.5, atol=1e-7, hinit=1e-5,
                                         err_denominator="standard"))
    assert traj.status is Status.SUCCESS
    s = traj.final_state
    for j in range(1, n + 1):
        for i in range(1, j):
            assert s[(j - 1) * n + i - 1] == pytest.approx(
                s[(i - 1) * n + j - 1], abs=1e-9)


def test_ex5_initial_data_parameter():
    lo = example5(4, 4, c0=0.0)
    hi = example5(4, 4, c0=1.0)
    assert lo.y0z0[0] == 0.0 and hi.y0z0[0] == 1.0
    # ghost initial values keep the Dirichlet averages at 1 either way
    nm = 16
    assert (lo.y0z0[nm + 4] + lo.y0z0[0]) / 2 in (0.5, 1.0)
    assert (hi.y0z0[nm + 4] + hi.y0z0[0]) / 2 == 1.0


def test_ex6_no_reaction_no_current_stays_uniform():
    # Da = delta = 0: no electrode kinetics, no applied flux, so the uniform
    # initial concentration is a steady state
    # the potential block is pure Neumann, singular in exact arithmetic; this
    # grid is above the dense-path cutoff, and test_cli runs one below it
    sysn = example6(4, 8, da=0.0, delta=0.0)
    traj = integrate(sysn, SolverOptions(tf=0.5, atol=1e-7, hinit=1e-5,
                                         err_denominator="standard"))
    assert traj.status is Status.SUCCESS
    nm = 32
    c = traj.final_state[:nm]
    assert np.abs(c - 1.0).max() <= 1e-9


def test_ex6_electrode_consumes_concentration():
    sysn = example6(4, 8)
    traj = integrate(sysn, SolverOptions(tf=0.1, atol=1e-6, hinit=1e-6,
                                         err_denominator="standard",
                                         extrapolate=False))
    assert traj.status is Status.SUCCESS
    s = traj.final_state
    c_electrode = probe(s, sysn, "c_x0_ymid")
    assert 0.0 < c_electrode < 1.0
    assert probe(s, sysn, "phi_x0_ymid") != 0.0


def test_make_builtin_dispatch():
    assert make_builtin("ex1").n_total == 2
    assert make_builtin("ex4", n=8).n_total == 20
    assert make_builtin("ex5", n=4, m=6).n_total == 44
    assert make_builtin("ex5", n=4).n_total == 32  # m defaults to n
    assert make_builtin("ex6", n=4).n_total == 112
    assert make_builtin("ex5", n=4, c0=1.0).y0z0[0] == 1.0
    with pytest.raises(KeyError):
        make_builtin("ex99")


def test_make_builtin_rejects_a_keyword_its_constructor_does_not_take():
    # the constructor signature is the only list of a builtin's keywords
    with pytest.raises(SparseDaeError, match="'phi'"):
        make_builtin("ex2", phi=9.0)
    with pytest.raises(SparseDaeError, match="'n'"):
        make_builtin("decay", n=4)
    with pytest.raises(SparseDaeError, match="'dx_coeff'"):
        make_builtin("ex5", n=4, dx_coeff=2.0)


def test_piecewise_variant_integrates():
    traj = integrate(make_builtin("ex1pw"), SolverOptions(tf=1.0, atol=1e-7))
    assert traj.status is Status.SUCCESS
    s = traj.final_state
    assert s[0] ** 2 + s[1] ** 2 == pytest.approx(1.0, abs=1e-6)


# the smallest grids; n == m, where ex5's x- and y-boundary rows share a
# shape; odd n; ex6's default m; dx == dy, where ex6's x- and y-boundary
# rows share shapes; and non-default parameters
STENCIL_CASES = {
    "ex4-2": ("example4", dict(n=2)),
    "ex4-7": ("example4", dict(n=7)),
    "ex5-2x2": ("example5", dict(n=2, m=2)),
    "ex5-2x3": ("example5", dict(n=2, m=3)),
    "ex5-6x6": ("example5", dict(n=6)),
    "ex5-5x7-phi-c0": ("example5", dict(n=5, m=7, phi=2.0, c0=1.0)),
    "ex6-2x2": ("example6", dict(n=2, m=2)),
    "ex6-3": ("example6", dict(n=3)),
    "ex6-2x20": ("example6", dict(n=2, m=20)),
    "ex6-5x6-da0-delta0": ("example6", dict(n=5, m=6, dx_coeff=2.0, da=0.0, delta=0.0)),
}


@pytest.mark.parametrize("case", sorted(STENCIL_CASES))
def test_stencil_builders_match_the_per_row_builders(case):
    name, kw = STENCIL_CASES[case]
    got = getattr(problems, name)(**kw)
    want = getattr(problems_reference, name)(**kw)
    assert got == getattr(problems, name)(**kw)
    assert len(got.groups) == len(want.groups)
    for g, w in zip(got.groups, want.groups):
        assert (g.text, g.expr, g.names) == (w.text, w.expr, w.names)
        assert np.array_equal(g.rows, w.rows) and np.array_equal(g.index, w.index)
    for rows, ref in ((got.ode_rhs, want.ode_rhs), (got.alg_residual, want.alg_residual)):
        assert len(rows) == len(ref)
        assert tuple(rows) == ref
        assert [repr(e) for e in rows] == [repr(e) for e in ref]
    assert (got.var_names, got.y0z0, got.params, got.observables) == (
        want.var_names, want.y0z0, want.params, want.observables)
