"""Method residual construction and the increment formulation."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from sparsedae import codegen
from sparsedae import expr as ex
from sparsedae import system
from sparsedae.codegen import CompiledResidual, group_shapes
from sparsedae.errors import UnsupportedSystem
from sparsedae.jacobian import JacobianAssembler, detect_pattern, differentiate
from sparsedae.problems import BUILTINS, example6, make_builtin
from sparsedae.stepper import SolverOptions, Status, Stepper
from sparsedae.system import DaeSystem, MethodKind, Stencil, StencilRows, build_residual

from expr_reference import symbols


def simple_dae():
    # y' = z, 0 = y^2 + z^2 - 1
    return DaeSystem(
        ode_rhs=(ex.U(2),),
        alg_residual=(ex.U(1) * ex.U(1) + ex.U(2) * ex.U(2) - 1.0,),
        var_names=("y", "z"),
        y0z0=(0.0, 0.95),
    )


def ode_only():
    return DaeSystem(
        ode_rhs=(ex.neg(ex.U(1)),),
        alg_residual=(),
        var_names=("y",),
        y0z0=(1.0,),
    )


@pytest.mark.parametrize("name", ["h", "Y0_1"])
def test_step_size_and_base_state_names_are_ordinary_parameters(name):
    # the method residuals' step size and base state are leaves of their
    # own, so a parameter of either name is an ordinary parameter; renamed
    # past "m", it takes the other slot of the layout
    def vdp(k):
        p = ex.Param(k)
        return DaeSystem(
            ode_rhs=(ex.U(2), p * (1.0 - ex.U(1) * ex.U(1)) * ex.U(2) - ex.Param("m") * ex.U(1)),
            alg_residual=(ex.U(3) - p * ex.U(1),),
            var_names=("x", "y", "z"),
            y0z0=(2.0, 0.0, 0.0),
            params={k: 2.0, "m": 1.0},
        )
    named, renamed = vdp(name), vdp("zeta")
    assert named.layout[name] == 0 and renamed.layout["zeta"] == 1
    for kind in MethodKind:
        options = SolverOptions(tf=1.0, method=kind)
        got, want = Stepper(named, options).integrate(), Stepper(renamed, options).integrate()
        assert got.status is Status.SUCCESS and got.accepted == want.accepted
        assert got.final_state.tobytes() == want.final_state.tobytes(), kind


def eval_rows(groups, uu, y0, h):
    """The method residual ``groups``' rows at (uu, y0, h), evaluated by the
    compiled residual that Newton reads (the systems here have no
    parameters)."""
    res = CompiledResidual(groups, {})
    res.set_base(np.asarray(y0, dtype=float))
    res.set_h(h)
    return res.evaluate(np.asarray(uu, dtype=float)).tolist()


def test_method_properties():
    assert [k.order for k in MethodKind] == [1, 2, 2, 3]


# the grids the built-ins are checked at, and the SHA-256 of each built-in's
# generated residual and Jacobian source there, over the methods in
# MethodKind order: a change that alters a generated line must update them
SMALL = {"ex4": dict(n=4), "ex5": dict(n=4, m=5), "ex6": dict(n=4, m=8)}
SOURCE_SHA256 = {
    "ex1": "d928f27bbd1a38f6cb4501593c0bdd6c0a1c723d4f802f6326455c717838ade0",
    "ex1pw": "6103ca2ab8cf5f7725e8397a91bdc8ef1fae3b3e99e48b3862b8bb3cd6ac1b1f",
    "ex2": "ea1c43a416adb3e3d2f47670f01936de9455980691ddc99bb3b2c085383a087c",
    "ex3": "5d25a562573bd5d77a24fa6ee14dc1fbf932aa3ed9740da0ee186c781191a7f7",
    "ex4": "61edf264026da355d9e38f4dc38570a9fca2c87d5734b94e7d51135e05794ce5",
    "ex5": "73871d14cef1753922edb1268fc28a5c5490499a917ab40d93fcb7ea4c8ef621",
    "ex6": "a2705baad45c8aeeff5719779cb4831e1620e1121eaa33d0df9797db0ac63b99",
    "decay": "b1cbaf4e3a1c2f092534cc8141a0a692d572a00c77a4d32f6147f24e78f2f96c",
}


def recorded_sources(monkeypatch):
    """The list that every generated residual and Jacobian source is
    appended to from now on."""
    sources = []
    generated = codegen.generated_source

    def recording(*args):
        source, ns = generated(*args)
        sources.append(source)
        return source, ns

    monkeypatch.setattr(codegen, "generated_source", recording)
    return sources


def test_row_counts(monkeypatch):
    # the method residual is its shape groups: they number the rows 0..n-1
    # once each, n = N_t (2*N_t for RAD), and the compiled residual and the
    # pattern read n off them
    sources = recorded_sources(monkeypatch)
    for name in ["simple_dae", *BUILTINS]:
        sysn = simple_dae() if name == "simple_dae" else make_builtin(name, **SMALL.get(name, {}))
        sources.clear()
        for kind in MethodKind:
            groups = build_residual(sysn, kind)
            n = (2 if kind is MethodKind.RAD else 1) * sysn.n_total
            assert sorted(i for g in groups for i in g.rows.tolist()) == list(range(n)), (name, kind)
            pat = detect_pattern(groups)
            assert CompiledResidual(groups, sysn.layout).n == pat.n == n
            JacobianAssembler(pat, differentiate(pat), sysn.layout)
        if name in SOURCE_SHA256:
            assert hashlib.sha256("".join(sources).encode()).hexdigest() == SOURCE_SHA256[name], name


def test_h_zero_root_moves_only_algebraic():
    # at h=0 with g(Y0)=0 the residual root is uu=0
    sysd = simple_dae()
    y0 = [0.6, 0.8]
    for kind in MethodKind:
        uu = [0.0] * (4 if kind is MethodKind.RAD else 2)
        assert eval_rows(build_residual(sysd, kind), uu, y0, 0.0) == pytest.approx([0.0] * len(uu))


def test_backward_euler_rows_by_hand():
    # row 1: uu1 - h*(uu2 + z0); row 2: (uu1+y0)^2 + (uu2+z0)^2 - 1
    got = eval_rows(build_residual(simple_dae(), MethodKind.EB), [0.1, -0.2], [0.0, 1.0], 0.5)
    assert got[0] == pytest.approx(0.1 - 0.5 * 0.8)
    assert got[1] == pytest.approx(0.1 ** 2 + 0.8 ** 2 - 1.0)


def test_midpoint_ode_row_uses_half_increment():
    got = eval_rows(build_residual(simple_dae(), MethodKind.IMPTRAP), [0.1, -0.2], [0.0, 1.0], 0.5)
    # f at uu/2 + Y0: z = -0.1 + 1.0
    assert got[0] == pytest.approx(0.1 - 0.5 * 0.9)
    # constraint is projected at the endpoint, not the midpoint
    assert got[1] == pytest.approx(0.1 ** 2 + 0.8 ** 2 - 1.0)


def test_cn_explicit_term_reads_the_base_state():
    # row 1: uu1 - h/2*f(uu + Y0) - h/2*f(Y0) with f = z: z0 - 0.2 and z0
    groups = build_residual(simple_dae(), MethodKind.CN)
    first = next(g.expr for g in groups if g.rows[0] == 0)
    assert symbols(first) == {ex.U(1), ex.U(2), ex.H, ex.Base(2)}
    got = eval_rows(groups, [0.1, -0.2], [0.0, 1.0], 0.5)
    assert got[0] == pytest.approx(0.1 - 0.25 * 0.8 - 0.25 * 1.0)


def test_two_stage_rows_by_hand():
    uu = [0.2, -0.1]
    y0 = [1.0]
    h = 0.3
    got = eval_rows(build_residual(ode_only(), MethodKind.RAD), uu, y0, h)
    assert len(got) == 2
    # endpoint block: 5/2 uu1 - 9/2 uu2 - h*f(uu1 + y0)
    assert got[0] == pytest.approx(2.5 * 0.2 - 4.5 * (-0.1) - h * (-(0.2 + 1.0)))
    # interior block: 1/2 uu1 + 3/2 uu2 - h*f(uu2 + y0)
    assert got[1] == pytest.approx(0.5 * 0.2 + 1.5 * (-0.1) - h * (-(-0.1 + 1.0)))


def test_endpoint_projection_needs_algebraic_reference():
    # a constraint that touches only ODE variables cannot be projected
    bad = DaeSystem(
        ode_rhs=(ex.U(2), ex.neg(ex.U(1))),
        alg_residual=(ex.U(1) - 1.0,),
        var_names=("a", "b", "c"),
        y0z0=(1.0, 0.0, 0.0),
    )
    for kind in (MethodKind.CN, MethodKind.IMPTRAP):
        with pytest.raises(UnsupportedSystem):
            build_residual(bad, kind)
    # EB tolerates it: every variable is implicit at the endpoint anyway
    build_residual(bad, MethodKind.EB)


def test_system_validation():
    with pytest.raises(ValueError):
        DaeSystem(ode_rhs=(ex.U(1),), alg_residual=(), var_names=("x", "y"),
                  y0z0=(0.0, 0.0))
    with pytest.raises(ValueError):
        DaeSystem(ode_rhs=(ex.Param("k") * ex.U(1),), alg_residual=(),
                  var_names=("x",), y0z0=(0.0,))  # undeclared parameter
    # h and Y0_1 are ordinary parameter names, refused when undeclared like
    # any other, also inside a piecewise branch; U(0) would read the last
    # unknown
    h_in_branch = ex.piecewise((ex.Branch(ex.U(1), "<", 0.0, ex.Param("h")),), ex.U(1))
    for leaf, named in [(ex.Param("h"), "'h'"), (h_in_branch, "'h'"), (ex.Param("Y0_1"), "'Y0_1'"),
                        (ex.Param("Y0_x"), "'Y0_x'"), (ex.U(0), "index 0"), (ex.U(3), "index 3")]:
        with pytest.raises(ValueError, match=re.escape(named)):
            DaeSystem(ode_rhs=(ex.neg(ex.U(1)),), alg_residual=(ex.U(2) - leaf,),
                      var_names=("x", "z"), y0z0=(1.0, 0.0))


def test_each_system_is_grouped_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return group_shapes(*args)

    monkeypatch.setattr(system, "group_shapes", counted)
    sysd = simple_dae()
    assert len(calls) == 1
    for kind in MethodKind:
        build_residual(sysd, kind)
    Stepper(sysd, SolverOptions(tf=1.0))
    assert len(calls) == 1


def stencil(index, rows=None):
    """A stencil of the rows u_a - u_b over the 0-based unknown pairs ``index``."""
    index = np.array(index, dtype=np.int64)
    rows = np.arange(len(index)) if rows is None else np.array(rows, dtype=np.int64)
    return Stencil(ex.U(int(index[0, 0]) + 1) - ex.U(int(index[0, 1]) + 1), rows, index)


def test_stencil_rows_are_built_from_the_template_when_read():
    rows = StencilRows([stencil([[0, 1], [1, 2], [2, 0]])])
    assert len(rows) == 3
    assert tuple(rows) == (ex.U(1) - ex.U(2), ex.U(2) - ex.U(3), ex.U(3) - ex.U(1))
    assert rows[-1] == rows[2]
    with pytest.raises(IndexError):
        rows[3]


@pytest.mark.parametrize("index, row", [
    ([[0, 1], [1, 1], [2, 0]], 1),   # row 1 aliases where the first row does not
    ([[1, 1], [0, 1], [2, 2]], 1),   # the first row aliases where row 1 does not
])
def test_stencil_rows_reject_a_member_that_aliases_unlike_the_first(index, row):
    # a template's leaves are mapped to columns on the first member, so the
    # members must repeat its coincidences exactly
    with pytest.raises(ValueError, match=f"row {row} has coincident unknowns"):
        StencilRows([stencil(index)])


def test_stencil_rows_must_number_the_rows_once_each():
    with pytest.raises(ValueError, match="0..n-1"):
        StencilRows([stencil([[0, 1], [1, 2]], rows=[0, 2])])
    with pytest.raises(ValueError, match="ascend"):
        StencilRows([stencil([[0, 1], [1, 2]], rows=[1, 0])])


@pytest.mark.parametrize("part", ["ode_rhs", "alg_residual"])
def test_stencil_rows_mix_with_hand_written_rows(monkeypatch, part):
    # either part may be given as its rows while the other stays stencils:
    # every method's residual and Jacobian source is the all-stencil one
    sources = recorded_sources(monkeypatch)
    stencils = make_builtin("ex5", n=4, m=4)
    mixed = replace(stencils, **{part: tuple(getattr(stencils, part))})
    assert not isinstance(getattr(mixed, part), StencilRows)
    for kind in MethodKind:
        for sysn in (stencils, mixed):
            groups = build_residual(sysn, kind)
            CompiledResidual(groups, sysn.layout)
            pat = detect_pattern(groups)
            JacobianAssembler(pat, differentiate(pat), sysn.layout)
        assert sources[-2:] == sources[-4:-2], kind
    assert len(sources) == 4 * len(MethodKind)   # a residual and a Jacobian each


def test_stencil_rows_are_grouped_from_their_templates(monkeypatch):
    # no source row is built and no row is walked on the solve path of a
    # stencil-built system: not at construction, lowering, compilation or
    # integration
    built, walked = [], []
    read = StencilRows.__getitem__
    monkeypatch.setattr(StencilRows, "__getitem__", lambda self, i: built.append(i) or read(self, i))
    for module in (codegen, system):
        monkeypatch.setattr(module, "group_shapes", lambda *a: walked.append(a) or group_shapes(*a))
    sysn = example6(8, 16)
    traj = Stepper(sysn, SolverOptions(tf=0.1, atol=1e-6, hinit=1e-4, ntot=3)).integrate()
    assert traj.accepted == 3
    assert built == [] and walked == []
    sysn.ode_rhs[0]
    assert built == [0]
