"""Compiled evaluation: per-shape vectorized groups against the tree-walk oracle."""

import warnings

import numpy as np
import pytest

from sparsedae import expr as ex
from sparsedae.codegen import (_VECTOR_MIN_ROWS, CompiledResidual, derived_groups, generated_source,
                               group_shapes)
from sparsedae.errors import NonFiniteResidual
from sparsedae.jacobian import JacobianAssembler, detect_pattern, differentiate
from sparsedae.problems import example4, example5, example6, make_builtin
from sparsedae.system import MethodKind, build_residual

from expr_reference import eval_expr
from lowering_reference import reference_rows

N_ROWS = _VECTOR_MIN_ROWS + 2


def is_vectorized(fn) -> bool:
    return "errstate" in fn.__code__.co_names


def compiled(exprs, layout=None):
    layout = {} if layout is None else layout
    return CompiledResidual(group_shapes(exprs, layout), layout)


def run(exprs, u, params=None):
    res = compiled(exprs, {name: k for k, name in enumerate(sorted(params or {}))})
    res.set_params(params or {})
    return res._fn, res.evaluate(np.asarray(u, dtype=float))


def test_small_systems_stay_scalar():
    fn, out = run([ex.U(1) * ex.U(1)] * (_VECTOR_MIN_ROWS - 1), [3.0])
    assert not is_vectorized(fn)
    assert out.tolist() == [9.0] * (_VECTOR_MIN_ROWS - 1)


def test_aliased_and_distinct_leaves_do_not_merge():
    # u_i*u_i and u_i*u_(i+1) print the same but for which slots alias
    u = np.arange(1.0, N_ROWS + 2)
    squares = [ex.U(i) * ex.U(i) for i in range(1, N_ROWS + 1)]
    products = [ex.U(i) * ex.U(i + 1) for i in range(1, N_ROWS + 1)]
    fn, out = run(squares + products, u)
    assert is_vectorized(fn)
    assert out[:N_ROWS].tolist() == (u[:N_ROWS] ** 2).tolist()
    assert out[N_ROWS:].tolist() == (u[:N_ROWS] * u[1:N_ROWS + 1]).tolist()


def test_vectorized_piecewise_is_first_match_and_quiet():
    # the two conditions overlap below 0; the first must win there, so
    # ln(u) is never taken at negative u, and evaluating it must not warn
    rows = [ex.piecewise((ex.Branch(ex.U(i), "<", 0.0, 2.0 * ex.U(i)),
                          ex.Branch(ex.U(i), "<", 1.0, ex.ln(ex.U(i)))),
                         ex.U(i) * ex.Param("k"))
            for i in range(1, 3 * N_ROWS + 1)]
    u = np.concatenate([-np.linspace(0.5, 3.0, N_ROWS),
                        np.linspace(0.1, 0.9, N_ROWS),
                        np.linspace(1.0, 4.0, N_ROWS)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn, out = run(rows, u, {"k": 3.0})
    assert is_vectorized(fn)
    expected = [eval_expr(r, u, {"k": 3.0}) for r in rows]
    assert out.tolist() == expected


def test_vectorized_nonfinite_reaches_the_isfinite_check():
    res = compiled([ex.ln(ex.U(i)) for i in range(1, N_ROWS + 1)])
    u = np.ones(N_ROWS)
    assert res.evaluate(u).tolist() == [0.0] * N_ROWS
    u[3] = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResidual):
            res.evaluate(u)


@pytest.mark.parametrize("n", [_VECTOR_MIN_ROWS - 1, N_ROWS])
def test_sum_of_squares_screen_falls_back_to_the_exact_test(n):
    res = compiled([ex.U(i) for i in range(1, n + 1)])
    assert is_vectorized(res._fn) == (n == N_ROWS)
    # finite entries whose squares overflow trip the screen, and the exact
    # test clears them; under the integrators' error state that is quiet
    u = np.full(n, 1e200)
    u[1] = -3e200
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert res.evaluate(u).tolist() == u.tolist()
    for bad in (np.inf, -np.inf, np.nan):
        for row in (0, n // 2, n - 1):
            u = np.ones(n)
            u[row] = bad
            with pytest.raises(NonFiniteResidual):
                res.evaluate(u)


def derived(*blocks):
    """(names, index, rows) of each group ``derived_groups`` makes of ``blocks``."""
    groups = derived_groups([(names, index, d, np.array(rows)) for names, index, d, rows in blocks], {})
    return [(g.names, g.index.tolist(), g.rows.tolist()) for g in groups]


def test_derived_groups_map_leaves_per_names_of_a_shared_index_table():
    # one table read as (u, b) and then as (b, u): on the first member both
    # columns hold 0, so the leaf u_1 is column 0 for the first block and
    # column 1 for the second
    index = np.array([[0, 0], [2, 5]])
    y0 = ex.Param("Y0_1")
    assert derived((("u", "b"), index, ex.U(1) + y0, [0, 1]),
                   (("b", "u"), index, 2.0 * ex.U(1), [2, 3])) == [
        (("u", "b"), [[0, 0], [2, 5]], [0, 1]),
        (("u",), [[0], [5]], [2, 3])]


def test_derived_groups_read_the_earlier_of_two_columns_naming_one_leaf():
    # both columns name u_1 on the first member and differ on the second
    index = np.array([[0, 0], [1, 2]])
    assert derived((("u", "u"), index, ex.exp(ex.U(1)), [0, 1])) == [(("u",), [[0], [1]], [0, 1])]


# one-unknown shapes, each with a point where it leaves the domain
DOMAIN_SHAPES = {
    "exp": (lambda u: ex.exp(3.0 * u), 300.0),   # overflows at run time
    "ln": (ex.ln, -1.0),
    "0/0": (lambda u: u / u, 0.0),
    "fractional power": (lambda u: u ** 0.5, -1.0),
    "piecewise": (lambda u: ex.piecewise((ex.Branch(u, "<", 0.5, ex.ln(u)),), ex.exp(u)), -1.0),
}


def test_rows_that_read_entries_many_times_are_identical_either_way():
    # each row reads u_i, u_(i+1) and b_i several times, and neighbouring
    # rows share entries: locals read once must give the numpy statement's values
    def build(n):
        rows = [(ex.U(i) + ex.Param(f"Y0_{i}")) * (ex.U(i) + ex.Param(f"Y0_{i}"))
                - ex.exp(ex.U(i + 1)) * ex.Param(f"Y0_{i}") + ex.U(i + 1) / ex.U(i)
                for i in range(1, n + 1)]
        return compiled(rows)
    small, large = build(_VECTOR_MIN_ROWS - 1), build(N_ROWS)
    assert not is_vectorized(small._fn) and is_vectorized(large._fn)
    rng = np.random.default_rng(29)
    for _ in range(100):
        u, b = rng.uniform(0.1, 3.0, (2, N_ROWS + 1))
        small.set_base(b)
        large.set_base(b)
        got = small.evaluate(u).copy()
        assert np.array_equal(got, large.evaluate(u)[:small.n])


def test_scalar_lines_and_numpy_statements_give_identical_values():
    # a row's value must not depend on how many rows share its shape
    rng = np.random.default_rng(3)
    for name, (build, bad) in DOMAIN_SHAPES.items():
        small, large = (compiled([build(ex.U(i)) for i in range(1, n + 1)])
                        for n in (_VECTOR_MIN_ROWS - 1, N_ROWS))
        assert not is_vectorized(small._fn) and is_vectorized(large._fn)
        for u in rng.uniform(0.1, 3.0, (200, N_ROWS)):
            got = small.evaluate(u[:small.n]).copy()
            assert np.array_equal(got, large.evaluate(u)[:small.n]), name
        for res in (small, large):
            u = np.ones(res.n)
            u[-1] = bad
            with np.errstate(all="ignore"), pytest.raises(NonFiniteResidual):
                res.evaluate(u)


def evaluate_against_oracle(sysn, kind, seed, vectorized=True):
    """Compiled residual and Jacobian next to eval_expr at a random state,
    after checking that both are (or both are not) numpy statements.  The
    oracle differentiates every row on its own, per pattern entry."""
    rng = np.random.default_rng(seed)
    groups = build_residual(sysn, kind)
    res = CompiledResidual(groups, sysn.layout)
    res.set_params(sysn.params)
    base = np.asarray(sysn.y0z0) + 0.05 * rng.standard_normal(sysn.n_total)
    h = 0.01
    res.set_base(base)
    res.set_h(h)
    uu = 0.05 * rng.standard_normal(res.n)
    bindings = {"h": h, **sysn.params}
    bindings.update({f"Y0_{k}": v for k, v in enumerate(base, start=1)})

    pat = detect_pattern(groups)
    asm = JacobianAssembler(pat, differentiate(pat), sysn.layout)
    a = asm.assemble(uu, res.b, h, res.p).to_dense()
    assert is_vectorized(asm._fn) == is_vectorized(res._fn) == vectorized

    rows = reference_rows(sysn, kind)
    got_r = res.evaluate(uu).copy()
    want_r = np.array([eval_expr(r, uu, bindings) for r in rows])
    cells = [(i, k) for i, cols in enumerate(pat.rows, start=1) for k in cols]
    got_j = np.array([a[i - 1, k - 1] for i, k in cells])
    want_j = np.array([eval_expr(ex.diff(rows[i - 1], k), uu, bindings) for i, k in cells])
    return got_r, want_r, got_j, want_j


@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda k: k.value)
@pytest.mark.parametrize("build", [lambda: example5(8, 8), lambda: example6(6, 12)],
                         ids=["ex5", "ex6"])
def test_rational_models_are_bit_identical_to_the_oracle(build, kind):
    got_r, want_r, got_j, want_j = evaluate_against_oracle(build(), kind, seed=17)
    assert np.array_equal(got_r, want_r)
    assert np.array_equal(got_j, want_j)


@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", ["ex1pw", "ex2"])
def test_scalar_lines_are_bit_identical_to_the_oracle(name, kind):
    # small systems run as scalar lines over locals read once from u and b
    got_r, want_r, got_j, want_j = evaluate_against_oracle(make_builtin(name), kind, seed=23,
                                                           vectorized=False)
    assert np.array_equal(got_r, want_r)
    assert np.array_equal(got_j, want_j)


def test_scalar_lines_read_each_entry_once():
    sysn = make_builtin("ex2")
    source, _ = generated_source(build_residual(sysn, MethodKind.EB), sysn.n_total)
    # u_2 and Y0_2 appear three times each in the EB row of x'
    assert source.count("u[1]") == source.count("b[1]") == 1
    assert "    u_1 = u[1]\n" in source and "    b_1 = b[1]\n" in source


def test_exp_model_matches_the_oracle_to_a_few_ulp():
    # numpy's vectorized exp may differ from libm's by one ulp; after the
    # sums of a stencil row that is a few ulp of the row's largest term
    got_r, want_r, got_j, want_j = evaluate_against_oracle(example4(32), MethodKind.IMPTRAP, seed=5)
    for got, want in ((got_r, want_r), (got_j, want_j)):
        scale = np.spacing(np.maximum(np.abs(want), 1.0))
        assert np.all(np.abs(got - want) <= 8 * scale)


def test_cn_explicit_half_vectorizes():
    # each CN ODE row carries f_i at its own base state; its Y0 leaves are
    # gathered like the implicit half's, so the rows still share a shape,
    # CN has EB's shapes and every row of ex5 8x8 is in a vectorized group
    shapes = {}
    sysn = example5(8, 8)
    for kind in (MethodKind.EB, MethodKind.CN):
        groups = build_residual(sysn, kind)
        res = CompiledResidual(groups, sysn.layout)
        shapes[kind] = [len(g.rows) for g in groups]
    assert is_vectorized(res._fn)
    assert shapes[MethodKind.CN] == shapes[MethodKind.EB]
    assert min(shapes[MethodKind.CN]) >= _VECTOR_MIN_ROWS


BUILTINS = {"ex1": {}, "ex1pw": {}, "ex2": {}, "ex3": {}, "decay": {},
            "ex4": dict(n=8), "ex5": dict(n=4, m=6), "ex6": dict(n=4, m=6)}


@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_shape_pattern_and_csc_structure_match_the_rows(name, kind):
    sysn = make_builtin(name, **BUILTINS[name])
    pat = detect_pattern(build_residual(sysn, kind))
    assert pat.rows == tuple(tuple(ex.free_unknowns(r)) for r in reference_rows(sysn, kind))
    asm = JacobianAssembler(pat, differentiate(pat), sysn.layout)
    support = sorted((k - 1, i) for i, cols in enumerate(pat.rows) for k in cols)
    assert asm.matrix.rowind.tolist() == [row for _, row in support]
    counts = np.bincount([col for col, _ in support], minlength=pat.n)
    assert asm.matrix.indptr.tolist() == [0] + np.cumsum(counts).tolist()
