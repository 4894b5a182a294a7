"""Command-line interface: subcommands, exit codes, config files."""

import dataclasses
import io
import math
import threading
import warnings

import pytest
import scipy.io

from sparsedae import cli
from sparsedae.cli import PROBLEM_FLAGS, main
from sparsedae.jacobian import detect_pattern
from sparsedae.problems import BUILTINS, builtin_keywords, example5
from sparsedae.stepper import SolverOptions
from sparsedae.system import MethodKind, build_residual

VDP = """\
[params]
mu = 2.0

[odes]
x' = mu * (1 - y^2) * x - y
y' = x

[init]
x = 0.0
y = 2.0
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_builtin_to_stdout(capsys):
    code, out, err = run(capsys, "solve", "ex1", "--tf", "1.0",
                         "--atol", "1e-8", "--stdout")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,y,z"
    last_data = lines[-2].split(",")
    assert float(last_data[0]) == 1.0
    assert float(last_data[1]) == pytest.approx(math.sin(1.0), abs=1e-6)
    assert "number of failed steps" in err


def test_solve_writes_csv_file(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "solve", "ex3", "--tf", "1.0",
                     "--atol", "1e-8", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("t,y,z\n")
    assert "# accepted=" in text


@pytest.mark.parametrize("flags, kept", [
    (("--fixed-h", "0.1"), "kept 52 of 100 fixed steps with an unconverged Newton solve (raise --iter)"),
    (("--fixed-h", "0.1", "--iter", "12"), None),   # every solve converges
    ((), None),                                     # an adaptive run rejects such steps
])
def test_solve_counts_the_fixed_steps_kept_unconverged(capsys, flags, kept):
    code, out, err = run(capsys, "solve", "ex2", "--tf", "10", *flags, "--stdout")
    assert code == 0
    assert out.splitlines()[-1].startswith("# accepted=")
    lines = err.splitlines()
    assert lines[0].startswith("integration Success; number of failed steps=")
    assert lines[1:] == ([kept] if kept else [])


def test_solve_problem_file_and_observable(capsys, tmp_path):
    prob = tmp_path / "vdp.prob"
    prob.write_text(VDP)
    code, out, _ = run(capsys, "solve", str(prob), "--tf", "0.5",
                       "--atol", "1e-7", "--stdout")
    assert code == 0
    assert out.startswith("t,x,y\n")


def test_solve_observable_flag(capsys):
    code, out, _ = run(capsys, "solve", "ex4", "--N", "4", "--tf", "0.2",
                       "--atol", "1e-6", "--hinit", "1e-5",
                       "--stdout", "--observable", "c_x0")
    assert code == 0
    assert "# observable c_x0 at t=" in out


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tf = 1.0\natol = 1e-8\nmethod = imptrap\n# comment\n")
    code, out, _ = run(capsys, "solve", "ex1", "--config", str(cfg),
                       "--atol", "1e-4", "--stdout")
    assert code == 0
    # the looser flag atol wins over the config's 1e-8: far fewer rows
    assert len(out.splitlines()) < 60


def test_exit_code_1_on_bad_input(capsys, tmp_path):
    assert run(capsys, "solve", "no_such_problem", "--tf", "1.0")[0] == 1
    assert run(capsys, "solve", "ex1")[0] == 1            # missing --tf
    assert run(capsys, "solve", "ex1", "--tf", "-1")[0] == 1
    assert run(capsys, "converge", "ex1", "--tf", "1.0",
               "--n-list", "4,8")[0] == 1                 # not a PDE problem
    assert run(capsys, "orders", "ex2", "--tf", "1.0",
               "--h-list", "0.1")[0] == 1                 # no oracle
    # constants that fold to inf or divide by an underflowed zero
    for rhs in ("-1e308 * 10 * x", "x * 1e400", "exp(1000) * x",
                "x / (1e-320 * 1e-10)"):
        prob = tmp_path / "nonfinite.prob"
        prob.write_text(f"[odes]\nx' = {rhs}\n[init]\nx = 1.0\n")
        code, _, err = run(capsys, "solve", str(prob), "--tf", "1.0", "--stdout")
        assert code == 1, rhs
        assert err.startswith("error:")


@pytest.mark.parametrize("rhs", ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"],
                         ids=["parentheses", "minus-signs"])
def test_deeply_nested_expression_exits_1_with_its_line(capsys, tmp_path, rhs):
    # deep enough that a recursive parser overflows Python's stack
    prob = tmp_path / "deep.prob"
    prob.write_text(f"[odes]\nx' = {rhs}\n[init]\nx = 1\n")
    code, out, err = run(capsys, "solve", str(prob), "--tf", "1", "--stdout")
    assert (code, out) == (1, "")
    assert "line 2: expression nested too deeply" in err
    assert "Traceback" not in err


def _nested(template: str, depth: int) -> str:
    # template holds one "{}" for the next level down; the innermost is x
    s = "x"
    for _ in range(depth):
        s = template.format(s)
    return s


@pytest.mark.parametrize("rhs", [
    "-1e-3*" + _nested("exp({})", 250),
    _nested("x*(x+({}))", 100),
    "^".join(["x"] * 150),
    "^".join(["x"] * 450),
], ids=["exp-250", "mul-add-100", "power-tower-150", "power-tower-450"])
def test_expression_too_deep_to_compile_exits_1(capsys, tmp_path, rhs):
    # each stays within the parser's depth limit (mul-add-100 takes 802 of
    # its 850 nested calls); generated code nests past Python's 200
    # parentheses, and the deepest tree also exhausts the code generator's stack
    prob = tmp_path / "deep.prob"
    prob.write_text(f"[odes]\nx' = {rhs}\n[init]\nx = 1\n")
    code, out, err = run(capsys, "solve", str(prob), "--tf", "1e-3", "--ntot", "3", "--stdout")
    assert (code, out) == (1, "")
    assert "expression nested too deeply to compile" in err
    assert "Traceback" not in err


def _at_depth(frames: int, fn):
    """``fn()`` on a fresh thread, whose stack starts nearly empty as in a
    shell, ``frames`` stack frames down."""
    def down(k):
        return fn() if k == 0 else down(k - 1)
    result = []
    thread = threading.Thread(target=lambda: result.append(down(frames)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return result[0]


def test_parser_depth_limit_does_not_depend_on_the_callers_stack(capsys, tmp_path):
    # 120 levels of x*(x+(...)) take the parser 962 nested calls, past its
    # limit; 150 frames down, the RecursionError backstop fires first
    prob = tmp_path / "deep.prob"
    prob.write_text(f"[odes]\nx' = {_nested('x*(x+({}))', 120)}\n[init]\nx = 1\n")
    argv = ["solve", str(prob), "--tf", "1e-3", "--ntot", "3", "--stdout"]
    results = [_at_depth(frames, lambda: run(capsys, *argv)) for frames in (0, 150)]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (1, "")
    assert "line 2: expression nested too deeply\n" in err


@pytest.mark.parametrize("name", ["h", "Y0_1"])
def test_step_size_and_base_state_names_are_ordinary_parameters(capsys, tmp_path, name):
    # the step size and the base state are not parameters, so a parameter of
    # either name integrates like the same parameter renamed
    outs = []
    for k in (name, "k"):
        prob = tmp_path / f"{k}.prob"
        prob.write_text(f"[params]\n{k} = 2\n[odes]\nx' = -{k}*x\n[init]\nx = 1\n")
        code, out, _ = run(capsys, "solve", str(prob), "--tf", "1", "--stdout")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("t,x\n")


def test_unexpected_character_in_a_problem_file_exits_1_with_its_line(capsys, tmp_path):
    prob = tmp_path / "dollar.prob"
    prob.write_text("[odes]\nx' = x $ 1\n[init]\nx = 1\n")
    code, out, err = run(capsys, "solve", str(prob), "--tf", "1", "--stdout")
    assert (code, out) == (1, "")
    assert "line 2: unexpected character" in err


def test_undeclared_step_size_in_a_problem_file_exits_1(capsys, tmp_path):
    # an exit 0 would mean h silently became the step size
    prob = tmp_path / "h.prob"
    prob.write_text("[odes]\nx' = -h*x\n[init]\nx = 1\n")
    code, out, err = run(capsys, "solve", str(prob), "--tf", "1", "--stdout")
    assert (code, out) == (1, "")
    assert "'h'" in err


def test_exit_code_2_on_early_stop(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "ex2", "--tf", "2.0", "--atol", "1e-8",
                       "--ntot", "5", "--out", str(tmp_path / "p.csv"))
    assert code == 2
    assert "TooManySteps" in err


def test_adaptive_run_whose_sum_of_steps_falls_an_ulp_short_of_tf_lands_on_tf(capsys):
    # ten steps of 0.01 sum to one ulp below 0.1; the tenth must land on tf
    # rather than leave a step below the floor
    code, out, _ = run(capsys, "solve", "decay", "--tf", "0.1", "--hinit", "0.01",
                       "--hmax", "0.01", "--stdout")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("# accepted=10,") and lines[-1].endswith("status=Success")
    assert float(lines[-2].split(",")[0]) == 0.1


def test_default_hinit_above_hmax_is_capped_not_refused(capsys):
    code, out, _ = run(capsys, "solve", "decay", "--tf", "1e-5", "--atol", "0.1", "--stdout")
    assert code == 0
    assert out.splitlines()[-1].endswith("status=Success")
    # hinit was never set, so the run starts at hmax; ntot then stops it
    code, out, err = run(capsys, "solve", "ex2", "--tf", "1", "--hmax", "1e-9", "--ntot", "3", "--stdout")
    assert code == 2 and "TooManySteps" in err
    assert out.splitlines()[-1].startswith("# accepted=3,")
    # an hinit that was set is not capped
    code, _, err = run(capsys, "solve", "decay", "--tf", "1e-5", "--hinit", "1e-6", "--stdout")
    assert code == 1 and "hinit <= hmax" in err


def test_fixed_step_stops_at_ntot(capsys):
    code, out, err = run(capsys, "solve", "decay", "--tf", "1", "--fixed-h", "0.001",
                         "--ntot", "5", "--stdout")
    assert code == 2
    assert out.splitlines()[-1].startswith("# accepted=5,")
    assert "TooManySteps" in err


def test_fixed_step_run_that_leaves_the_domain_exits_2_with_the_partial_csv(capsys, tmp_path):
    prob = tmp_path / "sqrt.prob"
    prob.write_text("[odes]\nx' = -x^0.5 - 1\n[init]\nx = 1.0\n")
    code, out, err = run(capsys, "solve", str(prob), "--tf", "3", "--fixed-h", "0.1", "--stdout")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 1 + 7 + 1   # header, t = 0 .. 0.6, summary
    assert lines[-1].startswith("# accepted=6, rejected=1,")
    assert "StepUnderflow" in err


@pytest.mark.parametrize("fixed_h", ["0", "-0.5", "nan", "inf", "0.3", "1e-320"])
def test_fixed_step_that_does_not_divide_tf_exits_1(capsys, fixed_h):
    # SolverOptions rejects these before any driver runs: 0 must not fall
    # back to adaptive, and 1e-320 makes tf / fixed_h overflow
    for argv in (("solve", "decay", "--stdout"), ("converge", "ex4", "--n-list", "4,8")):
        code, out, err = run(capsys, *argv, "--tf", "1", "--fixed-h", fixed_h)
        assert (code, out) == (1, "")
        assert "fixed_h" in err


def test_config_fixed_h_zero_exits_1(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tf = 1.0\nfixed_h = 0\n")
    code, out, err = run(capsys, "solve", "decay", "--config", str(cfg), "--stdout")
    assert (code, out) == (1, "")
    assert "fixed_h" in err


def test_every_solver_option_has_a_flag_and_a_config_key():
    assert set(cli.SOLVER_OPTIONS) == {f.name for f in dataclasses.fields(SolverOptions)}


def test_config_keys_are_solver_option_names(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tf = 1.0\natoll = 1e-12\n")
    code, out, err = run(capsys, "solve", "ex1", "--config", str(cfg), "--stdout")
    assert (code, out) == (1, "")
    assert "atoll" in err and f"{cfg}:2:" in err
    cfg.write_text("tf = 1.0\nmethd = rad\n")
    assert run(capsys, "solve", "ex1", "--config", str(cfg), "--stdout")[0] == 1


def test_repeated_config_key_exits_1(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tf = 1.0\natol = 1e-6\n# again\natol = 1e-8\n")
    code, out, err = run(capsys, "solve", "ex1", "--config", str(cfg), "--stdout")
    assert (code, out) == (1, "")
    assert f"{cfg}:4:" in err and "atol" in err


def test_config_extrapolate_takes_yes_no_values(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    outs = {}
    for value in ("no", "False", "0", "yes", "1"):
        cfg.write_text(f"tf = 1.0\nextrapolate = {value}\n")
        code, outs[value], _ = run(capsys, "solve", "decay", "--config", str(cfg), "--stdout")
        assert code == 0
    assert outs["no"] == outs["False"] == outs["0"]
    assert outs["yes"] == outs["1"] != outs["no"]
    # the flag gives what the config's "no" gives
    assert run(capsys, "solve", "decay", "--tf", "1.0", "--no-extrapolate", "--stdout")[1] == outs["no"]
    cfg.write_text("tf = 1.0\nextrapolate = maybe\n")
    code, _, err = run(capsys, "solve", "decay", "--config", str(cfg), "--stdout")
    assert code == 1 and "maybe" in err


def test_repeated_parameter_in_problem_file_exits_1(capsys, tmp_path):
    prob = tmp_path / "vdp.prob"
    prob.write_text(VDP.replace("mu = 2.0\n", "mu = 2.0\nmu = 3.0\n"))
    code, out, err = run(capsys, "solve", str(prob), "--tf", "0.5", "--stdout")
    assert (code, out) == (1, "")
    assert "line 3" in err and "mu" in err


def test_problem_flag_the_problem_does_not_take_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "ex2", "--tf", "1", "--phi", "9", "--stdout")
    assert (code, out) == (1, "")
    assert "--phi" in err
    prob = tmp_path / "vdp.prob"
    prob.write_text(VDP)
    code, out, err = run(capsys, "solve", str(prob), "--tf", "1", "--N", "5", "--stdout")
    assert (code, out) == (1, "")
    assert "--N" in err


def test_problem_flags_are_the_builtin_constructor_keywords():
    dests = {dest for dest, _, _ in PROBLEM_FLAGS.values()}
    assert dests == set().union(*(builtin_keywords(name) for name in BUILTINS))


def test_singular_dense_jacobian_takes_the_perturbed_retry_without_a_warning(capsys, tmp_path):
    # the h=0 Jacobian of the circle constraint at (1, 0) has an exactly zero
    # pivot; the eps*I retry factorizes it, and the run stays at (1, 0).  A
    # warning on the way would be a traceback under -W error
    prob = tmp_path / "circle.prob"
    prob.write_text("[odes]\nx' = y\n[algebraic]\n0 = x^2 + y^2 - 1\n[init]\nx = 1\ny = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", str(prob), "--tf", "1", "--stdout")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2:] == ["1,1,0", "# accepted=30, rejected=0, jac_updates=12, lu=12, status=Success"]


@pytest.mark.parametrize("grid", [("2", "2"), ("4", "8")], ids=["dense", "sparse"])
def test_singular_potential_block_gives_the_same_run_on_both_lu_paths(capsys, grid):
    # Da = delta = 0 leaves ex6's potential block pure Neumann, singular in
    # exact arithmetic; 24 unknowns take the dense LU, 112 SuperLU, and both
    # keep the uniform steady state with the same counts
    n, m = grid
    code, out, _ = run(capsys, "solve", "ex6", "--N", n, "--M", m, "--Da", "0", "--delta", "0",
                       "--tf", "0.5", "--hinit", "1e-5", "--err-denominator", "standard", "--stdout")
    assert code == 0
    assert out.splitlines()[-1] == "# accepted=27, rejected=0, jac_updates=8, lu=8, status=Success"


def test_converge_table(capsys):
    code, out, _ = run(capsys, "converge", "ex4", "--tf", "0.2",
                       "--atol", "1e-6", "--hinit", "1e-5",
                       "--n-list", "4,8", "--observable", "c_x0", "--stdout")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,c_x0"
    assert lines[1].startswith("4,") and lines[2].startswith("8,")
    assert lines[3].startswith("# monotone=")


def test_converge_honours_fixed_h(capsys):
    # converge and solve share one dispatch: with --fixed-h both run the
    # fixed-step driver and report the same observable
    common = ("--tf", "0.5", "--atol", "1e-6", "--fixed-h", "0.1", "--observable", "c_x0")
    code, out, _ = run(capsys, "converge", "ex4", "--n-list", "4", *common)
    assert code == 0
    converged = out.splitlines()[1]
    code, out, _ = run(capsys, "solve", "ex4", "--N", "4", *common, "--stdout")
    assert code == 0
    solved = float(out.strip().splitlines()[-1].rsplit(":", 1)[1])
    assert converged == f"4,{solved:.15g}"


def test_orders_reports_slopes(capsys):
    code, out, _ = run(capsys, "orders", "decay", "--tf", "1.0",
                       "--method", "eb", "--h-list", "0.1,0.05,0.025",
                       "--stdout")
    assert code == 0
    slopes = [l for l in out.splitlines() if l.startswith("# slope")]
    assert len(slopes) == 2  # raw and extrapolated
    raw = float(slopes[0].split("=")[1])
    extr = float(slopes[1].split("=")[1])
    assert raw == pytest.approx(1.0, abs=0.15)
    assert extr == pytest.approx(2.0, abs=0.2)


def test_orders_honours_the_config_method(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tf = 1.0\nmethod = eb\n")
    code, out, _ = run(capsys, "orders", "decay", "--config", str(cfg),
                       "--h-list", "0.1,0.05", "--stdout")
    assert code == 0
    lines = out.splitlines()
    slopes = [l.split(" = ")[0] for l in lines if l.startswith("# slope")]
    assert slopes == ["# slope eb raw", "# slope eb extrapolated"]
    assert {l.split(",")[0] for l in lines[1:] if not l.startswith("#")} == {"eb"}


@pytest.mark.parametrize("h_list", ["0.5", "0.5,0.5", "0,0.5"])
def test_orders_needs_two_distinct_positive_step_sizes(capsys, monkeypatch, h_list):
    def no_integration(*_):
        raise AssertionError("integrated")

    monkeypatch.setattr(cli, "integrate", no_integration)
    code, out, err = run(capsys, "orders", "decay", "--tf", "1", "--method", "eb",
                         "--h-list", h_list, "--stdout")
    assert (code, out) == (1, "")
    assert "two distinct" in err


@pytest.mark.parametrize("h_list", ["1e-320,0.5", "0.1,nan"])
def test_orders_step_size_that_does_not_divide_tf_exits_1(capsys, h_list):
    # 1e-320 makes tf / h overflow, and nan has no step count
    code, out, err = run(capsys, "orders", "decay", "--tf", "1", "--method", "eb",
                         "--h-list", h_list, "--stdout")
    assert (code, out) == (1, "")
    assert "fixed_h" in err


def test_orders_exact_endpoint_prints_nan_slope_without_a_warning(capsys):
    # at h = 2e-9 the endpoint error is exactly 0, which has no logarithm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "orders", "ex1", "--tf", "1e-8", "--method", "eb",
                           "--h-list", "1e-9,2e-9", "--stdout")
    assert code == 0
    assert "eb,False,2.0000000000000001e-09,0\n" in out
    assert "# slope eb raw = nan\n" in out


def test_unknown_observable_exits_1_before_writing_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "solve", "ex1", "--tf", "1", "--observable", "nope")
    assert (code, out) == (1, "")
    assert "nope" in err
    assert not (tmp_path / "solution.csv").exists()
    code, out, err = run(capsys, "converge", "ex4", "--tf", "0.2", "--n-list", "4,8",
                         "--observable", "nope", "--out", "table.csv")
    assert (code, out) == (1, "")
    assert "nope" in err
    assert not (tmp_path / "table.csv").exists()


def test_pattern_matrix_market(capsys):
    code, out, _ = run(capsys, "pattern", "ex1", "--method", "eb")
    assert code == 0
    assert out == ("%%MatrixMarket matrix coordinate pattern general\n"
                   "2 2 4\n1 1\n2 1\n1 2\n2 2\n")


def test_pattern_reads_back_as_the_detected_pattern(capsys):
    code, out, _ = run(capsys, "pattern", "ex5", "--N", "8", "--M", "8", "--method", "rad")
    assert code == 0
    pat = detect_pattern(build_residual(example5(8, 8), MethodKind.RAD))
    back = scipy.io.mmread(io.StringIO(out))
    assert back.shape == (pat.n, pat.n) and back.nnz == pat.nnz
    rows = [[] for _ in range(pat.n)]
    for i, k in sorted(zip(back.row.tolist(), back.col.tolist())):
        rows[i].append(k + 1)
    assert tuple(map(tuple, rows)) == pat.rows
