"""Property: any problem-file text and flags, and any study command over the
built-ins, end in exit code 0, 1 or 2."""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedae.cli import main

# a two-variable system: x is an ODE variable, y an ODE or algebraic one;
# the pools mix well-posed, stiff, singular, non-finite (folded, overflowing at
# run time, or in a piecewise branch) and truncated lines and lines naming h and
# Y0_1, which are ordinary parameters; x's ODE may be defined twice, a parameter
# may share a variable's name, and the junk pool holds a repeated parameter
X_ODES = ["x' = -k*x", "x' = y", "x' = -k*x + y", "x' = -x^0.5 - 1", "x' = ln(x)",
          "x' = exp(1000) * x", "x' = exp(1000*x)", "x' = piecewise(x < 0.5, -x, x >= 2, 1, 2*x)",
          "x' = piecewise(x < 0, ln(x), x)", "x' = -x / y", "x' = 1 / (x - x)", "x' = -h*x",
          "x' = -Y0_1*x", "x' = ", "x' = 2 *", "x' = exp(x"]
Y_ODES = ["y' = x", "y' = -k*y", "y' = k*(1 - x^2)*y - x"]
Y_ALGS = ["0 = x^2 + y^2 - 1", "y = k*x", "y^2 = x + 1", "0 = ln(y) + x", "0 = x", "0 = 1"]
PARAMS = ["h = 2", "Y0_1 = 5", "Y0_x = 1", "k2 = 3", "k = 4", "x = 1", "y = 2"]
NUMBERS = ["1", "0.5", "2", "0", "-1", "1e300", "nan", "inf"]
JUNK = st.one_of(st.sampled_from(["[grid]", "= 3", "# comment", "x' = 1", "z = 1", "k = abc", "[init]",
                                  "k = 4"]),
                 st.text("xyk'=+-*/^()[]<>,.019e ", max_size=12))


@st.composite
def problem_text(draw) -> str:
    lines = ["[params]", "k = " + draw(st.sampled_from(NUMBERS))]
    lines += draw(st.lists(st.sampled_from(PARAMS), max_size=1))
    lines += ["[odes]"] + draw(st.lists(st.sampled_from(X_ODES), min_size=1, max_size=2))
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(Y_ODES)))
    else:
        lines += ["[algebraic]", draw(st.sampled_from(Y_ALGS))]
    lines += ["[init]", "x = " + draw(st.sampled_from(NUMBERS)),
              "y = " + draw(st.sampled_from(NUMBERS))]
    for junk in draw(st.lists(JUNK, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


def mostly(valid, invalid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(invalid))


# fixed-step mode stops at --ntot like the adaptive loop, so tf/fixed_h may
# ask for many more steps than an example can afford
FLAGS = st.fixed_dictionaries({}, optional={
    "--tf": mostly(["1", "0.5", "1000"], ["0", "-1", "nan", "inf"]),
    "--fixed-h": mostly(["0.5", "0.25", "1", "0.001", "1e-6"], ["0", "0.3", "nan", "inf"]),
    "--atol": mostly(["1e-6", "1e-3", "1e-10"], ["0", "nan", "inf", "abc"]),
    "--hinit": mostly(["1e-3", "0.1"], ["0", "1", "nan", "inf"]),
    "--hmax": mostly(["0.1", "0.5"], ["1e-6", "0", "nan", "inf"]),
    "--ntot": mostly(["1", "5"], ["0", "x"]),
    "--iter": mostly(["1", "5"], ["0", "-2"]),
    "--method": mostly(["eb", "cn", "imptrap", "rad"], ["bogus"]),
    "--err-denominator": mostly(["literal", "standard"], ["x"]),
    "--observable": st.sampled_from(["x", "nope"]),
    "--no-extrapolate": st.just(None),
    # builtin problem flags: a problem file takes none of them
    "--N": st.sampled_from(["4", "0", "x"]),
    "--phi": st.sampled_from(["2", "nan"]),
})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(["solve", "pattern"]), text=problem_text(), flags=FLAGS)
# tf = inf must be rejected before fixed-step mode takes round(tf / fixed_h)
@example(command="solve", text="[odes]\nx' = -x\n[init]\nx = 1\n",
         flags={"--tf": "inf", "--fixed-h": "0.5"})
# the taken branch is ln of a negative
@example(command="solve", text="[odes]\nx' = piecewise(x < 0, ln(x), x)\n[init]\nx = -1\n", flags={})
# an ODE defined twice, a parameter that is also a variable, a truncated right-hand side
@example(command="solve", text="[odes]\nx' = -x\nx' = 1\n[init]\nx = 1\n", flags={})
@example(command="pattern", text="[params]\ny = 2\n[odes]\nx' = y\n[algebraic]\ny = x\n[init]\nx = 1\ny = 1\n",
         flags={})
@example(command="solve", text="[odes]\nx' = -x^\n[init]\nx = 1\n", flags={})
def test_problem_files_and_flags_exit_0_1_or_2(command, text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.prob")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, path]
        if command == "solve":
            # a bounded step count keeps every example short
            argv += ["--tf", "1", "--ntot", "20", "--stdout"]
            for flag, value in flags.items():
                argv += [flag] if value is None else [flag, value]
        elif "--method" in flags:
            argv += ["--method", flags["--method"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)


# orders: ex2 has no oracle, and 1e-300 divides tf = 1 into more whole steps
# than --ntot allows; converge: ex1 is not a grid problem and N = 0 or 1 is
# too coarse a grid
H_LIST = st.lists(st.sampled_from(["0.5", "0.25", "0.3", "1e-300", "0", "nan", "x"]), min_size=1, max_size=3)
N_LIST = st.lists(st.sampled_from(["2", "3", "4", "0", "1", "x"]), min_size=1, max_size=3)
METHOD = st.lists(st.sampled_from(["eb", "cn", "imptrap", "rad"]), max_size=1)


@st.composite
def study_argv(draw):
    if draw(st.booleans()):
        argv = ["orders", draw(st.sampled_from(["decay", "ex1", "ex2"])), "--tf", "1",
                "--ntot", draw(st.sampled_from(["5", "20"])), "--h-list", ",".join(draw(H_LIST))]
        return argv + [flag for m in draw(METHOD) for flag in ("--method", m)]
    return ["converge", draw(st.sampled_from(["ex4", "ex5", "ex1"])), "--tf", "0.01", "--ntot", "20",
            "--n-list", ",".join(draw(N_LIST))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=study_argv())
# every method to tf, then a run stopped by --ntot, then a run that succeeds
@example(argv=["orders", "ex1", "--tf", "1", "--ntot", "5", "--h-list", "0.5,0.25"])
@example(argv=["orders", "decay", "--tf", "1", "--ntot", "5", "--method", "eb", "--h-list", "1e-300,0.5"])
@example(argv=["converge", "ex4", "--tf", "0.01", "--ntot", "20", "--hinit", "5e-4", "--n-list", "2,3"])
def test_study_commands_exit_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
