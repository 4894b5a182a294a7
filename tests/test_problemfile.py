"""Problem-file parsing: sections, ordering, line-numbered diagnostics."""

import math

import pytest

from sparsedae import expr as ex
from sparsedae import grammar
from sparsedae.errors import ProblemFileError
from sparsedae.problemfile import load_problem, parse_problem_text
from sparsedae.stepper import SolverOptions, Status, integrate

VDP = """\
# Van der Pol oscillator
[params]
mu = 2.0

[odes]
x' = mu * (1 - y^2) * x - y
y' = x

[init]
x = 0.0
y = 2.0
"""

PENDULUM = """\
[odes]
y' = z

[algebraic]
y^2 + z^2 = 1

[init]
y = 0.0
z = 0.95   # inconsistent guess, fixed by initialization
"""


def test_parse_ode_system():
    sysd = parse_problem_text(VDP)
    assert sysd.var_names == ("x", "y")
    assert sysd.params == {"mu": 2.0}
    assert sysd.y0z0 == (0.0, 2.0)
    assert sysd.n_ae == 0


def test_parse_dae_with_constraint():
    sysd = parse_problem_text(PENDULUM)
    assert sysd.var_names == ("y", "z")
    assert sysd.n_ode == 1 and sysd.n_ae == 1
    traj = integrate(sysd, SolverOptions(tf=1.0, atol=1e-8))
    assert traj.status is Status.SUCCESS
    assert traj.final_state[0] == pytest.approx(math.sin(1.0), abs=1e-6)


def test_variable_order_is_odes_then_remaining_init():
    text = """\
[odes]
b' = a

[algebraic]
a = 1

[init]
a = 1.0
b = 0.0
"""
    sysd = parse_problem_text(text)
    assert sysd.var_names == ("b", "a")


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "vdp.prob"
    path.write_text(VDP)
    assert load_problem(str(path)).var_names == ("x", "y")


@pytest.mark.parametrize("text,line", [
    ("x = 1\n", 1),                                    # content before section
    ("[nope]\n", 1),                                   # unknown section
    ("[odes]\nx = 1\n[init]\nx = 0\n", 2),             # missing prime
    ("[odes]\nx' = +\n[init]\nx = 0\n", 2),            # syntax error in rhs
    ("[params]\nmu = abc\n", 2),                       # bad number
    ("[odes]\nx' = 1\n[init]\nx = 0\nx = 1\n", 5),     # duplicate init
    ("[params]\nk = 1\n\nk = 2\n", 4),                # repeated parameter
    ("[params]\nk 1\n", 2),                           # missing '='
    ("[odes]\nx' = 1\n", 2),                           # missing init entry
    ("[odes]\nx' = 1\n\nx' = 2\n[init]\nx = 0\n", 4),  # ODE defined twice
    ("[odes]\nx' = -k*x\n[init]\nx = 0\n", 2),         # undeclared name
    ("[params]\nk = 1\nx = 2\n[odes]\nx' = -x\n[init]\nx = 0\n", 3),  # parameter is a variable
    ("[odes]\nx' = y\n[algebraic]\ny = 1\n[init]\nx = 0\ny = 1\n[params]\nk = 1\ny = 2\n", 10),  # ... set after [init]
    ("[odes]\nx' = \n[init]\nx = 0\n", 2),              # truncated right-hand side
    ("[odes]\nx' = 2 *\n[init]\nx = 0\n", 2),          # ... after an operator
])
def test_errors_carry_line_numbers(text, line):
    with pytest.raises(ProblemFileError) as e:
        parse_problem_text(text)
    assert e.value.line_no == line
    assert "None" not in str(e.value)


def test_every_equation_reaches_the_parser_with_one_table(monkeypatch):
    # the reader resolves the file's names once; the parser only looks them up
    tables = []
    init = grammar._Parser.__init__

    def recording_init(self, tokens, names):
        tables.append(names)   # kept alive, so distinct tables have distinct ids
        init(self, tokens, names)

    monkeypatch.setattr(grammar._Parser, "__init__", recording_init)
    sysd = parse_problem_text(VDP.replace("[init]", "[algebraic]\nw = mu * x\n[init]\nw = 0"))
    assert len(tables) == 4   # two ODE right-hand sides and the two sides of one equation
    assert len({id(t) for t in tables}) == 1
    assert tables[0] == {"x": ex.U(1), "y": ex.U(2), "w": ex.U(3), "mu": ex.Param("mu")}
    assert sysd.var_names == ("x", "y", "w")


def test_init_interleaving_ode_and_algebraic_names_keeps_var_names_order():
    text = """\
[odes]
b' = a - b
d' = c

[algebraic]
a = 2 * d
c = b + 1

[init]
c = 1.0
b = 0.5
a = 2.0
d = 0.25
"""
    sysd = parse_problem_text(text)
    # ODE variables in [odes] order, then the algebraic ones in [init] order
    assert sysd.var_names == ("b", "d", "c", "a")
    assert sysd.y0z0 == (0.5, 0.25, 1.0, 2.0)
    b, d, c, a = (ex.U(k) for k in range(1, 5))
    assert sysd.ode_rhs == (a - b, c)
    assert sysd.alg_residual == (a - 2 * d, c - (b + 1))


def test_equation_count_mismatch():
    text = """\
[odes]
y' = z

[init]
y = 0.0
z = 1.0
"""
    with pytest.raises(ProblemFileError, match="counts must match"):
        parse_problem_text(text)


def test_comments_and_blank_lines_ignored():
    sysd = parse_problem_text("\n# leading comment\n" + VDP)
    assert sysd.var_names == ("x", "y")
