"""Problem-file reader.

Sections::

    [params]      name = value
    [odes]        name' = expr
    [algebraic]   expr = 0          (general lhs = rhs also accepted)
    [init]        name = value      (one line per variable, guesses allowed
                                     for algebraic variables)

Variable order follows the file: ODE variables in [odes] order, then the
remaining [init] names in their order (the algebraic variables).  Names in
[params], and in [init], must be unique.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .errors import ProblemFileError
from .grammar import ExprSyntaxError, parse_expr
from .system import DaeSystem

_SECTIONS = ("params", "odes", "algebraic", "init")


def numbered_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line left non-blank by cutting its ``#`` comment."""
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def read_assignments(lines: Iterable[Tuple[int, str]],
                     cast: Callable[[str, str], object] = lambda _name, text: float(text),
                     path: str = "", key: Callable[[str], str] = str) -> Dict[str, object]:
    """``{name: cast(name, value)}`` from numbered ``name = value`` lines, in
    file order, each name stripped and then mapped through ``key``.  Parses
    [params], [init] and the CLI's config files.

    A line without ``=``, a name seen before, or a value that ``cast``
    rejects (ValueError, or KeyError for a name it does not know) raises
    ProblemFileError with the line number and ``path``."""
    out: Dict[str, object] = {}
    for no, line in lines:
        name, sep, text = line.partition("=")
        name, text = key(name.strip()), text.strip()
        if not sep:
            raise ProblemFileError(no, "expected 'name = value'", path)
        if name in out:
            raise ProblemFileError(no, f"{name!r} is set twice", path)
        try:
            out[name] = cast(name, text)
        except KeyError:
            raise ProblemFileError(no, f"unknown name {name!r}", path)
        except ValueError:
            raise ProblemFileError(no, f"bad value {text!r} for {name!r}", path)
    return out


def _split_sections(lines):
    section = None
    out = {s: [] for s in _SECTIONS}
    for no, line in numbered_lines(lines):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ProblemFileError(no, f"unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise ProblemFileError(no, "content before any section header")
        out[section].append((no, line))
    return out


def parse_problem_text(text: str) -> DaeSystem:
    sections = _split_sections(text.splitlines())
    params = read_assignments(sections["params"])

    ode_defs: List[Tuple[int, str, str]] = []
    for no, line in sections["odes"]:
        lhs, _, rhs = line.partition("=")
        if not _:
            raise ProblemFileError(no, "expected \"name' = expr\"")
        lhs = lhs.strip()
        if not lhs.endswith("'"):
            raise ProblemFileError(no, "ODE left-hand side must end with '")
        ode_defs.append((no, lhs[:-1].strip(), rhs.strip()))

    init = read_assignments(sections["init"])

    ode_names = [name for _, name, _ in ode_defs]
    for no, name, _ in ode_defs:
        if name not in init:
            raise ProblemFileError(no, f"ODE variable {name!r} has no [init] entry")
    alg_names = [n for n in init if n not in set(ode_names)]
    var_names = ode_names + alg_names

    def parse_rhs(no: int, text_: str):
        try:
            return parse_expr(text_, var_names)
        except ExprSyntaxError as e:
            raise ProblemFileError(no, str(e))

    ode_rhs = tuple(parse_rhs(no, rhs) for no, _, rhs in ode_defs)

    alg: List = []
    for no, line in sections["algebraic"]:
        lhs, sep, rhs = line.partition("=")
        if not sep:
            raise ProblemFileError(no, "expected 'expr = 0'")
        alg.append(parse_rhs(no, lhs.strip()) - parse_rhs(no, rhs.strip()))

    if len(alg) != len(alg_names):
        raise ProblemFileError(
            0,
            f"{len(alg)} algebraic equations but {len(alg_names)} algebraic "
            f"variables ({alg_names}); counts must match",
        )

    try:
        return DaeSystem(
            ode_rhs=ode_rhs,
            alg_residual=tuple(alg),
            var_names=tuple(var_names),
            y0z0=tuple(init[n] for n in var_names),
            params=params,
        )
    except ValueError as e:
        raise ProblemFileError(0, str(e))


def load_problem(path: str) -> DaeSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem_text(fh.read())
