"""Source hygiene: no library module imports a name it never reads, no
library function takes a parameter it never reads, and no library function,
class, method or module-level ``_UPPER_CASE`` constant is left that no
caller reads.

The callers are the library modules, the benchmark (``perfbench/``) and
the acceptance criteria; a definition that only unit tests read belongs in
the tests.  ``__init__.py`` is left out of the import scan, and is no reader
in the definition scan, because its imports are the package's re-exports.
The names the benchmark's tracer patches by string are checked by running
its ``install`` in a child process, and the ones its worker reads by
running one traced round there.  ``ShapeGroup``s are built only in
``codegen``, from their own shape text, so a group's ``text`` always
describes its slots.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparsedae

SOURCES = sorted(Path(sparsedae.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
CALLERS = MODULES + sorted((Path(__file__).parent.parent / "perfbench").glob("*.py")) + [
    Path(__file__).parent / "test_acceptance.py"]


def unused_imports(source: str):
    """Names bound by an import statement and never read, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_name():
    assert unused_imports("import os\nfrom typing import List, Tuple\nx: Tuple = ()\n") == [
        (1, "os"), (2, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_parameters(source: str):
    """(line, function, parameter) for every parameter a function or lambda
    never reads in its body; ``self``, ``cls`` and ``_``-prefixed names are
    exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p) for p in params
                  if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return sorted(found)


def test_the_scan_finds_an_unused_parameter():
    src = ("class A:\n    def f(self, a, b, _c, *args, d=1, **kw):\n        return a + d + len(kw)\n"
           "g = lambda x, y: x\n")
    assert unused_parameters(src) == [(2, "f", "args"), (2, "f", "b"), (4, "<lambda>", "y")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_function_reads_every_parameter(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


PRIVATE_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")


def unread_definitions(sources, readers):
    """(file name, line, name) for every function, class, non-dunder method
    or module-level ``_UPPER_CASE`` constant of ``sources`` (file name ->
    text) whose name no text of ``readers`` reads, as a name or as an
    attribute."""
    read = set()
    for text in readers:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    found = []
    for name, text in sources.items():
        tree = ast.parse(text)
        for n in ast.walk(tree):
            if (isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (n.name.startswith("__") and n.name.endswith("__"))
                    and n.name not in read):
                found.append((name, n.lineno, n.name))
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for t in targets:
                for n in ast.walk(t):
                    if (isinstance(n, ast.Name) and PRIVATE_CONSTANT.fullmatch(n.id)
                            and n.id not in read):
                        found.append((name, n.lineno, n.id))
    return sorted(found)


def test_the_scan_finds_an_unread_definition():
    src = ("def used(): pass\ndef unused(): pass\n"
           "class C:\n    def __init__(self): pass\n    def m(self): pass\n    def n(self): pass\n")
    assert unread_definitions({"m.py": src}, [src, "used(); C().n()\n"]) == [
        ("m.py", 2, "unused"), ("m.py", 5, "m")]


def test_the_scan_finds_an_unread_private_constant():
    src = ("_USED = 1\n_UNUSED = 2\n_A, _B = 3, 4\n_T: int = 5\nPUBLIC = 6\n_lower = 7\n"
           "def f():\n    _LOCAL = 8\n    return _USED + _A\n")
    assert unread_definitions({"m.py": src}, [src, "f()\n"]) == [
        ("m.py", 2, "_UNUSED"), ("m.py", 3, "_B"), ("m.py", 4, "_T")]


def test_every_library_definition_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    readers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unread_definitions(sources, readers) == []


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracing.py reaches sparsedae's module globals and methods by
    # their string names, which the scans above cannot see.  install() patches
    # them for the life of the process, so it runs in a child.
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_traced_benchmark_round_counts_every_lu():
    # the worker reads Stepper.integrate, Trajectory.lu_count and init_lu,
    # which install() alone does not reach; one traced round runs them
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"), "--workload",
                           "vdp-4methods", "--seed", "1", "--round", "0", "--trace", "1"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    ops = out["ops"]
    assert [(op["failed"], op.get("status")) for op in ops] == [(False, "Success")] * 4, proc.stderr
    # with no eps*I retry, each factorize call is one LU
    assert out["layers"]["linalg.perturbed_factorizations"] == 0
    assert out["layers"]["linalg.factorize_calls"] == sum(op["lus"] for op in ops)


# numpy's module-level reductions re-dispatch in Python before reaching the
# ndarray method, and the ndarray methods .max, .min and .sum (like .all and
# .any) run a Python wrapper of their own, in numpy._core._methods, before
# the ufunc's reduce.  Each costs microseconds per call on the small arrays
# of the Newton loop.  The integrate-path modules call no module-level
# reduction, and newton.py, whose iteration runs tens of thousands of times
# in a small system's run, calls none of those methods either: its norm is
# BLAS idamax.  Nor does stepper.py, whose step attempt runs thousands of
# times: its error norm is idamax too.  (Their .all() is the exact test
# behind the sum-of-squares screen, so it runs only on a non-finite or
# overflowing vector.)
NUMPY_REDUCTIONS = {"max", "min", "amax", "amin", "sum", "all", "any"}
REDUCTION_METHODS = {"max", "min", "sum"}
INTEGRATE_PATH = ["newton.py", "stepper.py", "codegen.py", "jacobian.py", "linalg.py"]


def numpy_reduction_calls(source: str):
    """(line, name) for every call of ``np.<reduction>``."""
    return sorted((n.lineno, n.func.attr) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and isinstance(n.func.value, ast.Name) and n.func.value.id == "np"
                  and n.func.attr in NUMPY_REDUCTIONS)


def test_the_scan_finds_a_numpy_reduction_call():
    src = ("x = np.max(np.abs(a))\ny = np.abs(a).max()\nz = np.maximum(a, b)\n"
           "w = np.sum(a) + a.sum() + np.all(a)\n")
    assert numpy_reduction_calls(src) == [(1, "max"), (4, "all"), (4, "sum")]


@pytest.mark.parametrize("name", INTEGRATE_PATH)
def test_integrate_path_calls_no_numpy_reduction_wrapper(name):
    path = Path(sparsedae.__file__).parent / name
    assert numpy_reduction_calls(path.read_text(encoding="utf-8")) == []


def reduction_method_calls(source: str):
    """(line, name) for every call of a ``.max``, ``.min`` or ``.sum``
    method on anything but the ``np`` module."""
    return sorted((n.lineno, n.func.attr) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in REDUCTION_METHODS
                  and not (isinstance(n.func.value, ast.Name) and n.func.value.id == "np"))


def test_the_scan_finds_a_reduction_method_call():
    src = ("x = float(np.abs(d).max(initial=0.0))\ny = max(a, b) + np.max(a)\n"
           "z = d.sum() + self.out.min()\nw = d.dot(d) + np.isfinite(d).all()\n")
    assert reduction_method_calls(src) == [(1, "max"), (3, "min"), (3, "sum")]


def test_newton_iteration_calls_no_reduction_method():
    path = Path(sparsedae.__file__).parent / "newton.py"
    assert reduction_method_calls(path.read_text(encoding="utf-8")) == []


def test_step_attempt_calls_no_reduction_method():
    path = Path(sparsedae.__file__).parent / "stepper.py"
    assert reduction_method_calls(path.read_text(encoding="utf-8")) == []


def shape_group_constructions(source: str):
    """Lines that call ``ShapeGroup(...)``, by name or as an attribute."""
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    return sorted(n.lineno for n in calls
                  if getattr(n.func, "id", getattr(n.func, "attr", None)) == "ShapeGroup")


def test_the_scan_finds_a_shape_group_construction():
    src = ("g = ShapeGroup(t, e, names, rows, index)\nh = codegen.ShapeGroup(*g)\n"
           "k = g._replace(rows=rows)\nShapeGroup\n")
    assert shape_group_constructions(src) == [1, 2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "codegen.py"], ids=lambda p: p.name)
def test_shape_groups_are_built_only_in_codegen(path):
    assert shape_group_constructions(path.read_text(encoding="utf-8")) == []


def internal_leaves_by_name(source: str):
    """Lines that build a parameter named ``h`` or ``Y0_...``, compare a
    ``.name`` with ``"h"``, or hold a ``"Y0_"`` string outside a docstring:
    the step size and the base state are the leaves ``expr.H`` and
    ``expr.Base``, never parameter names."""
    tree = ast.parse(source)
    docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and n.body and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)}

    def named(n):
        return isinstance(n, ast.Constant) and isinstance(n.value, str) and (
            n.value == "h" or "Y0_" in n.value)

    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "Param":
            if any(map(named, n.args[:1] + [k.value for k in n.keywords])):
                found.add(n.lineno)
        elif isinstance(n, ast.Compare):
            operands = [n.left] + n.comparators
            if any(getattr(x, "attr", None) == "name" for x in operands) and any(map(named, operands)):
                found.add(n.lineno)
        elif named(n) and "Y0_" in n.value and id(n) not in docstrings:
            found.add(n.lineno)
    return sorted(found)


def test_the_scan_finds_an_internal_leaf_built_or_parsed_by_name():
    src = ('"""Y0_k in a docstring."""\nh = ex.Param("h")\nb = Param(f"Y0_{k}")\n'
           'if e.name == "h":\n    pass\nPREFIX = "Y0_"\nk = ex.Param("k")\nreturn "h"\n'
           'b = ex.Base(1)\nc = ex.Param(name="Y0_1")\n')
    assert internal_leaves_by_name(src) == [2, 3, 4, 6, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_internal_leaf_is_built_or_parsed_by_name(path):
    assert internal_leaves_by_name(path.read_text(encoding="utf-8")) == []
