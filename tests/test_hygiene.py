"""Source hygiene: no library module imports a name it never reads.

``__init__.py`` is left out, because its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

import sparsedae

MODULES = sorted(p for p in Path(sparsedae.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
