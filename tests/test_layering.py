"""Module layering: every import of the package sits at module level.

An import inside a function is how a module dodges an import cycle.  The
modules form layers (systems, config and faults; then labels, states,
kernels; then everything built on kernels), so none is needed, and this
check keeps it that way.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bct").glob("*.py"))


def function_local_imports(tree: ast.AST) -> list[int]:
    lines = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [node.lineno for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(ast.parse(path.read_text())) == []
