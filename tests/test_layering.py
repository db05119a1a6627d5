"""Module layering: every import of the package sits at module level.

An import inside a function is how a module dodges an import cycle.  The
modules form layers (systems, config and faults; then labels, states,
kernels; then everything built on kernels), so none is needed, and this
check keeps it that way.

The enumeration bounds are stated once, in `config`; a module that writes
one of them as a literal has its own bound policy, which this check refuses.
"""

import ast
from pathlib import Path

import pytest

from bct.config import DEFAULT_MAX_DIM, DILATION_MAX_DIM

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


def bound_literals(tree: ast.AST) -> list[int]:
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and type(node.value) is int
                   and node.value in (DEFAULT_MAX_DIM, DILATION_MAX_DIM)})


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "config.py"],
                         ids=lambda p: p.name)
def test_bounds_come_from_config(path):
    assert bound_literals(ast.parse(path.read_text())) == []
