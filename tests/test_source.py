"""Invariants of the package source: standard-library imports only, no call
of ``vars()`` (objects are complete when built, and nothing writes into
another module's instances through their dict) and no line over 100
characters."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "aprop").glob("*.py"))
MAX_LINE = 100


def imported_modules(tree):
    """(top-level module, relative) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], False
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").split(".")[0], node.level > 0


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [
        module for module, relative in imported_modules(tree)
        if not relative and module != "__future__" and module not in sys.stdlib_module_names
    ]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_call_of_vars(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"
    ]
    assert calls == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_line_over_the_limit(path):
    long = [
        n for n, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []
