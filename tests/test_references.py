"""Every top-level function and class of the package is read by the
package or the benchmark; a helper only the tests call lives in the
tests."""

import ast
from functools import cache
from pathlib import Path

import pytest

import fusionhom

PACKAGE = Path(fusionhom.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
CALLERS = MODULES + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read(node):
    """The name a node reads: a name, an attribute, an imported name or
    a string constant (the benchmark's tracer names what it wraps by
    string); None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@cache
def reads(source: str) -> frozenset:
    """(name, owner) for each name the source reads, owner being the
    top-level definition the read sits in, None outside all of them."""
    out = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        out.update((name, owner) for name in map(_read, ast.walk(top))
                   if name is not None)
    return frozenset(out)


def unreferenced(key, sources: dict) -> list:
    """The top-level definitions of sources[key] that no source reads,
    a definition's reads of its own name not counted."""
    read = {k: reads(source) for k, source in sources.items()}
    return [top.name for top in ast.parse(sources[key]).body
            if isinstance(top, DEFINITIONS)
            and not any(name == top.name and (k != key or owner != top.name)
                        for k, pairs in read.items() for name, owner in pairs)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_has_a_caller(path):
    sources = {p: p.read_text(encoding="utf-8") for p in CALLERS}
    assert unreferenced(path, sources) == []


def test_a_definition_without_a_caller_is_reported():
    sources = {
        "lib": ("def used():\n    return 1\n\n"
                "def recursive(n):\n    return recursive(n - 1)\n\n"
                "class Named:\n    pass\n\n"
                "class Orphan:\n    def used(self):\n        pass\n"),
        "caller": ("from lib import used\nimport lib\n\n"
                   "WRAPPED = ('Named',)\nlib.used()\n"),
    }
    assert unreferenced("lib", sources) == ["recursive", "Orphan"]
    assert unreferenced("caller", sources) == []
