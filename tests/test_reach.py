"""Every name a cotn module exports is used outside its own definition.

A name in a ``src/cotn/<module>.__all__`` counts as reached when
- another top-level definition under ``src/`` reads it, as a name or as
  an attribute (``te.load_tensors`` reaches ``load_tensors``);
- ``README.md`` mentions it in backticks;
- a ``perfbench/*.py`` file mentions it; or
- ``tests/test_acceptance.py`` reads it.

So code that only tests use cannot come back into ``src/`` unnoticed.
Files are parsed with ast, not imported.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cotn").glob("*.py"))
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _defined(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _read(tree: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def reached_in_source(source: str) -> set[str]:
    """The names each top-level statement reads, less those it defines."""
    reached = set()
    for node in ast.parse(source).body:
        reached |= _read(node) - _defined(node)
    return reached


def _backticked(text: str) -> set[str]:
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(_IDENT.findall(" ".join(spans)))


def _exports(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@functools.cache
def _reached() -> frozenset[str]:
    reached = set()
    for path in MODULES:
        reached |= reached_in_source(path.read_text(encoding="utf-8"))
    reached |= _backticked((ROOT / "README.md").read_text(encoding="utf-8"))
    for path in (ROOT / "perfbench").glob("*.py"):
        reached |= set(_IDENT.findall(path.read_text(encoding="utf-8")))
    acceptance = ROOT / "tests" / "test_acceptance.py"
    reached |= _read(ast.parse(acceptance.read_text(encoding="utf-8")))
    return frozenset(reached)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_reached(path):
    assert sorted(set(_exports(path)) - _reached()) == []


def test_a_definitions_own_uses_do_not_count():
    source = ("def f(n):\n    return f(n - 1)\n\n"
              "def g():\n    return h.k\n\n"
              "X = 1\nX += X\n")
    assert reached_in_source(source) == {"n", "h", "k"}


def test_backticked_names():
    text = "Call `load_tensors(path)` here, not load_csv.\n```\nsimulate(x)\n```\n"
    assert _backticked(text) == {"load_tensors", "path", "simulate", "x"}
