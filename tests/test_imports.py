"""No module of the package or of the tests imports a name it never reads.

Each module is parsed with ast, not imported. A top-level import binds
names (``import a.b`` binds ``a``); one counts as used when the module
reads it anywhere or lists it in ``__all__``. ``from __future__``
imports bind nothing the module reads, so they are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cotn").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return []


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return set()


def unused_imports(source: str) -> list[str]:
    """The names top-level imports bind that the module never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    keep = read | _exported(tree)
    return [name for node in tree.body for name in _bound_names(node) if name not in keep]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport a.b\nfrom x import y as z, w\n"
              "__all__ = ['w']\nprint(sys, a.b)\n")
    assert unused_imports(source) == ["os", "z"]
