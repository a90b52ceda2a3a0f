"""Every name a cotn module exports is used outside its own definition.

A name in a ``src/cotn/<module>.__all__`` counts as reached when
- another top-level definition under ``src/`` reads it, as a name or as
  an attribute (``te.load_tensors`` reaches ``load_tensors``);
- ``README.md`` mentions it in backticks;
- a ``perfbench/*.py`` file mentions it; or
- ``tests/test_acceptance.py`` reads it.

So code that only tests use cannot come back into ``src/`` unnoticed.

Likewise every keyword default of a ``src/`` function, method or
constructor (an ``__init__`` or a dataclass field) must be set by some
call in ``src/``, ``perfbench/`` or ``tests/test_acceptance.py``: a
setting only tests vary is a constant. Calls are matched by the callee's
name; one with ``*`` or ``**`` arguments sets every parameter,
``replace(obj, field=...)`` sets that field of every dataclass, and
``_settings(Cls, ...)``, which builds Cls from text, sets every field of
Cls.
Files are parsed with ast, not imported.
"""

import ast
import functools
import math
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


# Defaults that stay although no such call sets them, and why.
DEFAULTS_KEPT = {
    "LorsParams.xi_e": "the paper's parameter vector: all eight builtin types "
                       "share xi_e = xi_i = 0 and e = 0.001, stated once here",
    "LorsParams.xi_i": "as xi_e",
    "LorsParams.e": "as xi_e",
    "softmax_last_axis.mask": "perfbench/tracer.py wraps this tape op by name; it "
                              "goes with the next change to the benchmark",
    "_batched_predict.chunk": "the chunk-invariance tests predict in other chunks",
    "sweep_types.type_ids": "tests sweep a few types to keep the suite short",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _params(fn: ast.FunctionDef, skip_self: bool) -> dict[str, int | None]:
    # Parameter -> position (None if keyword-only) of each one with a default.
    args = fn.args
    pos = (args.posonlyargs + args.args)[skip_self:]
    out = {p.arg: i for i, p in enumerate(pos) if i >= len(pos) - len(args.defaults)}
    out.update((p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d)
    return out


def _fields(cls: ast.ClassDef) -> dict[str, int]:
    # Init field -> position of each one with a default.
    out, i = {}, 0
    for st in cls.body:
        if not (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)):
            continue
        kw = {}
        if isinstance(st.value, ast.Call) and getattr(st.value.func, "id", None) == "field":
            kw = {k.arg: k.value for k in st.value.keywords}
            if getattr(kw.get("init"), "value", True) is False:
                continue
        if st.value is not None and (not kw or {"default", "default_factory"} & set(kw)):
            out[st.target.id] = i
        i += 1
    return out


def defaults_in_source(source: str) -> dict[str, tuple[str, int | None, bool]]:
    """'owner.param' -> (the name a call uses, the parameter's position,
    whether it is a dataclass field) of every keyword default."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            out.update((f"{node.name}.{p}", (node.name, i, False))
                       for p, i in _params(node, False).items())
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                out.update((f"{node.name}.{p}", (node.name, i, True))
                           for p, i in _fields(node).items())
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    owner, callee = node.name, node.name
                elif not fn.name.startswith("__"):
                    owner, callee = f"{node.name}.{fn.name}", fn.name
                else:
                    continue
                out.update((f"{owner}.{p}", (callee, i, False))
                           for p, i in _params(fn, True).items())
    return out


def calls_in_source(source: str) -> dict[str, tuple[int, set[str]]]:
    """Callee name -> (most positional arguments, keywords) over its calls;
    a call with * or ** arguments counts as passing all of them, and so
    does _settings(Cls, ...) as a call of Cls."""
    out: dict[str, tuple[int, set[str]]] = {}
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "id", getattr(n.func, "attr", None))
        if name is None:
            continue
        star = (any(isinstance(a, ast.Starred) for a in n.args)
                or any(k.arg is None for k in n.keywords))
        most, keys = out.get(name, (0, set()))
        out[name] = (math.inf if star else max(most, len(n.args)),
                     keys | {k.arg for k in n.keywords if k.arg})
        if name == "_settings" and n.args and isinstance(n.args[0], ast.Name):
            cls = n.args[0].id
            out[cls] = (math.inf, out.get(cls, (0, set()))[1])
    return out


def unset_defaults(defaults, calls) -> list[str]:
    _, replaced = calls.get("replace", (0, set()))
    unset = []
    for key, (callee, pos, field) in defaults.items():
        most, keys = calls.get(callee, (0, set()))
        param = key.rsplit(".", 1)[1]
        if not (most == math.inf or param in keys or (pos is not None and most > pos)
                or (field and param in replaced)):
            unset.append(key)
    return sorted(unset)


@functools.cache
def _unset() -> tuple[str, ...]:
    defaults, calls = {}, {}
    callers = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    for path in MODULES:
        defaults.update(defaults_in_source(path.read_text(encoding="utf-8")))
    for path in callers:
        for name, (most, keys) in calls_in_source(path.read_text(encoding="utf-8")).items():
            prev_most, prev_keys = calls.get(name, (0, set()))
            calls[name] = (max(most, prev_most), keys | prev_keys)
    return tuple(unset_defaults(defaults, calls))


def test_every_keyword_default_is_set_by_a_caller():
    assert sorted(set(_unset()) - set(DEFAULTS_KEPT)) == []


def test_every_kept_default_is_still_unset():
    assert sorted(set(DEFAULTS_KEPT) - set(_unset())) == []


def test_what_sets_a_default():
    source = ("def f(a, b=1, *, c=2):\n    pass\n\n"
              "class K:\n    def __init__(self, x, y=0):\n        pass\n"
              "    def m(self, z=0):\n        pass\n\n"
              "@dataclass\nclass D:\n    u: int\n    v: int = 0\n"
              "    w: list = field(default_factory=list)\n"
              "    s: int = field(init=False)\n")
    defaults = defaults_in_source(source)
    assert sorted(defaults) == ["D.v", "D.w", "K.m.z", "K.y", "f.b", "f.c"]
    unset = lambda calls: unset_defaults(defaults, calls_in_source(calls))
    assert unset("f(1)\nK(1)\nk.m()\nD(1)\n") == sorted(defaults)
    assert unset("f(1, 2)\nf(0, c=3)\nK(1, 2)\nk.m(z=1)\nD(1, 2)\n") == ["D.w"]
    assert unset("f(*a)\nK(**kw)\nreplace(d, w=[])\n") == ["D.v", "K.m.z"]
    assert unset("_settings(D, texts, None)\n_settings(K)\n") == ["K.m.z", "f.b", "f.c"]
