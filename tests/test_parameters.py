import ast
from pathlib import Path

import spde_reflect


def _unread_parameters(tree):
    """(function, parameter) of every def, nested ones included, whose body
    never loads that parameter; ``self`` and ``_``-prefixed names are skipped."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                   a.vararg, a.kwarg) if p is not None]
        loaded = {n.id for stmt in fn.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p != "self" and not p.startswith("_") and p not in loaded:
                yield fn.name, p


def test_the_scan_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b, _c, *, d=1):\n"
                     "    def g(e):\n        return a\n    return g\n")
    assert sorted(_unread_parameters(tree)) == [("f", "b"), ("f", "d"),
                                                ("g", "e")]


def test_every_parameter_is_read():
    # a parameter that its function never reads is a value no caller can
    # vary; it is deleted, not kept for the signature's sake
    src = Path(spde_reflect.__file__).parent
    unread = [f"{path.stem}.{fn}: {p}" for path in sorted(src.glob("*.py"))
              for fn, p in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def _unused_imports(tree):
    """Every name an import binds that the module never loads and does not
    list in ``__all__``; ``from __future__`` imports are not counted."""
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield name


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, sys as system\nfrom a import b, c, d\n"
                     "__all__ = ['d']\n\ndef f():\n    import e\n"
                     "    return os.sep, c\n")
    assert sorted(_unused_imports(tree)) == ["b", "e", "system"]


def test_every_import_is_used():
    # an import that nothing reads is a dependency the module does not have
    src = Path(spde_reflect.__file__).parent
    unused = [f"{path.stem}: {name}" for path in sorted(src.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []
