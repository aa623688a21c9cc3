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
