import ast
from pathlib import Path

import spde_reflect
from spde_reflect import cli


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


def _unread_config_keys(tree, schema):
    """(section, key) of every ``schema`` entry that the module never reads.

    A read is a ``["key"]`` load from ``cfg["section"]`` or
    ``values["section"]``, or from a name bound to one of them anywhere in
    the module, or a key string passed to ``_initial_state`` (which reads
    ``[sim]``)."""
    def section(node):
        if (isinstance(node, ast.Subscript)
                and getattr(node.value, "id", None) in ("cfg", "values")
                and getattr(node.slice, "value", None) in schema):
            return node.slice.value
        return None

    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)]
                         if not isinstance(target, ast.Tuple)
                         or not isinstance(node.value, ast.Tuple)
                         else zip(target.elts, node.value.elts))
                for name, value in pairs:
                    if isinstance(name, ast.Name) and section(value):
                        bound[name.id] = section(value)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            sec = (section(node.value)
                   or bound.get(getattr(node.value, "id", None)))
            if sec is not None and isinstance(node.slice, ast.Constant):
                read.add((sec, node.slice.value))
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_initial_state"):
            read.update(("sim", a.value) for a in node.args
                        if isinstance(a, ast.Constant))
    return sorted((sec, key) for sec in schema for key in schema[sec]
                  if (sec, key) not in read)


def test_the_scan_finds_an_unread_config_key():
    tree = ast.parse("def f(cfg, values):\n"
                     "    sp, n = cfg['space'], 1\n    sp['a']\n"
                     "    values['sim']['b']\n    cfg['sim'][n]\n"
                     "    _initial_state(values, 'c')\n"
                     "    other['space']['d']\n")
    schema = {"space": {"a": 0, "d": 0}, "sim": {"b": 0, "c": 0, "e": 0}}
    assert _unread_config_keys(tree, schema) == [("sim", "e"), ("space", "d")]


# parsed and hashed, and read by nothing: config_hash hashes every key, so
# deleting one moves every pinned summary.json (ROADMAP item 1 deletes them)
_INERT_CONFIG_KEYS = [
    ("experiments", "holder_direction_mode"), ("experiments", "holder_epsilons"),
    ("experiments", "holder_t"), ("experiments", "kappa"),
    ("sim", "record_v_norms"),
]


def test_every_config_key_is_read():
    # a config key that nothing reads is a value the user cannot vary
    path = Path(cli.__file__)
    assert (_unread_config_keys(ast.parse(path.read_text()), cli._SCHEMA)
            == _INERT_CONFIG_KEYS)


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
