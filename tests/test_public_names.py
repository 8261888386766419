"""Every public name, every function and method, and every dataclass field
of the library has a user outside the tests.

A module's ``__all__`` may list only names that the package modules, the
benchmark or the demos read: as a ``Name``, an ``Attribute`` or an
imported name.  The package ``__init__`` only re-exports, so it does not
count as a user, and neither does a test file.  A reference that only
tests need belongs in ``tests/oracles.py``.  The same holds for the name
of every top-level function and every method other than a dunder, public
or not.  Likewise every field that a dataclass in the package declares
must be read as an attribute by one of those users.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "gossipsim").glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted(p for folder in ("bench", "demos")
                         for p in (ROOT / folder).glob("*.py") if not p.name.startswith("test_"))


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def _read_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_has_a_user_outside_the_tests():
    assert len(MODULES) >= 10 and any(p.parent.name == "bench" for p in USERS)
    used = set().union(*(_read_names(ast.parse(p.read_text())) for p in USERS))
    unused = [f"{p.stem}.{name}" for p in MODULES
              for name in _exported(ast.parse(p.read_text())) if name not in used]
    assert not unused, f"public names that only tests use: {', '.join(unused)}"


def _defined_functions(tree: ast.Module) -> list:
    """Top-level functions and the methods of top-level classes, without
    dunders."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = [node.name for node in tree.body if isinstance(node, funcs)]
    names += [f"{node.name}.{stmt.name}" for node in tree.body if isinstance(node, ast.ClassDef)
              for stmt in node.body
              if isinstance(stmt, funcs) and not stmt.name.startswith("__")]
    return names


def test_every_function_has_a_user_outside_the_tests():
    used = set().union(*(_read_names(ast.parse(p.read_text())) for p in USERS))
    defined = [(p.stem, name) for p in MODULES for name in _defined_functions(ast.parse(p.read_text()))]
    assert len(defined) >= 100
    unused = [f"{stem}.{name}" for stem, name in defined if name.rpartition(".")[2] not in used]
    assert not unused, f"functions that only tests call: {', '.join(unused)}"


# TraceRow's fields are the trace's columns, read by column name
FIELD_READERS_EXEMPT = {"TraceRow"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    # ``@dataclass`` or ``@dataclass(...)``
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _declared_fields(tree: ast.Module) -> list:
    return [(node.name, stmt.target.id) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            and node.name not in FIELD_READERS_EXEMPT
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _read_attributes(tree: ast.Module) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_outside_the_tests():
    declared = [(p.stem, cls, name) for p in MODULES
                for cls, name in _declared_fields(ast.parse(p.read_text()))]
    assert len(declared) >= 50
    read = set().union(*(_read_attributes(ast.parse(p.read_text())) for p in USERS))
    unread = [f"{stem}.{cls}.{name}" for stem, cls, name in declared if name not in read]
    assert not unread, f"dataclass fields nothing outside the tests reads: {', '.join(unread)}"
