"""Every public name of the library has a user outside the tests.

A module's ``__all__`` may list only names that the package modules, the
benchmark or the demos read: as a ``Name``, an ``Attribute`` or an
imported name.  The package ``__init__`` only re-exports, so it does not
count as a user, and neither does a test file.  A reference that only
tests need belongs in ``tests/oracles.py``.
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
