"""Every module-level function and class in the package, and every
non-dunder method of those classes, is used somewhere.

A name counts as used when the package, the tests or the demos mention it
outside its own definition: as a name, an attribute, an imported name or a
string (``monkeypatch.setattr`` and ``getattr`` name functions by string).
A method's own body does not count either, since a cached method may name
itself as its cache key.  Module-level functions registered by a decorator,
such as catalog's ``@_atom`` specs, are reached through the registry and
are exempt.
"""

import ast
from pathlib import Path

import hgs

PACKAGE = Path(hgs.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(PACKAGE.glob("*.py"))
USERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _mentions(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.add(n.value)
    return names


def _mentions_outside_itself(stmt: ast.stmt) -> set[str]:
    """Names a statement mentions; a definition's own name does not count
    inside its own body, nor a method's inside the method's body."""
    if isinstance(stmt, ast.ClassDef):
        found = set().union(*map(_mentions_outside_itself, stmt.body),
                            *map(_mentions, stmt.bases + stmt.decorator_list))
    else:
        found = _mentions(stmt)
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        found.discard(stmt.name)
    return found


def _used_names() -> set[str]:
    used = set()
    for path in USERS:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= _mentions_outside_itself(stmt)
    return used


def _definitions() -> list[tuple[str, str]]:
    defs = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.decorator_list:
                continue  # registered by its decorator
            if isinstance(stmt, ast.ClassDef):
                defs += [(path.name, f"{stmt.name}.{m.name}") for m in stmt.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, stmt.name))
    return defs


def test_every_module_level_definition_is_used():
    defs = _definitions()
    assert len(defs) >= 100
    used = _used_names()
    unused = [f"{mod}:{name}" for mod, name in defs
              if name.rpartition(".")[2] not in used]
    assert unused == []
