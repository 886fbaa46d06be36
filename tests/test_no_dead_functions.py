"""Every module-level function and class in the package, and every
non-dunder method of those classes, is used somewhere.

A module-level name counts as used when the package, the tests or the demos
mention it outside its own definition: as a name, an attribute, an imported
name or a string (``monkeypatch.setattr`` and ``getattr`` name functions by
string).  A method counts as used only when it is mentioned as an attribute
(``x.name``) or a string: a bare name does not count, since local variables
share method names (``pairs``, ``index``).  A method's own body does not
count either, since a cached method may name itself as its cache key.
Module-level functions registered by a decorator, such as catalog's
``@_atom`` specs, are reached through the registry and are exempt.
"""

import ast
from pathlib import Path

import hgs

PACKAGE = Path(hgs.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(PACKAGE.glob("*.py"))
USERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _mentions(node: ast.AST) -> tuple[set[str], set[str]]:
    """(every name mentioned, the names mentioned as attributes or strings)."""
    names, attributes = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Attribute):
            attributes.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            attributes.add(n.value)
    return names | attributes, attributes


def _mentions_outside_itself(stmt: ast.stmt) -> tuple[set[str], set[str]]:
    """What a statement mentions; a definition's own name does not count
    inside its own body, nor a method's inside the method's body."""
    if isinstance(stmt, ast.ClassDef):
        parts = [*map(_mentions_outside_itself, stmt.body),
                 *map(_mentions, stmt.bases + stmt.decorator_list)]
        found = (set().union(*(p[0] for p in parts)),
                 set().union(*(p[1] for p in parts)))
    else:
        found = _mentions(stmt)
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        for names in found:
            names.discard(stmt.name)
    return found


def _used_names() -> tuple[set[str], set[str]]:
    used, used_as_attribute = set(), set()
    for path in USERS:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names, attributes = _mentions_outside_itself(stmt)
            used |= names
            used_as_attribute |= attributes
    return used, used_as_attribute


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
    used, used_as_attribute = _used_names()
    unused = [f"{mod}:{name}" for mod, name in defs
              if name.rpartition(".")[2]
              not in (used_as_attribute if "." in name else used)]
    assert unused == []
