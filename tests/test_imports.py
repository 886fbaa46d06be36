"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import hgs

SOURCES = sorted(p for p in Path(hgs.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    assert len(SOURCES) >= 10
    unused = {p.name: _unused_imports(ast.parse(p.read_text(encoding="utf-8")))
              for p in SOURCES}
    assert {k: v for k, v in unused.items() if v} == {}
