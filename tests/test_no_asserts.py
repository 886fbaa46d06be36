"""No assert statement in the package: invariants raise, asserts vanish under -O."""

import ast
from pathlib import Path

import hgs

SOURCES = sorted(Path(hgs.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    assert len(SOURCES) >= 10
    found = [f"{p.name}:{node.lineno}"
             for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
