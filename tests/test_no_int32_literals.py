"""No 32-bit integer dtype literal in the package: element indices take
``groups.ELEMENT_DTYPE``, named once, and every other integer array is
64-bit, so the index width stays defined in one place."""

import ast
from pathlib import Path

import hgs

SOURCES = sorted(Path(hgs.__file__).parent.glob("*.py"))
INT32_NAMES = {"int32", "<i4", ">i4", "=i4", "i4"}


def _int32_literals(tree: ast.Module) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "int32":
            lines.append(node.lineno)  # np.int32, numpy.int32
        elif isinstance(node, ast.Constant) and node.value in INT32_NAMES:
            lines.append(node.lineno)  # dtype="int32" and its spellings
    return sorted(lines)


def test_no_int32_literals_in_package():
    assert len(SOURCES) >= 10
    found = [f"{p.name}:{line}"
             for p in SOURCES
             for line in _int32_literals(ast.parse(p.read_text(encoding="utf-8")))]
    assert found == []


def test_the_scan_sees_every_spelling():
    src = 'a = np.int32(1)\nb = x.astype("int32")\nc = numpy.int32\nd = "<i4"\ne = ">u4"\n'
    assert _int32_literals(ast.parse(src)) == [1, 2, 3, 4]
