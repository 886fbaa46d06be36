"""No BLAS call in the package: ``import hgs`` sets OPENBLAS_NUM_THREADS=1
on the premise that hgs never multiplies matrices through numpy, so every
spelling that would reach BLAS is kept out of the source.

A name such as ``inner`` is also an hgs attribute (``AutomorphismGroup.inner``),
so a BLAS name counts where numpy's functions are reached: as an attribute of
``np``/``numpy``, as a called method (``a.dot(b)``), or imported from numpy.
``linalg`` and the ``@`` operator count everywhere."""

import ast
from pathlib import Path

import hgs

SOURCES = sorted(Path(hgs.__file__).parent.glob("*.py"))
BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "linalg"}
NUMPY_NAMES = {"np", "numpy"}


def _blas_calls(tree: ast.Module) -> list[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult):
            lines.add(node.lineno)  # a @ b, a @= b
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES and (
                node.attr == "linalg"
                or isinstance(node.value, ast.Name) and node.value.id in NUMPY_NAMES):
            lines.add(node.lineno)  # np.dot, numpy.einsum, x.linalg
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in BLAS_NAMES):
            lines.add(node.lineno)  # a.dot(b)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") and (
                "linalg" in node.module or any(a.name in BLAS_NAMES for a in node.names)):
            lines.add(node.lineno)  # from numpy import dot, from numpy.linalg import det
        elif isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names):
            lines.add(node.lineno)  # import numpy.linalg
    return sorted(lines)


def test_no_blas_calls_in_package():
    assert len(SOURCES) >= 10
    found = [f"{p.name}:{line}"
             for p in SOURCES
             for line in _blas_calls(ast.parse(p.read_text(encoding="utf-8")))]
    assert found == []


def test_the_scan_sees_every_spelling():
    src = ("a = x @ y\nb = np.dot(x, y)\nc = x.dot(y)\nd = np.matmul(x, y)\n"
           "e = numpy.einsum('ij,jk', x, y)\nf = np.inner\ng = np.vdot(x, y)\n"
           "h = np.tensordot(x, y)\ni = np.linalg.det(x)\nx @= y\n"
           "from numpy import inner\nfrom numpy.linalg import det\nimport numpy.linalg\n"
           "j = x * y\nk = aut.inner.members\nfrom numpy import take\n")
    assert _blas_calls(ast.parse(src)) == list(range(1, 14))
