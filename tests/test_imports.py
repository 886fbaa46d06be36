"""Every module-level import in the package is used by its module, and a
counting run does not pull in numpy.ma or multiprocessing and runs on one
OS thread."""

import ast
import os
import subprocess
import sys
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


NO_MASKED_ARRAYS = """
import os
import sys
from hgs import counting
from hgs.catalog import resolve_spec
S5 = resolve_spec("S5")
resolve_spec("PGL(2,9)")
assert counting.count_byott(S5, S5).value == 32
assert counting.count_byott(S5, S5, jobs=2).value == 32
assert counting.count_fpf_inner_holomorph(S5, resolve_spec("AxCp(A5,2)")).value == 20
assert counting.count_brute_force(resolve_spec("C4")).counts == \
    {"order4-type0": 1, "order4-type1": 1}
print("numpy.ma" in sys.modules)
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print("multiprocessing" in sys.modules)
if os.path.isdir("/proc/self/task"):
    print(len(os.listdir("/proc/self/task")))
"""


def _count_run(openblas_threads: str | None) -> list[str]:
    src = Path(hgs.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    run = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return run.stdout.split()


def test_counting_runs_do_not_import_numpy_ma():
    # NumPy's plain np.unique and np.intersect1d import numpy.ma on first
    # use (about 14 ms); groups.sorted_distinct and member masks replace them.
    # hgs makes no BLAS call, so importing it leaves OpenBLAS one thread and
    # the counting process runs on that one thread alone; a count given
    # jobs=2 still starts no worker process
    out = _count_run(None)
    assert out[:3] == ["False", "1", "False"]
    if os.path.isdir("/proc/self/task"):
        assert out[3:] == ["1"]


def test_a_callers_openblas_thread_count_is_kept():
    assert _count_run("3")[:2] == ["False", "3"]
