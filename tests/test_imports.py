"""Every module-level import in the package is used by its module, the row
key format stays inside groups.py, a counting run does not pull in
numpy.ma or multiprocessing and runs on one OS thread, neither does
``hgs info``, and ``import hgs`` leaves the suites, the report renderer,
the command line and the process pool unimported."""

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


def test_only_groups_names_the_row_key_format():
    # other modules find rows through groups.RowIndex and recognise the rows
    # a closure meets through groups.RowSet, never by keys of their own
    package = Path(hgs.__file__).parent
    naming = [p.name for p in sorted(package.glob("*.py"))
              if p.name != "groups.py" and "_row_keys" in p.read_text(encoding="utf-8")]
    assert naming == []


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


def _fresh_run(code: str, openblas_threads: str | None = None) -> str:
    """The stdout of ``code`` run by a fresh interpreter on this checkout;
    OPENBLAS_NUM_THREADS is set to ``openblas_threads``, or unset."""
    src = Path(hgs.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return run.stdout


def _count_run(openblas_threads: str | None) -> list[str]:
    return _fresh_run(NO_MASKED_ARRAYS, openblas_threads).split()


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


INFO_RUN = """
import sys
from hgs.cli import main
assert main(["info", "-G", "S5"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_info_does_not_import_numpy_ma():
    # its element-order census is taken with np.bincount; a plain
    # np.unique there would import numpy.ma
    out = _fresh_run(INFO_RUN).splitlines()
    assert out[0] == "spec: S5"
    assert out[-1] == "False"


IMPORT_ONLY = """
import sys
import hgs
print(*(m for m in ("hgs.verify", "hgs.report", "hgs.cli", "hgs.parallel")
        if m in sys.modules))
"""


def test_import_hgs_loads_the_engine_alone():
    # the suites, the report renderer, the command line and the unused
    # process pool are imported from their own modules, so ``import hgs``
    # (every benchmark pass, every count) does not compile or run them
    assert _fresh_run(IMPORT_ONLY).split() == []
