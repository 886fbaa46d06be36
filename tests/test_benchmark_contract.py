"""The benchmark's use of hgs still runs: one traced pass of each workload.

``benchmarks/`` imports hgs modules by name, wraps their entry points and
passes them keywords (``parallel.parallel_crossed_counts``,
``count_byott(jobs=)``, ``FiniteGroup(perm_rep=, assume_associative=)``,
``counting.all_regular_subgroups_of_sym``).  A package edit that breaks one
of those makes a pass exit non-zero or fail a check; this runs one traced
pass of every workload that ``BENCHMARK.json`` names, as the benchmark
itself starts it, and writes no span file.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_the_benchmark_names_its_four_workloads():
    assert WORKLOADS == ["paper-120", "paper-720", "oracle-small", "byott-120-jobs2"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_traced_pass_runs_every_check_ok(workload):
    run = subprocess.run(
        [sys.executable, "benchmarks/one_pass.py", "--workload", workload,
         "--labelling", "1", "--spawned-at", repr(time.monotonic()), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["checks"]
    assert [c["name"] for c in result["checks"] if not c["ok"]] == []
