"""Tests of the benchmark itself:  python3 -m pytest benchmarks/test_bench.py -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import bootstrap

bootstrap.use_checkout_hgs()

from hgs import are_isomorphic, resolve_spec  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relabel import labelling, relabel  # noqa: E402

COUNTS = [name for name, unit, _ in tracing.LAYER_METRICS if unit == "count"]
# counts that do not depend on how the elements are numbered
LABELLING_INVARIANT = ["morphisms.aut_elements", "morphisms.homs_emitted",
                       "holomorph.pairs_found", "counting.oracle_subgroups"]


def one_pass(workload: str, labelling: int, trace: bool, variant: int = 0) -> dict:
    cmd = [sys.executable, str(run.HERE / "one_pass.py"), "--workload", workload,
           "--labelling", str(labelling), "--variant", str(variant),
           "--trace", str(int(trace)),
           "--spawned-at", repr(time.monotonic())]
    out = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def observed(result: dict) -> list[tuple[str, str, bool]]:
    return [(c["name"], c["observed"], c["ok"]) for c in result["checks"]]


@pytest.mark.parametrize("label", ["C4", "S3", "D4", "Q8", "C2xC2xC2", "S5", "AxCp(A5,2)"])
def test_relabelled_group_is_isomorphic_to_its_catalog_source(label):
    G = resolve_spec(label)
    H = relabel(G, 7, label)
    sigma = labelling(G.order, 7, label)
    assert sigma[0] == 0 and not np.array_equal(sigma, np.arange(G.order))
    assert np.array_equal(H.mul[np.ix_(sigma, sigma)], sigma[G.mul])
    assert H.gens == [int(sigma[g]) for g in G.gens]
    assert are_isomorphic(H, G) is not None


def test_seed_zero_keeps_the_catalog_labelling():
    G = resolve_spec("S5")
    H = relabel(G, 0, "S5", variant=3)
    assert np.array_equal(H.mul, G.mul) and H.gens == G.gens
    assert np.array_equal(H.perm_rep.images, G.perm_rep.images)


def test_each_variant_of_a_seed_is_its_own_repeatable_labelling():
    first, second = labelling(120, 5, "S5", 0), labelling(120, 5, "S5", 1)
    assert not np.array_equal(first, second)
    assert np.array_equal(second, labelling(120, 5, "S5", 1))


def test_scaled_time_is_raw_time_at_the_reference_speed():
    probe = speed.SpeedProbe()
    # probes at half the reference speed, then one at the reference speed
    probe.samples = [(0.0, 2 * speed.REF_S, 0.003), (1.0, 2 * speed.REF_S, 0.004),
                     (5.0, speed.REF_S, 0.002)]
    assert probe.factor(0.0, 2.0) == pytest.approx(0.5)
    assert probe.factor(0.0, 6.0) == pytest.approx((0.5 + 0.5 + 1) / 3)
    assert probe.factor(2.0, 3.0) == probe.factor(0.0, 6.0)  # no probe: all of them
    assert probe.probe_time(0.0, 2.0) == pytest.approx((4 * speed.REF_S, 0.007))


def test_the_probe_samples_while_python_runs_and_stops_when_told():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        end = time.monotonic() + 8 * speed.PERIOD_S
        while time.monotonic() < end:
            sum(range(1000))
    finally:
        probe.stop()
    taken = len(probe.samples)
    assert taken >= 4 and all(wall > 0 for _, wall, _ in probe.samples)
    time.sleep(3 * speed.PERIOD_S)
    assert len(probe.samples) == taken


def test_a_wrong_expectation_or_a_raise_is_a_failed_check():
    c = workloads.Checker()
    c.check("right", 32, lambda: 32)
    c.check("wrong expectation", 31, lambda: 32)
    c.check("raises", 20, lambda: 1 // 0)
    assert [r.ok for r in c.results] == [True, False, False]
    assert "ZeroDivisionError" in c.results[2].observed and c.results[2].error


def test_a_failed_check_fails_the_run_without_metrics(monkeypatch, capsys):
    def fake_pass(workload, labelling, variant, deadline, **kwargs):
        return {"setup_s": 0.5, "wall_s": 1.5, "cpu_s": 1.4, "peak_rss_mb": 40.0,
                "checks": [{"name": "e(S5,S5)", "expected": "32", "observed": "31",
                            "ok": False, "error": None}]}

    monkeypatch.setattr(run, "spawn_pass", fake_pass)
    assert run.main(["--workload", "paper-120", "--seed", "1", "--seconds", "0.01",
                     "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_without_the_source_tree_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "paper-120",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tracing_keeps_values_and_counts_repeat_exactly():
    untraced = one_pass("paper-120", 3, trace=False)
    traced = one_pass("paper-120", 3, trace=True)
    again = one_pass("paper-120", 3, trace=True)
    catalog = one_pass("paper-120", 0, trace=True)
    other = one_pass("paper-120", 3, trace=True, variant=1)
    assert all(ok for _, _, ok in observed(untraced))
    assert untraced["speed"]["probes"] > 0 and "speed" not in traced
    assert observed(traced) == observed(untraced) == observed(again)
    assert observed(catalog) == observed(untraced) == observed(other)
    assert {k: traced["layers"][k] for k in COUNTS} == {k: again["layers"][k] for k in COUNTS}
    for relabelled in (catalog, other):
        assert {k: traced["layers"][k] for k in LABELLING_INVARIANT} \
            == {k: relabelled["layers"][k] for k in LABELLING_INVARIANT}
    assert traced["layers"]["holomorph.pairs_found"] == 3840 + 2400
    assert traced["layers"]["holomorph.f_searched"] == 2 * 146
