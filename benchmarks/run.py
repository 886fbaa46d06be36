"""hgs benchmark: time to a verified e(G, N), traced per module from outside.

    python3 benchmarks/run.py --workload paper-120 --seed 3 --seconds 20 --trace 0

Each pass is a fresh Python process (``one_pass.py``) that builds the
workload's input groups from the catalog under a seeded relabelling, runs
every check against its expected value and reports its own timings.  Passes
repeat until ``--seconds`` have elapsed (at least two passes), and the
end-to-end metrics are medians over passes of each pass's times scaled to
the reference speed of ``speed.py``, which takes the host's drifting speed
out of them; the raw medians are printed beside them.  Pass i of a run relabels its
inputs with variant i of the seed, so a run samples as many labellings as
it makes passes, and the same seed always gives the same sequence of inputs;
seed 0 is the catalog labelling in every pass.  With ``--trace 1`` every
pass uses variant 0, and each untraced pass is followed by a pass with every
hgs module's entry points wrapped; the per-layer metrics are medians over
those traced passes, and their spans are written under ``.bench_out/``.

Lines before the last one name every check and every metric with its unit;
the last line is one JSON object with the keys correct, attempted, failed
and metrics.  Any failed check, or a pass that crashes or overruns, makes
the run exit 1 with ``correct: false`` and no metrics.  ``--workload all``
runs every workload in turn and prints every metric of each.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

bootstrap.use_checkout_hgs()

import speed  # noqa: E402
import tracing  # noqa: E402  (needs the checkout's hgs on the path)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
E2E_METRICS = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]
# every run, its traced passes included, ends inside this
RUN_LIMIT_S = 170.0
# a run makes at least this many passes, however long one pass takes
MIN_PASSES = 2


class PassFailed(Exception):
    """A pass crashed, printed no result or overran the run's time limit."""


def spawn_pass(workload: str, labelling: int, variant: int, deadline: float, *,
               trace: bool = False, spans_out: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--labelling", str(labelling), "--variant", str(variant),
           "--trace", str(int(trace))]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=bootstrap.ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} pass overran the {RUN_LIMIT_S:.0f} s run limit")
    finally:
        # the pass and any worker it left behind share one process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited {proc.returncode}:\n{err}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes of one run.

    Untraced runs time passes for ``seconds``, pass i on labelling variant
    i.  Traced runs alternate an untraced and a traced pass for ``seconds``,
    all on variant 0, so that their counts must repeat exactly.
    """
    timed: list[dict] = []
    traced: list[dict] = []

    def all_ok() -> bool:  # a failed check ends the run: it is never timed
        return all(c["ok"] for p in timed + traced for c in p["checks"])

    start = time.monotonic()
    while all_ok() and (len(timed) < MIN_PASSES or time.monotonic() - start < seconds):
        variant = 0 if trace else len(timed)
        timed.append(spawn_pass(workload, seed, variant, deadline))
        if trace and all_ok():
            traced.append(spawn_pass(
                workload, seed, 0, deadline, trace=True,
                spans_out=f".bench_out/spans-{workload}-seed{seed}-{len(traced)}.json"))
    return timed, traced


def layer_metrics(timed: list[dict], traced: list[dict]) -> dict:
    """Per-layer medians over the traced passes; counts must repeat exactly."""
    out = {}
    for name, unit, _ in tracing.LAYER_METRICS[:-1]:
        values = [p["layers"][name] for p in traced]
        if unit != "count":
            out[name] = statistics.median(values)
        elif len(set(values)) == 1:
            out[name] = values[0]
        else:
            raise PassFailed(f"count {name} differs between traced passes: {values}")
    # raw times: a traced pass runs no speed probe, so it has no scaled time
    out["trace_overhead_s"] = (statistics.median(p["raw"]["wall_s"] for p in traced)
                               - statistics.median(p["raw"]["wall_s"] for p in timed))
    return out


def summarize(workload: str, seed: int, seconds: float, trace: bool,
              deadline: float, prefix: str = "") -> tuple[int, int, dict | None]:
    """Run one workload, print its checks and metrics; (attempted, failed, metrics)."""
    try:
        timed, traced = measure(workload, seed, seconds, trace, deadline)
        layers = layer_metrics(timed, traced) if trace and traced else None
    except PassFailed as exc:
        print(f"{prefix}[FAIL] {exc}", file=sys.stderr)
        return 1, 1, None
    checks = [c for p in timed + traced for c in p["checks"]]
    failed = [c for c in checks if not c["ok"]]
    shown = {c["name"]: c for c in timed[0]["checks"]}
    shown.update({c["name"]: c for c in failed})
    for c in shown.values():
        mark = "PASS" if c["ok"] else "FAIL"
        print(f"{prefix}[{mark}] {c['name']}: expected {c['expected']}, "
              f"observed {c['observed']}")
        if c["error"]:
            print(c["error"], file=sys.stderr)
    if failed:
        return len(checks), len(failed), None

    e2e = {name: statistics.median(p[name] for p in timed) for name, _ in E2E_METRICS}
    labellings = 1 if trace or seed == 0 else len(timed)
    print(f"{prefix}samples: {len(timed)} untraced passes on {labellings} labelling(s), "
          f"{len(traced)} traced; medians; seed {seed}")
    factor = statistics.median(p["speed"]["factor"] for p in timed)
    print(f"{prefix}host speed: median scale factor {factor:.4g} "
          f"({speed.REF_S * 1000:g} ms reference probe / measured)")
    for name, unit in E2E_METRICS:
        raw = (f" (raw {statistics.median(p['raw'][name] for p in timed):.6g} {unit})"
               if name in timed[0]["raw"] else "")
        print(f"{prefix}{name} = {e2e[name]:.6g} {unit}{raw}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_METRICS}
    if trace:
        metrics = {}
        for name, unit, _ in tracing.LAYER_METRICS:
            print(f"{prefix}{name} = {layers[name]:.6g} {unit}")
            metrics[name] = {"value": layers[name], "unit": unit}
    return len(checks), 0, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    chosen = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for workload in chosen:
        deadline = time.monotonic() + RUN_LIMIT_S
        prefix = f"{workload}: " if len(chosen) > 1 else ""
        a, f, m = summarize(workload, args.seed, args.seconds, bool(args.trace),
                            deadline, prefix)
        attempted += a
        failed += f
        if m is not None:
            metrics.update({prefix.replace(": ", ".") + k: v for k, v in m.items()})
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics if ok else {}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
