"""One pass of one workload, in a fresh process; prints one JSON line.

    python3 benchmarks/one_pass.py --workload paper-120 --labelling 3 --variant 0 \
        --spawned-at <time.monotonic() of the parent just before spawning>

Times are taken from the parent's spawn time on the system-wide monotonic
clock, so ``wall_s`` and ``setup_s`` include interpreter start and imports.
``setup_s`` ends when every input group is built; ``wall_s`` ends when every
check has been compared with its expected value.  CPU time and peak RSS
cover this process and its reaped children (the worker pool).

An untraced pass samples the host's speed with ``speed.SpeedProbe`` from
before hgs is imported to the last check.  It reports ``raw`` times, with
the probes' own time taken out, and top-level ``setup_s``, ``wall_s`` and
``cpu_s`` scaled to the reference speed.  A traced pass runs no probe, so
that no probe time lands in a layer's self time; it reports raw times only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import bootstrap
import speed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--labelling", type=int, required=True)
    p.add_argument("--variant", type=int, default=0,
                   help="which of the labelling seed's relabellings to use")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", help="file for the traced pass's spans")
    args = p.parse_args(argv)

    probe = None if args.trace else speed.SpeedProbe()
    if probe:
        probe.start()  # before hgs is imported, so that imports are sampled too
    bootstrap.use_checkout_hgs()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    checker = workloads.Checker(
        on_check=(lambda name: setattr(tracer, "check", name)) if tracer else None)
    try:
        inputs = workloads.build_inputs(workload.specs, args.labelling, args.variant)
    except Exception as exc:  # reported like any check that raises
        inputs = None
        checker.fail("set-up: build the input groups", "built", exc)
    setup_end = time.monotonic()
    if inputs is not None:
        workload.checks(checker, inputs)
    checks_end = time.monotonic()
    if probe:
        probe.stop()

    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = args.spawned_at
    raw = {
        "setup_s": setup_end - start,
        "wall_s": checks_end - start,
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
    }
    result = {"raw": raw, "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024}
    if probe:
        raw["setup_s"] -= probe.probe_time(start, setup_end)[0]
        wall_probes, cpu_probes = probe.probe_time(start, checks_end)
        raw["wall_s"] -= wall_probes
        raw["cpu_s"] -= cpu_probes
        pass_factor = probe.factor(start, checks_end)
        result.update(
            setup_s=raw["setup_s"] * probe.factor(start, setup_end),
            wall_s=raw["wall_s"] * pass_factor,
            cpu_s=raw["cpu_s"] * pass_factor,
            speed={"probes": len(probe.samples), "factor": pass_factor})
    result["checks"] = [{"name": r.name, "expected": repr(r.expected),
                         "observed": repr(r.observed), "ok": r.ok, "error": r.error}
                        for r in checker.results]
    if tracer:
        tracer.enabled = False
        result["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.write_spans(bootstrap.ROOT / args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
