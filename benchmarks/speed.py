"""Host-speed probe: a fixed pure-Python loop, timed every 50 ms of a pass.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of per cent, both within seconds and from one minute to the next: two
back-to-back ``paper-120`` passes on the same inputs took 3.6 s and 5.4 s.  Timed raw, a
run measures the host more than hgs.  So an untraced pass starts this probe
before it imports hgs.  Every ``PERIOD_S`` a ``SIGALRM`` handler times
``REF_ITERATIONS`` turns of a loop that calls no hgs code, on the same core
and in the same process as the work.

An interval's time is reported twice.  The raw time is the interval minus
the probes' own time.  The scaled time is the raw time times ``REF_S`` over
the mean probe rate in the interval:

    scaled = raw * REF_S * mean(1 / probe duration)

so it is the time the same work would take on a host where one probe takes
``REF_S``.  A change to hgs moves the raw time and leaves the probe alone,
so it moves the scaled time by the same share; a slow minute of the host
moves both and cancels out.  ``REF_S`` is about the median probe on the
2-core development VM, so scaled and raw times are close there.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REF_ITERATIONS = 20_000
REF_S = 0.002


def _reference_loop() -> int:
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times the reference loop every ``PERIOD_S`` while started."""

    def __init__(self):
        # (monotonic start, wall duration, CPU duration) of each probe
        self.samples: list[tuple[float, float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        start, cpu = time.monotonic(), time.process_time()
        _reference_loop()
        self.samples.append((start, time.monotonic() - start, time.process_time() - cpu))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _within(self, start: float, end: float) -> list[tuple[float, float, float]]:
        return [s for s in self.samples if start <= s[0] < end]

    def factor(self, start: float, end: float) -> float:
        """REF_S times the mean probe rate in [start, end); over all probes if none."""
        probes = self._within(start, end) or self.samples
        if not probes:
            raise RuntimeError("no speed probe ran during the pass")
        return REF_S * statistics.fmean(1 / wall for _, wall, _ in probes)

    def probe_time(self, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU time spent in probes that started in [start, end)."""
        probes = self._within(start, end)
        return sum(s[1] for s in probes), sum(s[2] for s in probes)
