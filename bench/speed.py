"""CPU-speed probe, so that timings can be scaled to one reference speed.

On a shared host the same single-threaded call can run at two speeds about
1.75x apart, switching every few seconds, and a slow spell can last minutes.
Raw wall times of one workload then spread by 25% or more from run to run.
The probe times a fixed piece of pure-Python work every PERIOD_S seconds
from a SIGALRM handler in the measured process (no thread), so every
interval of a run has a nearby speed sample.  The work looks like grl's hot
loops: a function call, a table lookup and a set test per step, then a
frozenset, so that it slows down under contention by about the same factor
as grl does (a bare integer loop slows less and left twice the spread).
``ref_seconds`` integrates an interval's work time, probes excluded, at
speed REF_PROBE_S / (probe duration): the seconds the work would take on the
reference CPU, on which the probe takes REF_PROBE_S.  That is an uncontended
x86-64 core running CPython 3.11.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_STEPS = 1500
PERIOD_S = 0.02
REF_PROBE_S = 135e-6

_TABLE = tuple(tuple((a * b + a + 1) % 61 for b in range(61)) for a in range(61))


def _lookup(table, a: int, b: int) -> int:
    return table[a][b]


def _probe() -> float:
    start = time.perf_counter()
    table, x, seen = _TABLE, 1, set()
    for i in range(PROBE_STEPS):
        x = _lookup(table, x, i % 61)
        if x not in seen:
            seen.add(x)
    frozenset(seen)
    return time.perf_counter() - start


class SpeedProbe:
    """Speed samples of the running process: probe end times and durations."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_) -> None:
        duration = _probe()
        self.ends.append(time.perf_counter())
        self.durations.append(duration)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _typical(self, i: int) -> float:
        """Median duration of the three probes centred on probe i (shifted
        inward at the ends), so that one probe hit by an interrupt does not
        rescale the work around it."""
        lo = max(0, min(i - 1, len(self.durations) - 3))
        return statistics.median(self.durations[lo:lo + 3])

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Work time in [t0, t1] at reference speed.  Each stretch of work is
        scaled by the probes around its end; the probes' own time is left
        out.  Needs a sample ending after t1, which ``stop`` guarantees."""
        total = 0.0
        prev = t0
        i = bisect.bisect_right(self.ends, t0)
        while i < len(self.ends):
            end, duration = self.ends[i], self.durations[i]
            work_end = min(end - duration, t1)
            total += max(0.0, work_end - prev) * REF_PROBE_S / self._typical(i)
            if end >= t1:
                break
            prev = end
            i += 1
        return total

    def speed(self) -> float:
        """Median speed over the samples, as a share of the reference."""
        return REF_PROBE_S / statistics.median(self.durations)
