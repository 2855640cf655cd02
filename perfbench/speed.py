"""Timing that corrects for the machine's momentary speed.

On a shared virtual machine the speed one process gets changes by up to
1.6x within seconds, as other work shares its physical core, and
the process is charged CPU time for the slow periods too (process_time
tracks perf_counter to within 1 %). A run of tens of seconds cannot
average that out, so raw wall times of the same code move between sets
of runs by more than any useful bound.

SpeedClock therefore samples the machine while it times work. A timer
signal runs a fixed pure-Python reference pass every INTERVAL_S seconds;
its duration says how fast the machine is at that moment. The time of
the work, minus the time spent in reference passes, is scaled by
NOMINAL_PASS_S over the mean pass time seen during the work (and just
before and after it). The result is the time the work would have taken
with each reference pass lasting NOMINAL_PASS_S. Slow periods lengthen
this pass by about the same factor as the package's items, so most of
the slowdown cancels; perfbench/README.md gives how much is left.

Signal handlers run between bytecodes, so a long call into compiled code
(a dense eigensolve) delays the next sample until it returns.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
PASS_LOOPS = 8000
# A pass's duration when the machine runs at the speed taken as nominal:
# about the fastest passes on a 2-core Intel Xeon VM with numpy's
# bundled OpenBLAS, Python 3.11.
NOMINAL_PASS_S = 0.0005


def reference_pass() -> float:
    """Seconds taken by a fixed loop of Python integer arithmetic."""
    start = time.perf_counter()
    total = 0
    for i in range(PASS_LOOPS):
        total += i * i
    return time.perf_counter() - start


class SpeedClock:
    """Times calls in seconds at nominal machine speed; use as a context manager."""

    def __init__(self):
        self.passes: list[float] = []
        self.sampling_s = 0.0  # time spent in reference passes so far
        self.wall_s: list[float] = []  # raw wall time of each timed call, passes excluded
        self.slowdown: list[float] = []  # mean pass time over NOMINAL_PASS_S, per timed call

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.passes.append(reference_pass())
        self.sampling_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def call(self, fn, *args):
        """(fn(*args), seconds at nominal speed); exceptions propagate."""
        self._sample()
        first = len(self.passes) - 1
        sampling = self.sampling_s
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start - (self.sampling_s - sampling)
        self._sample()
        slowdown = statistics.fmean(self.passes[first:]) / NOMINAL_PASS_S
        self.wall_s.append(wall)
        self.slowdown.append(slowdown)
        return result, wall / slowdown
