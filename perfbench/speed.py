"""Host-speed calibration for timings taken on a shared machine.

On a shared host the speed of one thread changes with other tenants' load:
on the 2-vCPU host where this benchmark was defined, the same work took up
to 1.6x as long for tens of seconds at a time.  Runs of a few seconds each
land in one state or the other, so raw times of identical work spread by
up to 60% between runs.

The sampler times a fixed calibration loop from a SIGALRM handler every
INTERVAL_S while the workload runs.  The loop uses no meshcide code, so a
change to the library cannot move it.  Each call's latency is then scaled by
CALIBRATION_REF_S divided by the loop's time at that moment, and the time
the handler itself took inside the call is removed first.  A calibrated
time is thus the time the call would take when the loop takes
CALIBRATION_REF_S, about its time on that host when no other load slows
it.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.05
PROBES = 5
# Fastest time of calibration_loop() over 3000 runs on the host where the
# benchmark was defined (Intel Xeon, 2 vCPUs, Python 3.11).
CALIBRATION_REF_S = 0.000155


def _pairs(n: int):
    for i in range(n):
        yield i, i * 7 % 13


def calibration_loop() -> int:
    """Interpreter-bound work of the same kind as the library's: a
    generator, tuples, a dict, small sorts and list appends."""
    table: dict = {}
    out = []
    for i, j in _pairs(300):
        table[j] = table.get(j, 0) + i
        out.append(sorted((j, i, len(table))))
    return len(out)


def loop_time() -> float:
    """Fastest of PROBES runs of the calibration loop."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(PROBES):
        start = clock()
        calibration_loop()
        best = min(best, clock() - start)
    return best


class SpeedSampler:
    """Samples the calibration loop on a timer while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # handler entry times, increasing
        self.ends: list[float] = []
        self.loop_s: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.loop_s.append(loop_time())
        self.starts.append(entered)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self, start: float, end: float) -> float:
        """Calibrated duration of the interval [start, end]: minus the
        handler's own time inside it, scaled by the samples taken inside it,
        or by the nearest sample when the interval holds none."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        busy = sum(min(e, end) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        if hi > lo:
            loop = sum(self.loop_s[lo:hi]) / (hi - lo)
        elif self.starts:
            near = min(
                (i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                key=lambda i: abs(self.starts[i] - start),
            )
            loop = self.loop_s[near]
        else:
            loop = CALIBRATION_REF_S
        return (end - start - busy) * CALIBRATION_REF_S / loop
