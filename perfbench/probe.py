"""A fixed kernel whose time tracks the speed of the CPU it runs on.

On a shared host a vCPU's speed can change by 1.5x from one second to the
next, each vCPU on its own, and CPU time follows wall time, so no clock
inside the process sees it. A fixed kernel timed throughout a run does:
dividing the run's times by the probe's mean time over the same interval,
and multiplying by PROBE_NOMINAL_S, gives times at a nominal host speed.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import threading
import time

import numpy as np

PROBE_INTERVAL_S = 0.025
# probe_kernel's time at the nominal host speed; it fixes the unit of the
# corrected times (about its fast-state time on a 2-vCPU x86-64 VM with
# Python 3.11 and numpy 2.4).
PROBE_NOMINAL_S = 200e-6
_MATRIX = np.arange(36, dtype=np.int64).reshape(6, 6) % 3


def probe_kernel() -> int:
    """A fixed mix of interpreter work and small numpy calls, like fpmods' own."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    a = _MATRIX
    for _ in range(20):
        a = (a @ a + 1) % 3
    return s + int(a[0, 0])


def probe_mean_s(reps: int = 10) -> float:
    """Mean time of probe_kernel over `reps` runs, after one warm-up run."""
    probe_kernel()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        probe_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class HostProbe:
    """Times probe_kernel every PROBE_INTERVAL_S of wall time, from SIGALRM.

    Samples are skipped while other threads run, since the probe would then
    also wait for the interpreter lock.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        if threading.active_count() > 1:
            return
        t0 = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
