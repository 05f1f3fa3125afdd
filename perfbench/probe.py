"""Machine-speed probe: scales measured times to a reference speed.

On a shared host the speed of the same code drifts by a third or more,
from one second to the next: another tenant takes the sibling hyperthread,
or the package changes its clock.  That drift swamps the differences the
benchmark must resolve.  So the runner times a fixed integer kernel before
and after every job, and every PERIOD seconds during a job, from a timer
signal.  A job's time, less the time spent probing inside it, is
multiplied by REFERENCE_S / (mean probe time over the job).  The result
reads in seconds of a machine that runs the probe in REFERENCE_S.

The kernel is frozen benchmark code, so a change to cubepack moves the
scaled times exactly as it moves the raw ones.  Code of different kinds
gains differently from a fast phase, so no probe tracks every job exactly.
A plain integer loop tracked cubepack's jobs best among the kernels tried.
Garbage collection is paused while the kernel runs, and the fastest of
three runs is kept.  A collection set off by the workload's heap, or a
cold cache after a big job, is then not mistaken for a slow machine.
"""

from __future__ import annotations

import gc
import signal
import time

# Median probe time on the reference machine: 2 cores, Python 3.11.7.
REFERENCE_S = 0.0013
REPEATS = 3
PERIOD = 0.25  # seconds between probes inside a job


def _kernel(n: int = 15_000) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class SpeedProbe:
    """Probe samples in time order, and the wall time spent taking them.

    Used as a context manager, it also samples every PERIOD seconds from
    SIGALRM, so a long job is probed while it runs.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous_handler = None

    def sample(self) -> float:
        """Seconds of the fastest of REPEATS kernel runs, GC paused."""
        clock = time.perf_counter
        start = clock()
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                t0 = clock()
                _kernel()
                best = min(best, clock() - t0)
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.samples.append(best)
        self.spent += clock() - start
        return best

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def work_clock(self) -> float:
        """perf_counter less the time spent probing: a clock for timing jobs."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran between the two reads
                return now - spent

    def scale_since(self, first: int) -> float:
        """Factor from measured to reference seconds for the work done
        between sample `first` and the latest sample."""
        window = self.samples[first:]
        return REFERENCE_S * len(window) / sum(window)
