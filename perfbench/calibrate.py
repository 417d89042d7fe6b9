"""Host speed, sampled during every timed query.

On a shared host the same work can take 1.5x longer from one minute to
the next, and CPU time tracks wall time, so the slowdown is the CPU's
speed, not waiting.  A small fixed pure-Python kernel, shaped like the
package's inner loops (row operations over F_p on short lists), is timed
every ``PERIOD_S`` of wall time from a timer signal, and before and after
each query.  A query's time divided by the kernel's median slowdown over
the query is its time at the reference speed (the median ignores the rare
sample that the scheduler interrupted).  The kernel never calls the
package, so a slower package still reads slower.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median kernel time on the reference host (2-vCPU Intel Xeon, Python 3.11),
# in seconds.  Only ratios to it matter; it fixes the scale of reported times.
KERNEL_REF_S = 0.0001
PERIOD_S = 0.01


def _kernel() -> int:
    p = 101
    rows = [[(i * 7 + j * 13) % p for j in range(16)] for i in range(8)]
    for c in range(4):
        pivot = rows[c]
        for i in range(8):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], pivot)]
    return rows[-1][-1]


def kernel_seconds() -> float:
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


class Sampler:
    """Times the kernel every PERIOD_S of wall time while entered.

    ``samples`` holds every kernel time.  The handler runs inside whatever
    Python code is executing, so its own time is part of that code's time:
    callers subtract the samples that fell inside a timed span.
    """

    def __init__(self):
        self.samples: list = []

    def _tick(self, _signum, _frame):
        self.samples.append(kernel_seconds())

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe(self, count: int = 5) -> None:
        """Time the kernel now, between queries."""
        for _ in range(count):
            self.samples.append(kernel_seconds())


def slowdown(samples: list) -> float:
    """How much slower than the reference host the CPU ran over the samples."""
    return statistics.median(samples) / KERNEL_REF_S
