"""A fixed reference kernel that tracks the speed of a shared machine.

The host that runs the benchmark is shared.  Other guests load its
caches, memory bus and the core's sibling thread, so the same call costs
up to twice the CPU time from one second to the next.  `sample()` times
a fixed piece of pure-Python work of the same kind as the program's
(integer division, continued fractions, continuants, dict and list
traffic, an integer Bareiss elimination).  `Probe` samples it every
EVERY_S seconds, inside calls as well as between them, and run.py scales
each call's CPU time by NOMINAL_S / (mean of the samples taken during
the call and the one on each side of it).  A time then reads as it would
on the machine where NOMINAL_S was taken.  The kernel never calls
twobridge, so a change to the program cannot move it.
"""

from __future__ import annotations

import contextlib
import signal
import time

# kernel() CPU time on a quiet 2-CPU x86_64 container, Python 3.11.7.
NOMINAL_S = 0.0029

EVERY_S = 0.1  # wall seconds between samples while a Probe is open


def kernel() -> int:
    total, seen = 0, {}
    for a in range(201, 3201, 2):
        b = (a * 61 // 97) | 1
        x, y, terms = a, b, []
        while y:
            q, r = divmod(x, y)
            terms.append(q)
            x, y = y, r
        p0, p1 = 1, terms[0]
        for t in terms[1:]:
            p0, p1 = p1, t * p1 + p0
        key = (len(terms), p1 % 1009)
        seen[key] = seen.get(key, 0) + 1
        total += p1
    n = 20
    m = [[(i * 7 + j * 13) % 11 - 5 + 20 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return total + len(seen) + m[-1][-1]


def sample() -> float:
    """CPU seconds of one kernel run on the calling thread."""
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class Probe:
    """Samples the kernel on entry, every EVERY_S seconds of wall time from
    a SIGALRM timer (so also in the middle of a call), and on exit.

    `samples` holds the samples' CPU seconds in order and `spent` their
    sum; a caller that reads its CPU clock inside `held()` before and
    after a call subtracts the change in `spent` to leave the call's own
    CPU time.  Python runs the handler on the main thread, which must be
    the thread that opens the probe.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum=None, _frame=None) -> None:
        took = sample()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Probe":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    @contextlib.contextmanager
    def held(self):
        """No sample starts while the caller reads its clocks."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
