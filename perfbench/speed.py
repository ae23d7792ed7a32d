"""Wall times rescaled to a fixed machine speed.

On a shared box the speed of the same pure-Python loop swings by up to 2x
within minutes, and magschro's run time swings with it.  While an
operation runs, a timer signal samples the machine's speed every
``INTERVAL_S`` by timing a fixed reference loop; the operation's wall time,
less the time spent in those samples, is then multiplied by
``REFERENCE_S`` over the mean time of the samples.  The result reads in
seconds at the speed at which the reference loop takes ``REFERENCE_S``
(about the median speed of the 2-vCPU box the bounds were set on).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.020  # nominal time of one reference loop
INTERVAL_S = 0.2


def reference_loop() -> float:
    """Time a fixed piece of interpreter work: integer arithmetic and dict stores."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        table[i & 1023] = acc
        acc += i * i % 7
    return perf_counter() - start


def rescaled(fn, *args, **kwargs):
    """Run ``fn``; returns ``(rescaled seconds, wall seconds, output)``.

    The wall seconds exclude the speed samples taken while ``fn`` ran.
    Must be called from the main thread, which owns the signal handler.
    """
    samples = [reference_loop()]
    during = []
    active = True

    def sample(signum, frame):
        if active:  # a signal handled after the end would fall outside ``elapsed``
            during.append(reference_loop())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        active = False
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    samples.extend(during)
    samples.append(reference_loop())
    wall = elapsed - sum(during)
    return wall * REFERENCE_S / statistics.mean(samples), wall, out
