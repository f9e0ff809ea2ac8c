"""The machine's speed while a run measures, and timings scaled to one speed.

The benchmark runs on a virtual machine shared with other tenants, where the
same code runs up to 60 % slower or faster from one second to the next: the
host's load, not the program, sets most of the spread between runs. So the
untraced child samples the machine's speed while it runs: a wall-clock
interval timer interrupts it every ``INTERVAL_S`` and times one call of
``reference_work``, a fixed piece of arithmetic that shares no code with
fockmix. The time spent in these samples is taken out of the operation they
interrupted. Each operation's time is then scaled by ``REFERENCE_S`` over the
mean time of the samples taken while it ran (``scaled_seconds``), which
gives the time it would have taken on the machine running at the speed at
which the reference work takes ``REFERENCE_S``.

A change to fockmix cannot speed up or slow down the reference work: it
imports nothing from fockmix and runs with the cyclic garbage collector off,
so the library's live objects are not traversed by it.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Time of one reference_work call at the nominal speed: about its median on
# a 2-vCPU x86_64 Xeon VM with Python 3.11. Scaled timings are in seconds
# at that speed.
REFERENCE_S = 0.004


def reference_work() -> None:
    """A fixed piece of work that shares no code with fockmix: the same kinds
    of arithmetic the library does (exact fractions, log-gamma sums, 40-digit
    mpmath, small numpy convolutions)."""
    import mpmath
    import numpy as np

    acc = Fraction(0)
    for j in range(1, 120):
        acc += Fraction(j, j * j + 1)
    s = 0.0
    for j in range(1, 5000):
        s += math.lgamma(j) - math.log(j)
    with mpmath.workdps(40):
        x = mpmath.mpf(1)
        for j in range(1, 200):
            x = x * mpmath.mpf(j) / (j + 1) + mpmath.sqrt(j)
    a, kernel = np.linspace(1.0, 2.0, 400), np.linspace(1.0, 2.0, 30)
    for _ in range(12):
        a = np.convolve(a, kernel)[:400]
        a /= a.sum()


def time_reference() -> float:
    """Wall seconds of one reference_work call, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times reference_work every INTERVAL_S of wall time from a SIGALRM
    handler in the main thread, and keeps the total time spent doing so."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late alarm that arrived while sampling
            return
        self._busy = True
        enter = time.perf_counter()
        self.took.append(time_reference())
        self.at.append(enter)
        self.spent += time.perf_counter() - enter
        self._busy = False

    def start(self) -> None:
        time_reference()  # warm-up, not recorded
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled_seconds(res: dict) -> list[float]:
    """Each operation's seconds scaled to the nominal speed.

    An operation's factor is REFERENCE_S over the mean of the samples taken
    from one interval before its start to one interval after its end, so a
    short operation takes the samples on either side of it and a long one
    every sample taken while it ran.
    """
    at, took = res["sample_at"], res["sample_s"]
    if not at:
        raise ValueError("the run took no speed samples")
    prefix = [0.0]
    for t in took:
        prefix.append(prefix[-1] + t)
    out = []
    for start, end, seconds in zip(res["starts"], res["ends"], res["seconds"]):
        lo = bisect.bisect_left(at, start - INTERVAL_S)
        hi = bisect.bisect_right(at, end + INTERVAL_S)
        if hi == lo:  # no sample that close: take the nearest on either side
            lo, hi = max(0, lo - 1), min(len(at), hi + 1)
        out.append(seconds * REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out
