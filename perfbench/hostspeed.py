"""The host's speed, sampled while the benchmark measures.

The benchmark runs on a few cores of a shared host whose speed moves by
a third or more over seconds to minutes, as its neighbours load it.
Medians over one run cannot remove a slow period that lasts the whole
run, so every time the benchmark reports is adjusted to a reference
host speed: a fixed pure-Python kernel (dict lookups keyed by tuples
and modular arithmetic, the kind of work idealbar does) is timed while
the measured code runs, and a measured time is scaled by how much slower
than REFERENCE_S the kernel ran meanwhile.  The kernel never touches
idealbar, so a change to the program moves the adjusted times as it
moves the raw ones, while a slow host moves neither.

A Sampler times the kernel every INTERVAL_S seconds of wall time from a
SIGALRM handler, which Python runs in the main thread between bytecodes;
the time the handler spends is taken out of the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.2
# the kernel's time on the host where the benchmark was defined (a
# 2-vCPU Linux VM, Python 3.11.7) when its neighbours were quiet
REFERENCE_S = 0.0016


def kernel(n: int = 4000) -> int:
    table = {}
    acc = 0
    for i in range(n):
        key = (i % 97, (i * 7) % 89)
        value = (table.get(key, 0) * 3 + i) % 65521
        table[key] = value
        acc ^= value
    return acc


class Sampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0   # wall time taken by sampling

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Samples once on entry, then every INTERVAL_S until exit."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        try:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def adjust(self, seconds: float) -> float:
        """seconds, measured while this sampler ran, at the reference
        speed.  Samples are evenly spaced in wall time, so the harmonic
        mean of their times weighs each interval by its length."""
        return seconds * REFERENCE_S / statistics.harmonic_mean(self.samples)


def timed(fn):
    """(result, wall seconds, adjusted seconds) of fn(), sampling while
    it runs; the wall time leaves out the sampling."""
    sampler = Sampler()
    with sampler.sampling():
        spent, t0 = sampler.spent, time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - (sampler.spent - spent)
    return result, wall, sampler.adjust(wall)
