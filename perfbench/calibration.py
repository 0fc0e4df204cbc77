"""A fixed reference kernel, timed while each set-up and benchmark operation runs.

The host the benchmark was built on is a share of a busy machine.  Its speed
switched between levels up to 1.8x apart, several times a second, and
process CPU time moved with wall time.  A raw wall time therefore says as
much about the neighbours as about galconf.  So while a set-up or a timed
operation runs, a ``SIGALRM`` handler takes a sample every ``PERIOD_S``: it runs the
kernel once to bring its code and data back into cache, then runs it again
and times that second call.  A sample is also taken just before and just
after the operation.  The operation's own time is its wall time minus the
handler's.  Its cost is that time divided by the harmonic mean of the timed
kernel calls, that is, the time multiplied by the host's mean speed over the
operation in kernel calls per second.  The unit of cost is the ``cal``: one
kernel call on the same host at the same moment.  The kernel runs with the
garbage collector off, so the operation's garbage is never collected inside
a sample.

The kernel does the three kinds of work galconf does, in the same
interpreter: exact ``Fraction`` arithmetic (the structure tables and the
Jacobi check), small numpy array operations (the dynamics), and updates of a
dict keyed by tuples (the sparse polynomials of the Poisson layer).  It
never touches galconf, so a change to galconf moves the operation's time and
not the kernel's.  One call took 0.12-0.2 ms on that host.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

PERIOD_S = 0.005
# Seconds per cal, to state a cost in seconds at a fixed host speed: within
# the 0.12-0.2 ms one kernel call took on the host the benchmark was built on.
NOMINAL_S = 1.5e-4


def kernel():
    acc = Fraction(0)
    for i in range(1, 9):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, i)
    a = np.linspace(0.0, 1.0, 9)
    for _ in range(12):
        a = a * 0.999 + np.sin(a) * 1e-3
    d = {}
    for i in range(60):
        key = (i % 37, i % 11)
        d[key] = d.get(key, 0.0) + i * 0.5
    return acc, float(a.sum()), len(d)


class Sampler:
    """Samples the kernel around and during calls made through ``call``.

    ``samples`` keeps (start, end, timed seconds) of every sample.
    """

    def __init__(self):
        self.samples = []
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()  # untimed: brings the kernel's code and data back into cache
        warm = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append((start, end, end - warm))
        if collecting:
            gc.enable()
        self._busy = False

    def install(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def call(self, fn):
        """Run ``fn()``; returns (its result, its own seconds, its cost in cal)."""
        first = len(self.samples)
        self._sample()
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
        self._sample()
        taken = self.samples[first:]
        own = end - start - sum(e - t for t, e, _ in taken if start <= t < end)
        return result, own, own / statistics.harmonic_mean([s for _, _, s in taken])
