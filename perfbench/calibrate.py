"""Host-speed sampling for the end-to-end timings.

On a shared host the speed of a core drifts as other tenants load it: a
pure-Python loop alternates between a fast and a slow state many times a
second, and the share of slow time shifts over minutes by a third or more.
Every fitzkit timing moves with it. So while a measured operation runs, an
interval timer interrupts it every ``PERIOD_S`` and the signal handler times a
fixed micro reference loop. The samples fall in the same stretches of time as
the work, so their mean says how fast the host was while the work ran. Each
timing is then reported rescaled to a nominal host on which one micro
reference loop takes ``REFERENCE_S``:

    normalised seconds = own seconds * REFERENCE_S / mean micro reference time

where own seconds are the measured seconds minus the time spent in the
handler. The micro reference uses numpy and the standard library only, never
fitzkit, so a change to fitzkit moves the own seconds and not the reference.
Its mix follows the profile of the workloads: Python-level calls on tiny numpy
arrays, and pure Python on dicts, tuples and lists. (Small LAPACK solves,
sorts of mid-size arrays and distances over a 2601 x 2 array were tried too;
they track the workloads' slowdowns no better, or worse.) The mean, not
the median, of the samples is used, because the work averages over the fast
and slow states in the same proportion as the samples do.

Only the main thread runs Python signal handlers, between bytecodes. A long
call into C (a large sort, say) defers the next sample to its end, so the
samples lean slightly towards Python-level phases.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.01
# Mean time of one micro reference loop, taken in the signal handler, on a
# Haswell-class vCPU of a shared 2-core VM at moderate load. The constant only
# sets the scale: normalised seconds are close to wall seconds on that host.
REFERENCE_S = 0.0002

_RNG = np.random.default_rng(20120521)
_SMALL = [_RNG.standard_normal(2) for _ in range(12)]


def micro_reference() -> float:
    """A fixed small amount of work whose speed stands for the host's."""
    acc = 0.0
    for v in _SMALL:
        a = np.asarray(v, dtype=float)
        w = np.clip(a, 0.0, 1.0)
        acc += float(np.linalg.norm(a - w)) + float(np.dot(w, w))
        if np.all(np.isfinite(a)):
            acc += 1.0
    d: dict[int, float] = {}
    for i in range(150):
        d[i % 17] = d.get(i % 17, 0.0) + i * 0.5
    rows = [(i, i * 0.5, str(i)) for i in range(40)]
    rows.sort(key=lambda r: -r[1])
    return acc + d[3] + rows[0][1]


@dataclass
class Timed:
    """One measured stretch: wall seconds, and the handler samples inside it."""

    wall: float
    samples: list

    @property
    def own(self) -> float:
        """Seconds of the measured work itself, handler time taken out."""
        return self.wall - sum(self.samples)


class SpeedSampler:
    """Times the micro reference every ``PERIOD_S`` while ``measure`` is open."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        for _ in range(3):  # first calls pay for lazy initialisation in numpy
            micro_reference()

    def _tick(self, signum, frame):
        # With the collector paused, the loop's short-lived objects are freed
        # before it resumes, so sampling does not shift when the interrupted
        # work's garbage is collected (and so its peak memory).
        paused = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        micro_reference()
        self.samples.append(time.perf_counter() - t0)
        if paused:
            gc.enable()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def measure(self):
        """Yields a ``Timed`` that is filled in when the block ends."""
        first = len(self.samples)
        out = Timed(0.0, [])
        self.start()
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            out.wall = time.perf_counter() - t0
            self.stop()
            out.samples = self.samples[first:]


def normalised(own_seconds: float, samples) -> float:
    """Own seconds rescaled to the nominal host, given the micro reference
    samples taken while they ran. Without samples, the seconds as measured."""
    if not samples:
        return own_seconds
    return own_seconds * REFERENCE_S * len(samples) / sum(samples)
