"""Machine-speed calibration: fixed bursts of work that share no code with
the library, timed between the benchmark's own timings.

A shared virtual machine can change speed by half or more, from one
second to the next and for minutes at a time (a busy neighbour on the same
core, a clock change), and every timing moves with it.  So a pass runs a
short burst of fixed work every ``EVERY_S`` seconds, also in the middle of
an item, and scales each timing by ``REFERENCE_S`` over the mean of the
bursts around and within it.  The scaled times read as seconds on a machine
where one burst takes ``REFERENCE_S``; the unscaled ones are reported next
to them.

There are two kinds of burst, each imitating a workload's kind of work:
``python`` (``Fraction`` arithmetic, tuples and dicts, like the root-system
code) and ``numpy`` (quaternion arithmetic on small arrays, like the SU(2)
loop code).  A change to the library cannot move a burst.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Seconds between two bursts.
EVERY_S = 0.1
# Timed repetitions per burst; the burst time is their median.
REPEATS = 3
# Burst times, in seconds, of the reference machine: a 2-core Intel Xeon
# VM at 2.0 GHz with Python 3.11 and numpy 2.4, about its median speed.
REFERENCE_S = {"python": 1.4e-3, "numpy": 1.4e-3}


def _python_work():
    total, seen = Fraction(0), {}
    for i in range(1, 160):
        total += Fraction(i, i + 3) * Fraction(7, 11) - Fraction(1, i)
        key = (i % 7, i % 5, -i % 3)
        seen[key] = seen.get(key, 0) + i
    return total, len(seen)


_ANGLES = np.linspace(0.0, 3.0, 3 * 127).reshape(127, 3)


def _numpy_work():
    q = np.tile([1.0, 0.0, 0.0, 0.0], (127, 1))
    total = 0.0
    for k in range(20):
        w = _ANGLES * (1 + k * 1e-3)
        theta = np.sqrt(np.sum(w * w, axis=-1, keepdims=True))
        e = np.concatenate([np.cos(theta), w * (np.sin(theta) / theta)], axis=-1)
        a, b = q.T, e.T
        q = np.stack([
            a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
            a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
            a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
            a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
        ], axis=-1)
        dots = np.clip(np.sum(q[:-1] * q[1:], axis=1), -1.0, 1.0)
        total += float(np.sum(np.arccos(dots) ** 2))
    return total


WORK = {"python": _python_work, "numpy": _numpy_work}


def burst(kind):
    """Seconds one burst of the given kind takes now: the median of
    ``REPEATS`` timed runs after an untimed one."""
    work = WORK[kind]
    work()
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(seconds, before, after, kind):
    """``seconds`` measured between bursts ``before`` and ``after``, scaled
    to the reference machine."""
    return seconds * REFERENCE_S[kind] * 2 / (before + after)


_paused = 0.0  # seconds spent in bursts that a Clock's timer fired


def now():
    """``perf_counter()`` less the time spent in timer-fired bursts."""
    return perf_counter() - _paused


class Clock:
    """Scales timings taken with ``start`` and ``stop`` to the reference
    machine.

    An interval timer (``SIGALRM``) fires a burst every ``EVERY_S``
    seconds, between timings and within them, so a long item is sampled
    while it runs.  Each timing is scaled by the mean of the bursts from
    the last one before it to the first one after it.  Bursts are left
    out of every time read with ``now``.
    """

    def __init__(self, kind):
        self.kind = kind
        self.bursts = [burst(kind)]
        self.raw = []
        self.around = []  # per timing: (last burst before, first burst after)
        self.busy = False
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def _fire(self, signum, frame):
        global _paused
        if self.busy:
            return
        self.busy = True
        t0 = perf_counter()
        self.bursts.append(burst(self.kind))
        _paused += perf_counter() - t0
        self.busy = False

    def start(self):
        return len(self.bursts) - 1, now()

    def stop(self, started):
        first, t0 = started
        self.raw.append(now() - t0)
        self.around.append((first, len(self.bursts)))

    def scaled(self):
        """Stops the timer, runs a last burst; returns the scaled timings."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.bursts.append(burst(self.kind))
        ref = REFERENCE_S[self.kind]
        out = []
        for t, (first, last) in zip(self.raw, self.around):
            b = self.bursts[first:last + 1]
            out.append(t * ref * len(b) / sum(b))
        return out
