"""The machine's current speed, from a fixed pure-Python reference load.

On the shared 2-core VM this benchmark was written on, the speed of one
process changed by up to a factor of two within a second and stayed
changed for seconds to minutes, with no steal time and its CPU time
tracking its wall time: the core itself got slower.  Every call slowed
together, so a run's times moved with the machine rather than with the
program.  The benchmark therefore samples this reference load while it
measures and reports each time scaled to the reference's nominal speed,
``seconds * REFERENCE_S / sample``.  In four processes under varying load,
raw call times spread by 30-40 % and scaled ones by 2-6 %.

The load is the benchmark's own code, so no change to the package can make
it faster or slower.  It imitates the package's work, both the short
words of most layers and the long tuples of ``canonical_form`` on long
words, and runs with the cyclic garbage collector off, so that the size of
the package's heap does not reach into it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# Seconds one reference load took on the VM above at its fast speed (2
# cores, Xeon, Python 3.11).  Scaled times are "seconds at this speed".
REFERENCE_S = 0.0025
# Wall seconds between two samples.  A sample costs 2.5-5 ms.  At 0.2 s the
# scaled times of 0.1-second calls spread as much as the raw ones; at 0.05 s
# they spread a third as much, because the speed also changes within 0.2 s.
PERIOD_S = 0.05


def _drop(w: tuple, k: int) -> tuple:
    return w[:k] + w[k + 1:] if w[k] == w[k - 1] else w


def reference_load(words: int = 100, rotations: int = 40) -> int:
    """A fixed amount of work of the two kinds the package does.

    Rewrite pseudo-random words of 24 letters (short tuples, hashing, many
    short calls), then rotate a 2,000-letter word (copying long tuples, as
    ``canonical_form`` does on long words).
    """
    state, found = 12345, 0
    for _ in range(words):
        letters = []
        for _ in range(24):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            letters.append(state % 5)
        w, seen = tuple(letters), set()
        for k in range(1, len(w)):
            shorter = _drop(w, min(k, len(w) - 1))
            seen.add(shorter)
            if len(shorter) > 12:
                w = shorter
        found += len(seen)
    w = tuple(i * 7 % 6 for i in range(2000))
    for _ in range(rotations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        k = state % 1999 + 1
        w = w[k:] + w[:k]
        found += w.count(3)
    return found


def sample() -> float:
    """Seconds one reference load takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_load()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Speed samples every ``PERIOD_S`` wall seconds while it is entered.

    A SIGALRM handler takes the samples, so they also fall inside long
    calls (K_6 takes seconds, and the speed can change within one).  It
    runs between two bytecodes of whatever is running; ``paused`` adds up
    the seconds it took, for the caller to subtract from its own clocks.
    Main thread only.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.paused = 0.0

    def take(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.took.append(sample())
        self.at.append(t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds spent between two ``perf_counter`` readings
        to seconds at the reference speed: ``REFERENCE_S`` over the mean of
        the samples from the last one before ``start`` to the first one
        after ``end``."""
        lo = max(bisect.bisect_right(self.at, start) - 1, 0)
        hi = bisect.bisect_left(self.at, end) + 1
        window = self.took[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
