"""Reference-speed clock.

The machine the benchmark runs on is shared: the same call, repeated in one
process, runs 30-40 % faster or slower from one stretch of seconds to the
next, and the typical speed of two runs a few minutes apart differs by as
much.  While a `Clock` is entered, a timer signal runs a short fixed
reference loop every ``interval`` seconds, in the middle of whatever the
library is doing, so the samples see the same slow and fast stretches as the
timed calls.  `now` leaves the time spent in the samples out and advances at
the reference's nominal speed: each stretch between two samples counts at
the rate the last ``window`` samples give, so a slow stretch is rescaled by
its own speed rather than by the run's typical speed.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Median time of `reference()` on the machine the README figures come from;
# it only fixes the scale, so that rescaled figures read close to seconds.
NOMINAL_S = 0.0029


def reference() -> float:
    """Run the reference loop once and return its wall time.  It does the
    kind of work the library does (rational arithmetic, tuple keys, dicts,
    frozensets, keyed sorts) and calls nothing outside the standard library."""
    start = perf_counter()
    acc = Fraction(0)
    counts = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        sorted(frozenset(range(i % 9)), key=lambda v: (0, v))
    return perf_counter() - start


class Clock:
    """Context manager that samples the reference speed on a timer signal."""

    def __init__(self, interval: float = 0.05, window: int = 5):
        self.interval = interval
        self.window = window
        self.samples = []
        # (wall clock at the end of the last sample, `now` at its start,
        # nominal seconds per wall second since), replaced as one value so
        # that the signal handler never leaves it half updated
        self._state = (perf_counter(), 0.0, 1.0)

    def now(self) -> float:
        """Seconds at the nominal reference speed, samples left out."""
        wall, virtual, rate = self._state
        return virtual + (perf_counter() - wall) * rate

    def _sample(self, signum, frame) -> None:
        virtual = self.now()
        self.samples.append(reference())
        rate = NOMINAL_S / statistics.median(self.samples[-self.window :])
        self._state = (perf_counter(), virtual, rate)

    def __enter__(self):
        self._sample(None, None)
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def scale(self) -> float:
        """Nominal seconds per wall second at the run's median speed."""
        return NOMINAL_S / statistics.median(self.samples)
