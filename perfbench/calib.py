"""Host-speed calibration for the timed runs (--trace 0).

On a shared host the same code runs 20-40% faster or slower from one
minute to the next, for two reasons that have nothing to do with the
program:

- the host takes the vCPU away for milliseconds at a time, which puts
  4-10 ms spikes on a 0.3 ms request;
- neighbours on the same physical core slow every instruction down, in
  phases that last tens of seconds to minutes.

So a timed run (1) times each request in CPU seconds of its own thread,
which leave out the time the vCPU was taken away, and (2) runs a fixed
reference kernel of about 8 ms after every INTERVAL CPU seconds, from a
profiling-timer signal, and divides every time by the host's slowness
around it: the median time of the bursts in and next to it, over the
kernel's NOMINAL time (for a span too short to have MIN_BURSTS of them,
the median of the whole run).  A request in a slow phase thus reports what it
would have taken at the nominal speed.  The kernel does
not touch smoothsum: a change to the program moves the calibrated figures
as much as the raw ones.  The CPU time of the bursts is subtracted from the
request or set-up they interrupted.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.2  # CPU seconds between reference bursts
# bursts on each side of a timed span that calibrate it, too: few, because
# the host flips between a fast and a slow state within seconds
AROUND = 2
# fewest bursts a median is taken over; a span with fewer in its window
# (one shorter than about INTERVAL) takes the median of the whole run
MIN_BURSTS = 5

_MODULUS = 7**1900  # about 5300 bits, the size of the n=24 Franklin coefficients
_BASE = 3**3300


def reference() -> int:
    """Half interpreted code (small-Fraction arithmetic, dict traffic),
    half modular squaring of 5300-bit integers.  Contention slows the
    first far more than the second, and smoothsum's workloads, even the
    requests of one workload, sit in between; either half alone tracked
    some workload two to three times worse than the two together."""
    total = 0
    table = {}
    for i in range(1, 600):
        q = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, 3)
        total += q.numerator
        table[i % 17] = table.get(i % 17, 0) + i * i
    x = _BASE
    for i in range(50):
        x = (x * x + i) % _MODULUS
    return total + len(table) + x % 1000


# CPU seconds of one reference() call at the nominal speed: about its
# median on a shared 2-vCPU Intel Xeon VM under Python 3.11.  A fixed
# constant; changing it rescales every calibrated time.
NOMINAL = 0.008


class Calibrator:
    """Context manager: while active, a SIGPROF every INTERVAL seconds of
    process CPU time runs one reference() burst and records its time."""

    def __init__(self):
        self.times = []  # CPU seconds of each burst, in order
        self.at = []  # clock() reading at the start of each burst
        self.spent = 0.0  # CPU seconds spent in bursts so far
        self._factors = {}

    def _burst(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection in a burst would scan the program's heap
        try:
            c0 = time.thread_time()
            reference()
            dt = time.thread_time() - c0
        finally:
            if collecting:
                gc.enable()
        self.at.append(c0 - self.spent)
        self.times.append(dt)
        self.spent += dt

    def __enter__(self) -> "Calibrator":
        signal.signal(signal.SIGPROF, self._burst)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def clock(self) -> float:
        """CPU seconds of this thread, less those spent in bursts."""
        while True:
            spent = self.spent
            now = time.thread_time()
            if self.spent == spent:  # no burst ran between the two reads
                return now - spent

    def seconds(self, start: float, end: float) -> float:
        """Calibrated seconds between two clock() readings.  Call it once
        the timer is stopped, so that every span has its bursts after it."""
        first = bisect.bisect_left(self.at, start)
        stop = bisect.bisect_right(self.at, end)
        return (end - start) * self.factor(first, stop)

    def factor(self, first: int = 0, stop: int = None) -> float:
        """One over the slowness of the host over bursts first..stop and
        AROUND more on each side, or over the whole run if those are fewer
        than MIN_BURSTS (and by default)."""
        stop = len(self.times) if stop is None else stop
        key = (max(0, first - AROUND), stop + AROUND)
        if key not in self._factors:
            times = self.times[key[0]:key[1]]
            if len(times) < MIN_BURSTS:
                times = self.times
            self._factors[key] = NOMINAL / statistics.median(times)
        return self._factors[key]

    def top_up(self) -> None:
        """After a run too short to have MIN_BURSTS bursts, run the missing
        ones (with the timer stopped)."""
        while len(self.times) < MIN_BURSTS:
            self._burst()
