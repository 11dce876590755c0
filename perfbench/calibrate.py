"""Host-speed reference for the timed runs.

On a shared host the speed of identical work drifts, and flips between
levels up to about 1.7x apart for seconds to minutes at a time.  Run-to-run
spreads of raw times then measure the host, not the program.  So a timed
process runs a fixed reference workload (`reference_work`, part of the
benchmark, never of the program) every `INTERVAL_S` seconds, from a timer
signal, wherever the program is at the time, and every time is scaled to a
host that runs the reference in `NOMINAL_S`:

    normalised = raw * NOMINAL_S / (reference time around the raw time)

The raw time of a span excludes the probes taken inside it.  The reference
time around a span is the mean of the probes taken within WINDOW_S of it
(a single probe is short and noisy, the mean of several is not).  A change
to the program moves the raw times but not the probes, so it moves the
normalised times in full.  The raw times are kept in the run record next to
the normalised ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Reference time of one probe on the host the benchmark was written on
# (2-core Xeon VM, Python 3.11).  Any fixed value works: the parent and a
# change are compared under the same one.
NOMINAL_S = 0.0025
INTERVAL_S = 0.25
WINDOW_S = 0.6
PROBE_REPS = 3

_MASK = (1 << 4096) - 1


def reference_work() -> int:
    """Interpreter-bound and big-int-bound work in the mix hyperb runs:
    small-int bit tricks and dict stores, then 4 kbit shifts and masks."""
    acc = 0
    table = {}
    for i in range(6000):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x.bit_count() + (x >> 3)
        table[x & 1023] = acc
    b = _MASK // 7
    for _ in range(1000):
        b = ((b << 1) | (b >> 5)) & _MASK
        acc += (b & (b >> 7)).bit_count()
    return acc + len(table)


def probe() -> float:
    """Fastest of PROBE_REPS back-to-back reference runs: the speed of the
    host right now, without the odd interrupt."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Probes taken by a timer signal, and the scaling of raw times by them.

    Use as a context manager around the timed code; time spans with `now`,
    which leaves out the probes.
    """

    def __init__(self) -> None:
        reference_work()  # first call pays for cold caches
        self.at: list[float] = []
        self.probes: list[float] = []
        self.in_probes = 0.0  # seconds spent probing so far
        self._busy = False

    def take(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.probes.append(probe())
        t1 = time.perf_counter()
        self.at.append(t1)
        self.in_probes += t1 - t0
        self._busy = False

    def now(self) -> float:
        """Wall time less the time spent probing."""
        return time.perf_counter() - self.in_probes

    def __enter__(self) -> "HostClock":
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the reference time around the span [start, end]
        of wall time; call after leaving the context."""
        before = max(bisect.bisect_right(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        lo = min(before, bisect.bisect_left(self.at, start - WINDOW_S))
        hi = max(after, bisect.bisect_right(self.at, end + WINDOW_S) - 1)
        return NOMINAL_S / statistics.fmean(self.probes[lo:hi + 1])
