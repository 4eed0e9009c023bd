"""Host speed probe: rescales wall times to a nominal host speed.

On a shared 2-vCPU Intel Xeon VM the speed of any Python code changed by up
to 2x within seconds. While a `SpeedProbe` is active, a profiling-timer
signal interrupts the process every `INTERVAL_S` of CPU time and times
`probe_work()`, a fixed stdlib-only loop that never calls pcvne, so no
change to the program can move it.

`SpeedProbe.time` times a call and subtracts the probe time spent inside
it. `SpeedProbe.scale` gives the factor that converts a wall time measured
over an interval into seconds at the nominal speed, where `probe_work()`
takes `NOMINAL_S`: the mean relative speed (NOMINAL_S / sample time) of the
samples taken during and just around the interval. One process, one thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05      # probe period, in CPU seconds
NOMINAL_S = 1.5e-3     # probe_work() time at the nominal speed
MARGIN_S = 0.25        # samples this close to an interval count for it
MIN_SAMPLES = 5        # a short interval borrows its nearest samples up to this many


def probe_work():
    """About a millisecond of the operations the embedders spend their time
    on: dict updates keyed by tuples, a keyed sort, Fraction sums."""
    counts = {}
    for i in range(1500):
        k = (i % 37, i % 29)
        counts[k] = counts.get(k, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[0], sum(Fraction(i, 7) for i in range(60))


class SpeedProbe:
    """Context manager that samples the host speed while it is active."""

    def __init__(self):
        self.starts = []      # perf_counter() at the start of each sample
        self.durations = []   # wall seconds of each probe_work() sample
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def time(self, fn, *args):
        """Call fn(*args). Returns (result, start, end, busy), where busy is
        the wall time minus the probe samples taken during the call."""
        k = len(self.durations)
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        return result, t0, t1, t1 - t0 - sum(self.durations[k:])

    def scale(self, start, end):
        """Factor from wall seconds over [start, end] to nominal seconds."""
        n = len(self.starts)
        if n == 0:
            return 1.0
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_SAMPLES:
                hi += 1
        return statistics.fmean(NOMINAL_S / d for d in self.durations[lo:hi])
