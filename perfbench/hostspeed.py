"""Host-speed sampling, to take the shared host's drift out of timings.

On a shared host the same op can take 1.4 s or 2.8 s depending on what the
neighbours do, in plateaus that last tens of seconds, and CPU time drifts
with wall time.  A timer interrupts the run every ``interval_s`` and, in the
main thread between bytecodes, times one fixed chunk of reference work that
is part of the benchmark, not of the program.  The reference time of an
interval is its wall time (sampler time taken out) scaled by the host's
speed during it relative to a fixed reference speed:

    ref_s = wall_s * mean(reference_s / chunk_s over the interval)

A uniform grid of samples weights each stretch of the interval by its
length, so this is the time the interval would take on a host that runs the
chunk in ``reference_s``.  A change to the program moves ``wall_s`` and not
the chunk, so it moves ``ref_s`` by the same share.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

# ops with fewer samples inside them use this many samples nearest to them
MIN_SAMPLES = 3


def python_chunk(n: int = 3000) -> float:
    """A pure-Python float loop; it needs no numpy, so it can run while the
    program is still being imported."""
    s = 0.0
    for k in range(1, n):
        s += math.sqrt(k) * 0.5 / (k + 1.0)
    return s


def op_chunk() -> float:
    """A few ms of work in the program's mix: a recurrence on numpy scalars,
    a pure-Python float loop and vectorised numpy on a 160 kB array."""
    # numpy is imported here, not at module level, so that set-up, which
    # runs first, still pays for the program's own import of it
    import numpy as np

    x = np.float64(0.37)
    prev, cur = np.ones_like(x), 1.5 - x
    for k in range(2, 300):
        prev, cur = cur, ((2 * k - 1.5 - x) * cur - (k - 0.5) * prev) / k
    s = python_chunk()
    v = np.linspace(0.0, 1.0, 20000)
    for _ in range(10):
        v = np.exp(-v) * 0.5 + np.sin(v) * 0.25
    return float(cur) + s + float(v[0])


def setup_chunk() -> float:
    return python_chunk(9000)


# (chunk, reference seconds, sampling interval in seconds).  The reference
# seconds are a fixed scale, about the chunk's time on an Intel Xeon vCPU of
# a shared 2-vCPU host; any constant would do, and it is never re-measured.
OPS = (op_chunk, 0.003, 0.1)
SETUP = (setup_chunk, 0.002, 0.05)


class HostSpeed:
    """Samples a chunk's time on a SIGALRM timer while it is entered."""

    def __init__(self, kind=OPS):
        self.chunk, self.reference_s, self.interval_s = kind
        self.starts: list[float] = []  # perf_counter around each sample
        self.ends: list[float] = []
        self.speeds: list[float] = []  # reference_s / chunk seconds
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.chunk()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.speeds.append(self.reference_s / (end - start))

    def __enter__(self):
        for _ in range(3):  # warm the chunk's code and arrays
            self.chunk()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.speeds:  # entered for less than one interval
            self._sample(None, None)
        return False

    def ref_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds without sampler time, reference seconds) of the
        interval [start, end] of perf_counter."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        wall = (end - start) - sum(self.ends[i] - self.starts[i]
                                   for i in range(lo, hi))
        if hi - lo >= MIN_SAMPLES:
            speeds = self.speeds[lo:hi]
        else:
            mid = 0.5 * (start + end)
            nearest = sorted(range(len(self.ends)),
                             key=lambda i: abs(self.ends[i] - mid))[:MIN_SAMPLES]
            speeds = [self.speeds[i] for i in nearest]
        return wall, wall * statistics.fmean(speeds)
