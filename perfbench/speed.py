"""Machine-speed sampling, so timings from a shared machine can be
reported at one reference speed.

On a shared 2-vCPU x86-64 cloud VM, other tenants slow the
same Python code by 1.0 to 2.0 times, in stretches of seconds to
minutes; medians over a 30 s run do not average that out, and two runs
of the same code differ by up to 50%.  `SpeedSampler` times a fixed
calibration loop from a SIGALRM handler every PERIOD seconds while a run
is measured.  A timing taken over [t0, t1] is then multiplied by
REFERENCE_S over the median calibration time within WINDOW of that
interval: it reads as the time the operation would take on a machine
that runs the loop in REFERENCE_S.  Each workload names the loop whose
slowdown tracks its own best.  The program under test never sees the
sampler.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Time of each calibration loop at the reference speed: about its median
# on a shared 2-vCPU x86-64 cloud VM with CPython 3.11.
REFERENCE_S = 3.0e-4
PERIOD = 0.05  # seconds between samples
WINDOW = 0.25  # samples this far outside an interval still count for it


def fill_dict() -> None:
    """Fill a dict keyed by 1500 small tuples.  Its slowdown on a busy
    machine tracks that of encoding, decoding and the determinant."""
    table = {}
    for i in range(1500):
        table[(i, i * 7 % 13, i & 3)] = i


def _descend(depth: int, mask: int) -> int:
    return mask if depth == 0 else _descend(depth - 1, mask | (1 << (depth * 7 % 61)))


def nested_calls() -> None:
    """Short recursions over bit masks, like the search's DFS.  Its
    slowdown tracks the survey's more closely than `fill_dict` does."""
    acc = 0
    for i in range(160):
        acc ^= _descend(8, i)


def calibrate(loop) -> float:
    """Seconds one run of `loop` takes, with the collector off so that
    the program's collections stay out of it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    loop()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Context manager that samples the calibration loop in the
    background of the main thread (SIGALRM, no thread or process)."""

    def __init__(self, loop):
        self.loop = loop
        self.times: list[float] = []
        self.seconds: list[float] = []

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.times.append(time.perf_counter())
        self.seconds.append(calibrate(self.loop))

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median calibration time sampled within
        WINDOW of [t0, t1], or at the nearest sample when none is."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        if lo < hi:
            return REFERENCE_S / statistics.median(self.seconds[lo:hi])
        if not self.times:
            raise RuntimeError("no speed sample was taken")
        mid = (t0 + t1) / 2
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: abs(self.times[i] - mid))
        return REFERENCE_S / self.seconds[near]

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * self.factor(t0, t1)
