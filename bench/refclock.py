"""Reference-normalised timing.

The host's speed drifts by tens of percent within minutes, and process CPU
time drifts with it, so raw durations are too noisy to compare commits. A
fixed reference kernel (small int64 mat-vec products mod 3, dict and tuple
work, and a sort: the kinds of work the checker does) is therefore timed around and
during every unit of work: once before and once after each unit, and, while a
unit runs, from a SIGALRM handler every INTERVAL_S seconds. The unit's time is
then reported as

    normalised = (wall - kernel time spent inside it) * NOMINAL_S / mean kernel time

where the mean covers the samples taken during the unit and the two that
bracket it (WINDOW_S only widens the interval enough to catch the bracketing
samples), so each unit is normalised by the speed the machine had while it
ran. On this kind of host the speed changes in phases of a second or so; a
wider window, or a kernel of only interpreter or only numpy work, tracked the
phases less well in scratch trials (coefficient of variation between 8-s
blocks of 1.3% on reports and 2.0% on sweeps with this kernel, against 13%
and 15% raw). NOMINAL_S is the
kernel's time on the reference machine, so normalised seconds read as seconds
on that machine.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.001    # nominal kernel time: normalised seconds are seconds on a host where it takes 1 ms
INTERVAL_S = 0.03
WINDOW_S = 0.01

_MAT = (np.arange(256, dtype=np.int64).reshape(16, 16) * 7 + 3) % 3
_VEC = np.arange(16, dtype=np.int64) % 3


def kernel() -> int:
    """The reference kernel: small int64 mat-vec products mod 3, dict work on
    tuple keys, and a sort of tuples; about 1 ms on the reference host."""
    v = _VEC
    for _ in range(120):
        v = (_MAT @ v) % 3
    table: dict = {}
    acc = 0
    for i in range(1200):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
        acc += len(key)
    rows = [((i * 7919) % 1000, i % 13, str(i % 29)) for i in range(600)]
    rows.sort()
    return acc + int(v[0]) + len(rows)


class RefClock:
    """Times units of work against the interleaved reference kernel."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._running = False
        self.on_sample = None  # called with each sample's duration (the tracer's hook)

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        if self.on_sample is not None:
            self.on_sample(t1 - t0)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "RefClock":
        for _ in range(20):
            kernel()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    def measure(self, fn, *args):
        """Run fn(*args) with the alarm sampling; return (result, unit) where
        unit = (start, end, raw seconds) and raw excludes the kernel samples
        taken inside it. Normalise units with ``normalise`` afterwards."""
        self.sample()
        first = len(self.durations)
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        inside = sum(d for s, d in zip(self.starts[first:], self.durations[first:])
                     if t0 <= s < t1)
        self.sample()
        return result, (t0, t1, (t1 - t0) - inside)

    def measure_quiet(self, fn, *args):
        """As measure, with the alarm off: for a unit that waits on a child
        process, where an in-process kernel would only compete with it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            self.sample()
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
            self.sample()
        finally:
            if self._running:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return result, (t0, t1, t1 - t0)

    def reference(self, t0: float, t1: float) -> float:
        """Mean kernel time over the samples from WINDOW_S before t0 to
        WINDOW_S after t1."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        return statistics.fmean(self.durations[lo:hi])

    def normalise(self, unit) -> float:
        t0, t1, raw = unit
        return raw * NOMINAL_S / self.reference(t0, t1)
