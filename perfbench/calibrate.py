"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed swings by up to 1.7x over
minutes (other tenants contend for cores, caches and memory bandwidth),
far more than any regression bound could absorb.  While an operation
runs, an interval timer therefore interrupts it every ``INTERVAL_S`` to
time one chunk of a fixed pure-Python kernel -- pseudo-random reads and
writes over a 4 MB array, heap updates and dict lookups, like the
simulator's hot loop but sharing no code with it.  The handler touches
nothing the program owns and allocates nothing the garbage collector
tracks, so the simulation and its collections are unchanged.

:meth:`Calibrator.nominal` converts a span of host time into *nominal*
seconds: the chunks inside it are left out, and each stretch of program
time between two chunks is scaled by ``NOMINAL_CHUNK_S`` over the median
of the five chunks around it -- the seconds it would have taken on a host
that runs one chunk in ``NOMINAL_CHUNK_S``.  A change to the program
moves its timings but not the kernel's, so a speed-up shows in full while
the host's drift cancels.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time
from array import array
from typing import Any, List

#: Kernel steps per chunk, and the chunk time that defines the nominal
#: host (about what a quiet 2-vCPU x86-64 host running CPython 3.11
#: takes for a chunk interrupting a simulation).
CHUNK_STEPS = 3000
NOMINAL_CHUNK_S = 0.003
#: Host seconds between chunks while the timer runs.
INTERVAL_S = 0.05


class Calibrator:
    """Times chunks of the reference kernel on a timer while it runs."""

    def __init__(self, size: int = 1 << 19) -> None:
        rng = random.Random(7)
        self._mask = size - 1
        self._data = array("d", (rng.random() for _ in range(size)))
        self._heap = sorted(rng.random() for _ in range(2048))
        self._table = {i: rng.random() for i in range(1 << 14)}
        self._index = 1
        #: Start (``perf_counter``) and host seconds of every chunk.
        self.starts: List[float] = []
        self.samples: List[float] = []
        #: Total host seconds spent in chunks.
        self.paused_s = 0.0
        self._factors: List[float] = []

    def chunk(self) -> None:
        """Run and record one chunk of the kernel."""
        data, heap, table, mask = self._data, self._heap, self._table, self._mask
        index = self._index
        start = time.perf_counter()
        for _ in range(CHUNK_STEPS):
            index = (index * 1103515245 + 12345) & mask
            value = data[index] + table[index & 16383]
            data[index] = heapq.heappushpop(heap, value * 0.5)
        elapsed = time.perf_counter() - start
        self._index = index
        self.starts.append(start)
        self.samples.append(elapsed)
        self.paused_s += elapsed

    def clock(self) -> float:
        """``time.perf_counter()`` minus the seconds spent in chunks."""
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if paused == self.paused_s:  # no chunk ran in between
                return now - paused

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.chunk()

    def __enter__(self) -> "Calibrator":
        self.chunk()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.chunk()
        samples = self.samples
        # Stretch i of program time ends where chunk i starts; the last
        # one (after the final chunk) takes the final chunk's speed.
        self._factors = [
            NOMINAL_CHUNK_S / statistics.median(samples[max(0, i - 2):i + 3])
            for i in range(len(samples))
        ]
        self._factors.append(self._factors[-1])

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds of program time in ``[start, end]``
        (``perf_counter`` times inside the calibrated block)."""
        starts, samples, factors = self.starts, self.samples, self._factors
        total = 0.0
        i = bisect.bisect_right(starts, start)
        while True:
            lo = starts[i - 1] + samples[i - 1] if i > 0 else start
            hi = starts[i] if i < len(starts) else end
            if min(hi, end) > max(lo, start):
                total += (min(hi, end) - max(lo, start)) * factors[i]
            if hi >= end:
                return total
            i += 1

    def speed_factor(self) -> float:
        """Nominal seconds per host second over the whole block."""
        return NOMINAL_CHUNK_S / statistics.median(self.samples)
