"""Host-speed probe: a fixed kernel timed between operations.

The benchmark runs on shared virtual machines whose speed changes by half
from one second to the next: a fixed kernel takes 0.16 ms in one second
and 0.25 ms in the next, with CPU time equal to wall time, so the change
is the host's and not the program's.  Timings are therefore reported at a
reference host speed: a time measured between two probes is multiplied by
``REFERENCE_PROBE_S`` over the median of the probes around it.  The kernel
uses no code of ``wildcoh``, so a change to the program cannot move it; it
mixes the two kinds of work the program does, scalar modular arithmetic
over nested lists and small int64 numpy products, so that it slows down
with the host as the program does.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter

import numpy as np

# Median probe time on the host the bounds were measured on (2 vCPU
# Intel Xeon, 2.0 GHz nominal); it only sets the scale of reported times.
REFERENCE_PROBE_S = 0.18e-3
PROBE_EVERY_S = 0.02  # operation time between probes: about 2% of a run goes to probes
WINDOW = 5  # probes on each side that set the speed of a stretch of the run

_ROWS = [[(7 * i + 3 * j) % 11 for j in range(12)] for i in range(12)]
_MATRIX = np.array(_ROWS, dtype=np.int64)


def kernel() -> int:
    acc = 0
    for _ in range(8):
        for row in _ROWS:
            for x in row:
                acc = (acc * 5 + x * x + 1) % 101
    m = _MATRIX
    for k in range(10):
        m = (m @ _MATRIX + np.outer(m[k], _MATRIX[k])) % 11
    return acc + sum(m.tolist()[0])


def time_kernel() -> float:
    """One probe, in seconds, with the collector off so it times the kernel only.

    The kernel runs twice and the second run is timed: the first, right
    after an operation, pays for the caches the operation evicted.
    """
    gc.disable()
    try:
        kernel()
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        gc.enable()


class Probe:
    """Probes between operations and scales what was timed between them.

    ``segments[k]`` is the wall time before probe ``k`` (probes left out);
    a time taken while ``mark()`` read ``k`` lies in that segment.
    """

    def __init__(self):
        self.times: list[float] = []
        self.segments: list[float] = []
        self._last = perf_counter()

    def mark(self) -> int:
        return len(self.times)

    def maybe(self) -> None:
        now = perf_counter()
        if now - self._last >= PROBE_EVERY_S:
            self.segments.append(now - self._last)
            self.times.append(time_kernel())
            self._last = perf_counter()

    def burst(self, seconds: float) -> None:
        end = perf_counter() + seconds
        while perf_counter() < end:
            self.times.append(time_kernel())
        self._last = perf_counter()

    def finish(self) -> list[float]:
        """Close the last segment and return, per mark, the factor that turns
        a time taken in that segment into one at the reference speed, from
        the probes around the segment."""
        self.segments.append(perf_counter() - self._last)
        if not self.times:  # a run shorter than PROBE_EVERY_S
            self.times.append(time_kernel())
        return [REFERENCE_PROBE_S / median(self.times[max(0, k - WINDOW):k + WINDOW])
                for k in range(len(self.segments))]

    def scale(self) -> float:
        """One factor for the whole run (for set-ups, timed between bursts)."""
        return REFERENCE_PROBE_S / median(self.times)
