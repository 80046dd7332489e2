"""Host-speed probe: a fixed task timed around every measured operation.

On a shared host the speed of a core moves by a factor of two within
seconds and by a third over minutes: other tenants compete for the shared
cache, memory bandwidth and cores (CPU time tracks wall time, so it is not
descheduling).  A median within a run removes the fast part but not the
slow part, which then shows as spread between runs.  The probe times a
task that never changes — random gathers over a 48 MB array, and heap,
generator and dictionary work in the interpreter, the two kinds of work
the counting kernels and the simulator do — between the measured
operations, and a run's times are scaled by how much slower than its
reference time the task ran over the run.  A program change moves the
operations' times and not the probe's, so it still shows in full.

The probe runs in the benchmark's own process, on the same core as the
program.  Its array is allocated for each reading and unmapped when the
reading ends, so it is never resident while the program runs.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Seconds one task takes on the reference host (a 2-CPU x86-64
#: container, CPython 3.11, at its fast state).  Only a scale: normalised
#: times are host seconds at the speed the probe ran at there.
TASK_REF_S = 0.04

#: Tasks per reading; their mean time is the reading.
TASKS = 4

#: Elements of the gathered array: 48 MB of int64, above glibc's largest
#: mmap threshold, so freeing it returns the memory to the system.
_ELEMENTS = 6 << 20
_INDEX = np.random.default_rng(20240611).integers(0, _ELEMENTS, size=1 << 15)


def _accumulate():
    total = 0
    while True:
        total += yield total


def _task(big: np.ndarray) -> None:
    """The fixed unit of work; its result is discarded."""
    for _ in range(100):
        big[_INDEX].sum()
    heap: "list[tuple[int, int]]" = []
    table: "dict[int, int]" = {}
    acc = _accumulate()
    next(acc)
    for i in range(20000):
        heapq.heappush(heap, (i * 7919 % 1013, i))
        if len(heap) > 128:
            heapq.heappop(heap)
        acc.send(i & 7)
        table[i & 255] = table.get(i & 255, 0) + i


def probe() -> float:
    """Mean seconds per task over :data:`TASKS` tasks, now."""
    big = np.arange(_ELEMENTS, dtype=np.int64)
    t0 = time.perf_counter()
    for _ in range(TASKS):
        _task(big)
    return (time.perf_counter() - t0) / TASKS


def scale(readings: "list[float]") -> float:
    """Factor that takes a run's times to reference host speed: the
    task's reference time over its mean time in the run's readings."""
    return TASK_REF_S * len(readings) / sum(readings)
