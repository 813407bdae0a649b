"""A fixed reference loop that measures how fast the machine runs.

On a shared virtual machine the same work can take 1.5 times as long in
one minute as in the next, depending on what else runs on the same cores.
The benchmark times this loop next to each fresh import of the CLI, spread
over the run, and reports its times in *reference seconds*: each raw time
multiplied by ``UNIT_S`` over the loop's mean time per unit across the
run.  A machine that runs the loop at ``UNIT_S`` per unit reads the same
as raw seconds.

The loop does the kinds of work the workloads do (heap and dict operations
in the interpreter, many small numpy calls, one larger array pass) and
uses no latticegrow code, so a change to the program never changes it.
It must not change either: a changed loop rescales every timed metric.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# time of one unit on the machine the benchmark was tuned on (a 2-vCPU Intel
# Xeon virtual machine, Python 3.11, numpy 2.4); it only sets the scale
UNIT_S = 0.015
UNITS_PER_SAMPLE = 12

_MASK = (1 << 64) - 1


def _unit() -> float:
    heap: list = []
    seen: dict = {}
    x = 0x9E3779B97F4A7C15
    for i in range(6000):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        key = (i & 255, x >> 56)
        seen[key] = seen.get(key, 0) + 1
        heapq.heappush(heap, (x >> 33, i))
        if len(heap) > 128:
            heapq.heappop(heap)
    row = np.linspace(0.0, 1.0, 257)
    for _ in range(300):
        row = np.maximum(row[:-1], row[1:]) + 0.5 * row[:-1]
        row = np.append(row, row[0]) / (1.0 + row.max())
    big = np.arange(200_000, dtype=np.uint64)
    big ^= big >> np.uint64(7)
    big *= np.uint64(0xBF58476D1CE4E5B9)
    return float(row.sum()) + float(big[-1] & np.uint64(1)) + len(seen) + heap[0][1]


def unit_seconds(units: int = UNITS_PER_SAMPLE) -> float:
    """Mean wall time of one reference unit over ``units`` runs of it,
    after one untimed run that brings the loop's memory back into cache."""
    _unit()
    t0 = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - t0) / units

