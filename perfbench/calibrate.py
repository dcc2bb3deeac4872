"""A fixed pure-Python loop that measures how fast the CPU runs right now.

On a small shared machine the speed of a CPU changes by tens of percent
from one minute to the next, as other tenants come and go.  The
benchmark times this loop next to each measurement and scales the
measured seconds by ``REFERENCE_S / loop time``: the result is the time
the measurement would have taken on a CPU that runs the loop in
``REFERENCE_S``.  The loop uses none of iriscc's code, so a change to
iriscc moves the scaled time exactly as much as the raw one.
"""

from __future__ import annotations

import heapq
import statistics
import time

REFERENCE_S = 0.025  # nominal loop time; about the loop's time on a quiet 2 GHz Xeon


def loop_seconds() -> float:
    """Seconds to run the reference loop once."""
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(32_000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return time.perf_counter() - t0


def speed_factor() -> float:
    """``REFERENCE_S`` over the median of three loop times."""
    return REFERENCE_S / statistics.median(loop_seconds() for _ in range(3))
