"""A fixed pure-Python workload that times the machine, not the program.

On a shared host the speed of a vCPU can change by 30-50% within
minutes (measured on a 2-vCPU 2.1 GHz Xeon VM), and the simulator's
wall time follows it. This loop, timed before every cell, follows the
same swings, but more strongly: over 30 consecutive 30-second runs (ten
per workload) the simulator's wall-clock speed moved as the loop's
speed to the power 0.67 (0.59-0.75 per workload).

So every time the benchmark reports is in *nominal seconds*: wall
seconds times ``(NOMINAL_S / loop time) ** EXPONENT``, i.e. scaled to a
machine on which one :func:`reference_work` takes :data:`NOMINAL_S`.
The loop does what the simulator's handlers do: heap pushes and pops,
slotted-object attribute access, dict updates and float arithmetic. It
imports nothing from the program, so no change to the program moves it.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Wall time of one reference run on the nominal machine.
NOMINAL_S = 0.010

#: How strongly the simulator's speed follows the loop's (see above).
EXPONENT = 0.67


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time: float, key: int, value: float) -> None:
        self.time = time
        self.key = key
        self.value = value


def reference_work() -> float:
    """One fixed unit of interpreter work (about 10 ms)."""
    heap: list = []
    totals: dict[int, float] = {}
    x = 12345
    acc = 0.0
    for i in range(10_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x / 2**31, i, _Event(x, i % 97, i * 0.5)))
        if len(heap) > 64:
            t, _, event = heapq.heappop(heap)
            totals[event.key] = totals.get(event.key, 0.0) + event.value * t
            acc += t
    return acc


def reference_seconds() -> float:
    """Wall seconds one reference run takes now."""
    start = time.perf_counter_ns()
    reference_work()
    return (time.perf_counter_ns() - start) / 1e9


def nominal_scale(samples: list[float]) -> float:
    """Factor from wall to nominal seconds, given reference run times."""
    return (NOMINAL_S / statistics.median(samples)) ** EXPONENT
