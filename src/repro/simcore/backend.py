"""The name of the event kernel, stamped on every benchmark run.

The simulator has one event kernel, the binary-heap
:class:`~repro.simcore.scheduler.Scheduler`; components construct it
directly. ``perfbench/run.py:environment()`` still stamps
``resolve_kernel().value`` on every run, and the benchmark's files
change only together with the benchmark.
"""

from __future__ import annotations

import enum


class SchedulerBackend(enum.Enum):
    """The one event kernel."""

    HEAP = "heap"


def resolve_kernel() -> SchedulerBackend:
    """The event kernel every session runs."""
    return SchedulerBackend.HEAP
