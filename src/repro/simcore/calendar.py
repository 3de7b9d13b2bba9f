"""Former name of the event kernel; kept only for the benchmark's tracer.

The simulator has one event kernel, the binary-heap
:class:`~repro.simcore.scheduler.Scheduler`. ``perfbench/tracer.py``
still imports this module and wraps ``CalendarScheduler.run_until``,
and the benchmark's files change only together with the benchmark. The
class is an empty subclass rather than an alias so that the tracer does
not wrap ``Scheduler.run_until`` a second time. The simulator never
constructs it; ``tests/unit/test_calendar_scheduler.py``
checks that it behaves exactly as :class:`Scheduler`.
"""

from __future__ import annotations

from .scheduler import Scheduler


class CalendarScheduler(Scheduler):
    """Empty :class:`Scheduler` subclass; see the module docstring."""
