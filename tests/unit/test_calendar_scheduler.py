"""``CalendarScheduler``: the heap kernel under a retired kernel's name.

The calendar-queue kernel is gone. :mod:`repro.simcore.calendar` keeps
``CalendarScheduler`` as an empty :class:`Scheduler` subclass because
the benchmark's tracer imports it and wraps its ``run_until``. These
tests keep the calendar kernel's scenarios (far-future events, many
events, inserts at the current time, cancellation compaction) and
check that the class behaves exactly as the heap does, diagnostics
included.
"""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.simcore.calendar import CalendarScheduler
from repro.simcore.scheduler import Scheduler


def test_basic_ordering_and_clock():
    scheduler = CalendarScheduler()
    fired = []
    scheduler.call_at(2.0, lambda: fired.append(("b", scheduler.now)))
    scheduler.call_at(1.0, lambda: fired.append(("a", scheduler.now)))
    scheduler.call_at(3.0, lambda: fired.append(("c", scheduler.now)))
    scheduler.run()
    assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert scheduler.now == 3.0
    assert scheduler.events_fired == 3


def test_priority_and_fifo_tie_breaking():
    scheduler = CalendarScheduler()
    fired = []
    scheduler.call_at(1.0, lambda: fired.append("low"), priority=5)
    scheduler.call_at(1.0, lambda: fired.append("hi"), priority=-5)
    scheduler.call_at(1.0, lambda: fired.append("first"))
    scheduler.call_at(1.0, lambda: fired.append("second"))
    scheduler.run()
    assert fired == ["hi", "first", "second", "low"]


def test_rejects_past_and_invalid_times():
    scheduler = CalendarScheduler()
    scheduler.call_at(5.0, lambda: None)
    scheduler.run()
    with pytest.raises(SchedulingError):
        scheduler.call_at(4.0, lambda: None)
    with pytest.raises(SchedulingError):
        scheduler.call_at(float("nan"), lambda: None)
    with pytest.raises(SchedulingError):
        scheduler.call_at(float("inf"), lambda: None)


def test_spill_heap_migration():
    """An event far beyond a run of near ones fires last, at its own
    time, and leaves nothing queued."""
    scheduler = CalendarScheduler()
    fired = []
    for i in range(8):
        scheduler.call_at(float(i), lambda i=i: fired.append(i))
    far = 1e6
    scheduler.call_at(far, lambda: fired.append("far"))
    scheduler.run()
    assert fired == list(range(8)) + ["far"]
    assert scheduler.now == far
    assert scheduler.pending == 0


def test_ring_resize_under_load():
    """Thousands of queued events fire in time order."""
    scheduler = CalendarScheduler()
    fired = []
    total = 4096
    for i in range(total):
        scheduler.call_at(i * 0.001, lambda i=i: fired.append(i))
    assert scheduler.pending == total
    scheduler.run()
    assert fired == list(range(total))
    assert scheduler.events_fired == total


def test_cursor_rewinds_for_earlier_inserts():
    """A callback scheduling work at the current time, or just after
    it, still fires that work before later events."""
    scheduler = CalendarScheduler()
    fired = []

    def late():
        fired.append("late")
        scheduler.call_at(scheduler.now, lambda: fired.append("now"))
        scheduler.call_at(scheduler.now + 0.0001, lambda: fired.append("soon"))

    scheduler.call_at(10.0, late)
    scheduler.call_at(11.0, lambda: fired.append("after"))
    scheduler.run()
    assert fired == ["late", "now", "soon", "after"]


def test_run_until_horizon_and_diagnostics_match_heap():
    """Partial runs leave the same (pending, cancelled, fired, now)
    diagnostics as the heap, including cancelled entries beyond the
    horizon."""

    def build(scheduler):
        handles = [
            scheduler.call_at(float(i), lambda: None) for i in range(10)
        ]
        handles[7].cancel()
        handles[9].cancel()
        scheduler.run_until(4.5)
        return (
            scheduler.now,
            scheduler.events_fired,
            scheduler.pending,
            scheduler.pending_active,
            scheduler.cancelled_pending,
            scheduler.peek_time(),
        )

    assert build(CalendarScheduler()) == build(Scheduler())


def test_run_until_reentrancy_raises():
    scheduler = CalendarScheduler()
    scheduler.call_at(1.0, lambda: scheduler.run_until(5.0))
    with pytest.raises(SimulationError):
        scheduler.run_until(2.0)


def test_compact_rebuilds_ring():
    """Compaction after heavy cancellation keeps exactly the live
    events."""
    scheduler = CalendarScheduler()
    fired = []
    handles = [
        scheduler.call_at(float(i), lambda i=i: fired.append(i))
        for i in range(Scheduler.COMPACT_MIN * 2)
    ]
    for handle in handles[::2]:
        handle.cancel()
    # Lazy compaction may already have run; force one more and check
    # the live set survives intact.
    scheduler._compact()
    assert scheduler.cancelled_pending == 0
    assert scheduler.pending == scheduler.pending_active
    scheduler.run()
    assert scheduler.pending == 0
    assert fired == list(range(1, Scheduler.COMPACT_MIN * 2, 2))


def test_telemetry_counters_match_heap():
    from repro.telemetry.recorder import Telemetry

    def run(factory):
        telemetry = Telemetry()
        scheduler = factory(telemetry=telemetry)
        for i in range(20):
            scheduler.call_at(i * 0.1, lambda: None)
        scheduler.run_until(1.95)
        return telemetry.to_dict()

    assert run(CalendarScheduler) == run(Scheduler)
