"""Discrete-event scheduler semantics."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.simcore.clock import Clock
from repro.simcore.scheduler import Scheduler
from repro.telemetry.recorder import Telemetry


def test_events_fire_in_time_order(scheduler):
    fired = []
    scheduler.call_at(2.0, lambda: fired.append("b"))
    scheduler.call_at(1.0, lambda: fired.append("a"))
    scheduler.call_at(3.0, lambda: fired.append("c"))
    scheduler.run_until(10.0)
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order(scheduler):
    fired = []
    for name in "abcde":
        scheduler.call_at(1.0, lambda n=name: fired.append(n))
    scheduler.run_until(2.0)
    assert fired == list("abcde")


def test_priority_breaks_ties(scheduler):
    fired = []
    scheduler.call_at(1.0, lambda: fired.append("low"), priority=5)
    scheduler.call_at(1.0, lambda: fired.append("high"), priority=0)
    scheduler.run_until(2.0)
    assert fired == ["high", "low"]


def test_clock_advances_to_event_time(scheduler):
    times = []
    scheduler.call_at(1.5, lambda: times.append(scheduler.now))
    scheduler.run_until(5.0)
    assert times == [1.5]
    assert scheduler.now == 5.0


def test_run_until_stops_before_later_events(scheduler):
    fired = []
    scheduler.call_at(1.0, lambda: fired.append("early"))
    scheduler.call_at(9.0, lambda: fired.append("late"))
    scheduler.run_until(5.0)
    assert fired == ["early"]
    assert scheduler.now == 5.0
    scheduler.run_until(10.0)
    assert fired == ["early", "late"]


def test_cancelled_event_does_not_fire(scheduler):
    fired = []
    event = scheduler.call_at(1.0, lambda: fired.append("x"))
    scheduler.cancel(event)
    scheduler.run_until(2.0)
    assert fired == []


def test_events_scheduled_from_callbacks(scheduler):
    fired = []

    def chain():
        fired.append(scheduler.now)
        if scheduler.now < 3.0:
            scheduler.call_in(1.0, chain)

    scheduler.call_at(1.0, chain)
    scheduler.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_cannot_schedule_in_the_past(scheduler):
    scheduler.call_at(1.0, lambda: None)
    scheduler.run_until(2.0)
    with pytest.raises(SchedulingError):
        scheduler.call_at(1.5, lambda: None)


def test_cannot_schedule_nonfinite(scheduler):
    with pytest.raises(SchedulingError):
        scheduler.call_at(float("inf"), lambda: None)
    with pytest.raises(SchedulingError):
        scheduler.call_at(float("nan"), lambda: None)


@pytest.mark.parametrize("end", [float("nan"), float("inf")])
def test_run_until_rejects_non_finite_end(scheduler, end):
    """``time > nan`` is never true, so a NaN horizon would run a
    self-rescheduling timer forever; ``run()`` is the way to drain."""
    scheduler.call_at(1.0, lambda: None)
    with pytest.raises(SchedulingError):
        scheduler.run_until(end)
    assert scheduler.events_fired == 0
    # The rejected call left the scheduler usable.
    scheduler.run_until(2.0)
    assert scheduler.events_fired == 1


def test_negative_delay_rejected(scheduler):
    with pytest.raises(SchedulingError):
        scheduler.call_in(-0.1, lambda: None)


def test_step_returns_false_when_empty(scheduler):
    assert scheduler.step() is False


def test_events_fired_counter(scheduler):
    for i in range(5):
        scheduler.call_at(float(i + 1), lambda: None)
    scheduler.run_until(10.0)
    assert scheduler.events_fired == 5


def test_peek_time_skips_cancelled(scheduler):
    event = scheduler.call_at(1.0, lambda: None)
    scheduler.call_at(2.0, lambda: None)
    scheduler.cancel(event)
    assert scheduler.peek_time() == 2.0


def test_run_drains_all_events(scheduler):
    fired = []
    scheduler.call_at(1.0, lambda: fired.append(1))
    scheduler.call_at(2.0, lambda: fired.append(2))
    scheduler.run()
    assert fired == [1, 2]


def test_reentrant_run_until_rejected(scheduler):
    def nested():
        scheduler.run_until(5.0)

    scheduler.call_at(1.0, nested)
    with pytest.raises(SchedulingError):
        scheduler.run_until(2.0)


def test_clock_never_rewinds():
    clock = Clock()
    clock.advance_to(5.0)
    with pytest.raises(SimulationError):
        clock.advance_to(4.0)


def test_priority_then_scheduling_order_breaks_ties(scheduler):
    fired = []
    scheduler.call_at(1.0, lambda: fired.append("low"), priority=5)
    scheduler.call_at(1.0, lambda: fired.append("high"), priority=-5)
    scheduler.call_at(1.0, lambda: fired.append("first"))
    scheduler.call_at(1.0, lambda: fired.append("second"))
    scheduler.run()
    assert fired == ["high", "first", "second", "low"]


def test_event_scheduled_at_now_fires_before_later_events(scheduler):
    fired = []

    def late():
        fired.append("late")
        scheduler.call_at(scheduler.now, lambda: fired.append("now"))
        scheduler.call_at(
            scheduler.now + 0.0001, lambda: fired.append("soon")
        )

    scheduler.call_at(10.0, late)
    scheduler.call_at(11.0, lambda: fired.append("after"))
    scheduler.run()
    assert fired == ["late", "now", "soon", "after"]


def test_run_stops_clock_at_last_event(scheduler):
    for time in (2.0, 1.0, 3.0):
        scheduler.call_at(time, lambda: None)
    scheduler.run()
    assert scheduler.now == 3.0
    assert scheduler.events_fired == 3


def test_partial_run_leaves_exact_diagnostics(scheduler):
    """Cancelled entries beyond the horizon stay queued, counted as
    cancelled, until they reach the head."""
    handles = [scheduler.call_at(float(i), lambda: None) for i in range(10)]
    scheduler.cancel(handles[7])
    scheduler.cancel(handles[9])
    scheduler.run_until(4.5)
    assert scheduler.now == 4.5
    assert scheduler.events_fired == 5
    assert scheduler.pending == 5
    assert scheduler.pending_active == 3
    assert scheduler.cancelled_pending == 2
    assert scheduler.peek_time() == 5.0


def test_run_until_reports_telemetry():
    telemetry = Telemetry()
    scheduler = Scheduler(telemetry=telemetry)
    for i in range(20):
        scheduler.call_at(i * 0.1, lambda: None)
    scheduler.run_until(0.95)
    assert telemetry.counters["scheduler.events"] == 10
    assert telemetry.gauges["scheduler.max_queue_depth"] == 20
    scheduler.run_until(1.95)
    assert telemetry.counters["scheduler.events"] == 20
    assert telemetry.gauges["scheduler.max_queue_depth"] == 20
