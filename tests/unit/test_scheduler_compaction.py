"""Cancellation-heavy scheduler workloads: lazy dropping semantics.

``Scheduler.cancel(handle)`` clears the entry's callback slot, and the
scheduler drops the entry when it reaches the head of the heap; the
heap is never compacted. These tests pin down that contract: the
``pending`` vs ``pending_active`` split, cancel-after-fire and repeated
cancels as no-ops, cancelling from inside a callback, and that lazy
dropping can never change which events fire or in what order.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError


def test_pending_counts_raw_heap_pending_active_excludes_cancelled(
    scheduler,
):
    events = [scheduler.call_at(float(i), lambda: None) for i in range(10)]
    assert scheduler.pending == 10
    assert scheduler.pending_active == 10
    for event in events[:4]:
        scheduler.cancel(event)
    # Lazy cancellation: the raw heap still holds all ten entries.
    assert scheduler.pending == 10
    assert scheduler.pending_active == 6
    assert scheduler.cancelled_pending == 4


def test_cancel_is_idempotent_for_counters(scheduler):
    event = scheduler.call_at(1.0, lambda: None)
    scheduler.call_at(2.0, lambda: None)
    scheduler.cancel(event)
    scheduler.cancel(event)
    scheduler.cancel(event)
    assert scheduler.cancelled_pending == 1
    assert scheduler.pending_active == 1


def test_no_compaction_below_min_count(scheduler):
    """A queue never compacts, even at a 100% cancelled fraction:
    cancelled entries stay until they reach the head."""
    events = [scheduler.call_at(float(i), lambda: None) for i in range(1000)]
    for event in events:
        scheduler.cancel(event)
    assert scheduler.cancelled_pending == len(events)
    assert scheduler.pending == len(events)
    assert scheduler.pending_active == 0


def test_cancelled_events_never_fire_across_compaction(scheduler):
    """Heavy cancellation churn: survivors fire exactly once, in order."""
    fired = []
    total = 256
    events = [
        scheduler.call_at(float(i), lambda i=i: fired.append(i))
        for i in range(total)
    ]
    # Cancel every other event, so survivors stay interleaved with
    # cancelled entries through the whole heap.
    for event in events[::2]:
        scheduler.cancel(event)
    scheduler.run_until(float(total) + 1.0)
    assert fired == list(range(1, total, 2))
    assert scheduler.pending == 0
    assert scheduler.cancelled_pending == 0


def test_ordering_preserved_at_equal_time_and_priority(scheduler):
    """Cancelling must not disturb FIFO order among equal keys."""
    fired = []
    keep = []
    for i in range(256):
        event = scheduler.call_at(
            5.0, lambda i=i: fired.append(i), priority=3
        )
        if i % 3 == 0:
            scheduler.cancel(event)
        else:
            keep.append(i)
    scheduler.run_until(10.0)
    assert fired == keep


def test_cancel_after_fire_does_not_corrupt_counter(scheduler):
    event = scheduler.call_at(1.0, lambda: None)
    scheduler.call_at(2.0, lambda: None)
    scheduler.run_until(1.5)
    # The event already fired and left the heap; cancelling it now is a
    # no-op for the pending-cancelled bookkeeping.
    scheduler.cancel(event)
    assert scheduler.cancelled_pending == 0
    assert scheduler.pending == 1
    assert scheduler.pending_active == 1


def test_step_and_peek_skip_cancelled_entries(scheduler):
    fired = []
    first = scheduler.call_at(1.0, lambda: fired.append("a"))
    scheduler.call_at(2.0, lambda: fired.append("b"))
    scheduler.cancel(first)
    assert scheduler.peek_time() == 2.0
    assert scheduler.step() is True
    assert fired == ["b"]
    assert scheduler.step() is False


def test_compaction_inside_run_until_keeps_heap_alias_valid(scheduler):
    """A callback that cancels most of the heap mid-run must not
    strand the loop: events scheduled after the cancels still fire,
    survivors fire exactly once, and the cancelled entries are all
    dropped (even those past the horizon, once they reach the head), so
    the cancelled-pending counter lands at zero."""
    fired = []
    victims = [
        scheduler.call_at(10.0 + i, lambda: fired.append("victim"))
        for i in range(320)
    ]
    survivor_times = [3.0, 4.0]
    for t in survivor_times:
        scheduler.call_at(t, lambda t=t: fired.append(t))

    def canceller():
        for event in victims:
            scheduler.cancel(event)
        scheduler.call_at(2.0, lambda: fired.append("late"))

    scheduler.call_at(1.0, canceller)
    scheduler.run_until(100.0)
    assert fired == ["late", 3.0, 4.0]
    assert scheduler.pending == 0
    assert scheduler.pending_active == 0
    assert scheduler.cancelled_pending == 0


def test_events_fired_is_live_inside_callbacks(scheduler):
    """``events_fired`` read from within a callback reflects the events
    fired so far in the current run, not the stale pre-run count."""
    seen = []
    for i in range(3):
        scheduler.call_at(float(i + 1), lambda: seen.append(scheduler.events_fired))
    scheduler.run_until(10.0)
    assert seen == [1, 2, 3]
    assert scheduler.events_fired == 3


def test_run_until_reentrancy_raises(scheduler):
    def reenter():
        scheduler.run_until(5.0)

    scheduler.call_at(1.0, reenter)
    with pytest.raises(SimulationError):
        scheduler.run_until(2.0)


def test_events_fired_counts_only_fired_events(scheduler):
    events = [scheduler.call_at(float(i), lambda: None) for i in range(8)]
    for event in events[:3]:
        scheduler.cancel(event)
    scheduler.run_until(100.0)
    assert scheduler.events_fired == 5


def test_compaction_with_fully_cancelled_heap(scheduler):
    """Cancelling *every* entry in a large heap must leave the counters
    self-consistent: ``pending_active`` is zero at once, the first look
    at the head drops every entry, and no stale cancelled-pending count
    lingers to skew ``pending_active``."""
    events = [
        scheduler.call_at(float(i), lambda: None) for i in range(128)
    ]
    for event in events:
        scheduler.cancel(event)
    assert scheduler.pending_active == 0
    # The queue is genuinely empty, not just accounted as empty.
    assert scheduler.peek_time() is None
    assert scheduler.pending == 0
    assert scheduler.cancelled_pending == 0
    assert scheduler.step() is False
    # And it remains fully usable afterwards.
    fired = []
    scheduler.call_at(1.0, lambda: fired.append(True))
    scheduler.run()
    assert fired == [True]
    assert scheduler.pending_active == 0


def test_cancel_inside_own_callback_is_a_no_op(scheduler):
    """Firing clears the entry's callback slot before the callback
    runs, so an event that cancels its own handle changes nothing."""
    handles = []

    def cancel_self():
        scheduler.cancel(handles[0])

    handles.append(scheduler.call_at(1.0, cancel_self))
    scheduler.call_at(2.0, lambda: None)
    scheduler.run_until(1.5)
    assert scheduler.events_fired == 1
    assert scheduler.cancelled_pending == 0
    assert scheduler.pending_active == 1
