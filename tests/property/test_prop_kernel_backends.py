"""Property tests: ``CalendarScheduler`` is observationally the heap.

The calendar-queue kernel is retired; its name survives as an empty
:class:`Scheduler` subclass that the benchmark's tracer imports and
wraps. Random programs of inserts, cancels, ties (shared
times/priorities), steps, peeks and partial ``run_until`` horizons
are replayed on both classes; every observable (firing order, clock
trajectory, event/pending/cancellation counters, peeked times) must
match exactly, so a run traced under that name runs the heap kernel.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.calendar import CalendarScheduler
from repro.simcore.scheduler import Scheduler

# One scripted operation: (opcode, time/index, priority).
_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "cancel", "run_until", "peek", "step"]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.integers(min_value=-2, max_value=2),
    ),
    min_size=1,
    max_size=80,
)


def _replay(scheduler, ops):
    """Run one op script; return every observable as a flat trace."""
    trace = []
    events = []

    def fire(tag):
        trace.append(("fire", tag, scheduler.now))

    for index, (op, value, priority) in enumerate(ops):
        if op == "insert":
            time = max(value, scheduler.now)
            events.append(
                scheduler.call_at(
                    time, lambda i=index: fire(i), priority=priority
                )
            )
        elif op == "cancel" and events:
            scheduler.cancel(events[int(value) % len(events)])
        elif op == "run_until":
            horizon = max(value, scheduler.now)
            scheduler.run_until(horizon)
            trace.append(("ran", horizon, scheduler.now))
        elif op == "peek":
            trace.append(("peek", scheduler.peek_time()))
        elif op == "step":
            trace.append(("step", scheduler.step(), scheduler.now))
        trace.append(
            (
                "counters",
                scheduler.pending,
                scheduler.pending_active,
                scheduler.cancelled_pending,
                scheduler.events_fired,
            )
        )
    scheduler.run()
    trace.append(("final", scheduler.now, scheduler.events_fired))
    return trace


@given(ops=_ops)
@settings(max_examples=200)
def test_calendar_matches_heap_on_random_programs(ops):
    heap_trace = _replay(Scheduler(), ops)
    calendar_trace = _replay(CalendarScheduler(), ops)
    assert calendar_trace == heap_trace


@given(
    times=st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 2.0]),
        min_size=2,
        max_size=40,
    ),
    priorities=st.lists(
        st.integers(min_value=-1, max_value=1), min_size=2, max_size=40
    ),
)
@settings(max_examples=100)
def test_calendar_breaks_ties_exactly_like_heap(times, priorities):
    """Heavy time collisions: ordering falls back to (priority,
    scheduling order) on both classes."""

    def run(scheduler):
        fired = []
        for index, time in enumerate(times):
            priority = priorities[index % len(priorities)]
            scheduler.call_at(
                time, lambda i=index: fired.append(i), priority=priority
            )
        scheduler.run()
        return fired

    assert run(CalendarScheduler()) == run(Scheduler())


@given(
    seed_times=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100)
def test_calendar_matches_heap_with_reentrant_scheduling(seed_times):
    """Callbacks that schedule (and cancel) more work mid-run."""

    def run(scheduler):
        fired = []

        def chain(depth, label):
            fired.append((label, scheduler.now))
            if depth > 0:
                scheduler.call_at(
                    scheduler.now + 0.25, lambda: chain(depth - 1, label)
                )
                if depth % 2:
                    doomed = scheduler.call_at(
                        scheduler.now + 0.125, lambda: fired.append("x")
                    )
                    scheduler.cancel(doomed)

        for index, time in enumerate(seed_times):
            scheduler.call_at(time, lambda i=index: chain(3, i))
        scheduler.run()
        return fired, scheduler.events_fired

    assert run(CalendarScheduler()) == run(Scheduler())
