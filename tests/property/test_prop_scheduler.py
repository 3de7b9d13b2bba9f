"""Property tests: the event scheduler never reorders time.

Random programs also run against a linear-scan reference model, which
pins the whole observable contract: firing order, ties, the clock and
the live-event and fired-event counters.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.scheduler import Scheduler


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=100)
def test_events_always_fire_in_nondecreasing_time(times):
    scheduler = Scheduler()
    fired = []
    for t in times:
        scheduler.call_at(t, lambda t=t: fired.append(scheduler.now))
    scheduler.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
    horizon=st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
)
@settings(max_examples=100)
def test_run_until_partitions_events_exactly(times, horizon):
    scheduler = Scheduler()
    fired = []
    for t in times:
        scheduler.call_at(t, lambda t=t: fired.append(t))
    scheduler.run_until(horizon)
    assert sorted(fired) == sorted(t for t in times if t <= horizon)
    assert scheduler.now >= horizon


@given(
    same_time=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    count=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=50)
def test_fifo_among_equal_times(same_time, count):
    scheduler = Scheduler()
    fired = []
    for i in range(count):
        scheduler.call_at(same_time, lambda i=i: fired.append(i))
    scheduler.run()
    assert fired == list(range(count))


class _ModelEvent:
    __slots__ = ("key", "callback", "cancelled")

    def __init__(self, key, callback):
        self.key = key
        self.callback = callback
        self.cancelled = False


class _ModelScheduler:
    """Linear-scan reference for the heap kernel: the next event is
    the live one with the smallest ``(time, priority, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self._queue = []
        self._seq = 0

    @property
    def pending_active(self):
        return sum(not event.cancelled for event in self._queue)

    def call_at(self, time, callback, priority=0):
        event = _ModelEvent((time, priority, self._seq), callback)
        self._seq += 1
        self._queue.append(event)
        return event

    def cancel(self, event):
        event.cancelled = True

    def _next(self):
        live = [event for event in self._queue if not event.cancelled]
        return min(live, key=lambda event: event.key) if live else None

    def peek_time(self):
        event = self._next()
        return None if event is None else event.key[0]

    def step(self):
        event = self._next()
        if event is None:
            return False
        self._queue.remove(event)
        self.now = event.key[0]
        self.events_fired += 1
        event.callback()
        return True

    def run_until(self, end_time):
        while (head := self.peek_time()) is not None and head <= end_time:
            self.step()
        self.now = max(self.now, end_time)

    def run(self):
        while self.step():
            pass


# One scripted operation: (opcode, time/index, priority).
_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "spawn", "cancel", "run_until", "peek", "step"]
        ),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.integers(min_value=-2, max_value=2),
    ),
    min_size=1,
    max_size=80,
)


def _replay(scheduler, ops):
    """Run one op script; return every observable as a flat trace.

    ``spawn`` events schedule a follow-up from inside their callback
    and cancel a second one before it fires."""
    trace = []
    events = []

    def fire(tag):
        trace.append(("fire", tag, scheduler.now))

    def spawn(tag, delay, priority):
        fire(tag)
        scheduler.call_at(
            scheduler.now + delay,
            lambda: fire(("child", tag)),
            priority=priority,
        )
        scheduler.cancel(
            scheduler.call_at(
                scheduler.now + delay / 2, lambda: fire(("doomed", tag))
            )
        )

    for index, (op, value, priority) in enumerate(ops):
        if op in ("insert", "spawn"):
            time = max(value, scheduler.now)
            if op == "insert":
                callback = functools.partial(fire, index)
            else:
                callback = functools.partial(
                    spawn, index, value % 3.0, priority
                )
            events.append(scheduler.call_at(time, callback, priority))
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
            ("counters", scheduler.pending_active, scheduler.events_fired)
        )
    scheduler.run()
    trace.append(("final", scheduler.now, scheduler.events_fired))
    return trace


@given(ops=_ops)
@settings(max_examples=200)
def test_random_programs_match_reference_model(ops):
    """Inserts, cancels, re-entrant scheduling, steps, peeks and partial
    horizons: firing order, clock and counters match the model."""
    assert _replay(Scheduler(), ops) == _replay(_ModelScheduler(), ops)


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
def test_ties_break_by_priority_then_scheduling_order(times, priorities):
    scheduler = Scheduler()
    fired = []
    keys = []
    for index, time in enumerate(times):
        priority = priorities[index % len(priorities)]
        keys.append((time, priority, index))
        scheduler.call_at(
            time, lambda i=index: fired.append(i), priority=priority
        )
    scheduler.run()
    assert fired == [key[2] for key in sorted(keys)]
