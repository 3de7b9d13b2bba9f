"""Deterministic discrete-event scheduler.

This is the heart of the simulation: a binary-heap event queue plus a
:class:`~repro.simcore.clock.Clock`. Components schedule callbacks with
:meth:`Scheduler.call_at` / :meth:`Scheduler.call_in`, and the experiment
driver runs the loop with :meth:`Scheduler.run_until`.

Determinism guarantees:

* events fire in ``(time, priority, scheduling order)`` order;
* the clock advances only inside :meth:`run_until` / :meth:`step`;
* no real time or OS entropy is consulted anywhere in the kernel.

Performance notes (this file is the hottest loop in the repo — see
``repro-rtc profile``):

* an event is its heap entry, a ``[time, priority, seq, callback]``
  list: scheduling allocates that one list and nothing else, and heap
  sift comparisons are C list comparisons that never reach the
  callback, because ``seq`` is unique;
* the sequence tie-breaker is a per-scheduler counter, so event
  ordering is reproducible regardless of process history;
* the entry is also the handle :meth:`Scheduler.cancel` takes.
  Cancelling clears the callback slot, and the loop drops such entries
  when they reach the head of the heap. Only ``PeriodicProcess.stop``
  cancels, a few times per session, so there is no compaction.
"""

from __future__ import annotations

import heapq
import math
from heapq import heappush as _heappush
from typing import Callable

from ..errors import SchedulingError
from ..telemetry.recorder import NULL_TELEMETRY, Telemetry
from .clock import Clock

_isfinite = math.isfinite
_INF = float("inf")


class Scheduler:
    """Event loop for the simulation.

    Example:
        >>> sched = Scheduler()
        >>> fired = []
        >>> _ = sched.call_in(1.0, lambda: fired.append(sched.now))
        >>> sched.run_until(2.0)
        >>> fired
        [1.0]
    """

    __slots__ = (
        "clock",
        "_heap",
        "_events_fired",
        "_running",
        "_telemetry",
        "_next_seq",
        "_cancelled_pending",
    )

    def __init__(
        self, start: float = 0.0, telemetry: Telemetry | None = None
    ) -> None:
        self.clock = Clock(start)
        #: ``[time, priority, seq, callback]`` entries; the callback slot
        #: is ``None`` once the entry is cancelled or fired.
        self._heap: list[list] = []
        self._events_fired = 0
        self._running = False
        self._telemetry = telemetry or NULL_TELEMETRY
        self._next_seq = 0
        self._cancelled_pending = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.clock._now

    @property
    def events_fired(self) -> int:
        """Count of events executed so far (for diagnostics/tests)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Raw event-queue size, **including** cancelled events that
        have not been swept yet. Use :attr:`pending_active` for the
        number of events that will actually fire."""
        return len(self._heap)

    @property
    def pending_active(self) -> int:
        """Number of queued events that are not cancelled — the queue
        depth that matters for diagnostics and telemetry."""
        return self.pending - self._cancelled_pending

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still sitting in the heap (diagnostics)."""
        return self._cancelled_pending

    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> list:
        """Schedule ``callback`` at absolute simulation ``time``.

        Returns the event's heap entry, ``[time, priority, seq,
        callback]``, as its handle for :meth:`cancel`. Treat it as
        opaque.

        Raises:
            SchedulingError: if ``time`` precedes the current clock or is
                not a finite number.
        """
        # Hot path: `time >= now` is False for NaN and past times, so one
        # comparison clears both checks for the common case; the precise
        # error is sorted out only on the slow path.
        now = self.clock._now
        if not time >= now or time == _INF:
            if not _isfinite(time):
                raise SchedulingError(
                    f"event time must be finite, got {time!r}"
                )
            raise SchedulingError(
                f"cannot schedule at {time:.9f} before now={now:.9f}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [time, priority, seq, callback]
        _heappush(self._heap, entry)
        return entry

    def call_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> list:
        """Schedule ``callback`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay!r}")
        return self.call_at(self.clock._now + delay, callback, priority)

    def cancel(self, handle: list) -> None:
        """Stop the event ``handle`` (from :meth:`call_at`) from firing.

        Idempotent, and a no-op once the event has fired: firing clears
        the callback slot too. The entry stays in the heap, counted by
        :attr:`cancelled_pending`, until it reaches the head.
        """
        if handle[3] is not None:
            handle[3] = None
            self._cancelled_pending += 1

    def peek_time(self) -> float | None:
        """Time of the next non-cancelled event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def peek_callback(self) -> Callable[[], None] | None:
        """Callback of the next event without firing it (``None`` if
        empty). Diagnostic — the profiling census attributes events to
        handler modules with this."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][3]

    def step(self) -> bool:
        """Fire the single next event.

        Returns:
            ``True`` if an event fired, ``False`` if the queue was empty.
        """
        self._drop_cancelled()
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        callback = entry[3]
        entry[3] = None
        self.clock.advance_to(entry[0])
        self._events_fired += 1
        callback()
        return True

    def run_until(self, end_time: float) -> None:
        """Run events until the queue is empty or the next event is after
        ``end_time``; finally advance the clock to ``end_time``.

        Raises:
            SchedulingError: when called re-entrantly from a callback, or
                when ``end_time`` is not finite (use :meth:`run` to drain
                the queue).
        """
        if self._running:
            raise SchedulingError("run_until called re-entrantly")
        if not _isfinite(end_time):
            raise SchedulingError(
                f"end time must be finite, got {end_time!r}"
            )
        self._running = True
        # Hot loop: one callback-slot check and one heappop per event, on
        # list entries (C comparisons). Firing clears the slot so a late
        # cancel is a no-op. The telemetry variant is a separate copy so
        # the disabled path stays free of per-event bookkeeping beyond
        # this one branch.
        heap = self._heap
        clock = self.clock
        pop = heapq.heappop
        telemetry = self._telemetry
        try:
            if not telemetry.enabled:
                while heap:
                    entry = heap[0]
                    callback = entry[3]
                    if callback is None:
                        pop(heap)
                        self._cancelled_pending -= 1
                        continue
                    time = entry[0]
                    if time > end_time:
                        break
                    pop(heap)
                    entry[3] = None
                    clock._now = time
                    # Per-event so ``events_fired`` read from inside a
                    # callback is live, matching the telemetry path.
                    self._events_fired += 1
                    callback()
            else:
                fired_before = self._events_fired
                max_depth = len(heap) - self._cancelled_pending
                while heap:
                    entry = heap[0]
                    callback = entry[3]
                    if callback is None:
                        pop(heap)
                        self._cancelled_pending -= 1
                        continue
                    time = entry[0]
                    if time > end_time:
                        break
                    pop(heap)
                    entry[3] = None
                    clock._now = time
                    self._events_fired += 1
                    callback()
                    depth = len(heap) - self._cancelled_pending
                    if depth > max_depth:
                        max_depth = depth
                telemetry.count(
                    "scheduler.events", self._events_fired - fired_before
                )
                prev_max = telemetry.gauges.get(
                    "scheduler.max_queue_depth", 0.0
                )
                telemetry.gauge(
                    "scheduler.max_queue_depth", max(prev_max, max_depth)
                )
            if end_time > clock._now:
                clock.advance_to(end_time)
        finally:
            self._running = False

    def run(self) -> None:
        """Run until the event queue is exhausted."""
        while self.step():
            pass

    # ------------------------------------------------------------------
    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
            self._cancelled_pending -= 1
