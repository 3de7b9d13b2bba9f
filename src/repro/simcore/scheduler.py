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

* the heap stores ``(time, priority, seq, event)`` tuples, so heap
  sift comparisons are C tuple comparisons instead of Python-level
  ``Event.__lt__`` calls;
* the sequence tie-breaker is a per-scheduler counter, so event
  ordering and reprs are reproducible regardless of process history;
* cancelled events are dropped lazily when popped, and the heap is
  compacted outright once cancelled entries exceed
  :attr:`Scheduler.COMPACT_FRACTION` of it (cancellation-heavy
  workloads — NACK/retransmit timers — otherwise drag dead weight
  through every sift).
"""

from __future__ import annotations

import heapq
import math
from heapq import heappush as _heappush
from typing import Callable

from ..errors import SchedulingError
from ..telemetry.recorder import NULL_TELEMETRY, Telemetry
from .clock import Clock
from .events import Event

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

    #: Lazy-compaction thresholds: the heap is rebuilt without cancelled
    #: entries once at least ``COMPACT_MIN`` of them linger *and* they
    #: make up more than ``COMPACT_FRACTION`` of the heap.
    COMPACT_MIN = 64
    COMPACT_FRACTION = 0.25

    def __init__(
        self, start: float = 0.0, telemetry: Telemetry | None = None
    ) -> None:
        self.clock = Clock(start)
        self._heap: list[tuple[float, int, int, Event]] = []
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
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        Returns the :class:`Event`, which the caller may ``cancel()``.

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
        event = Event(time, priority, seq, callback, scheduler=self)
        _heappush(self._heap, (time, priority, seq, event))
        return event

    def call_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay!r}")
        return self.call_at(self.clock._now + delay, callback, priority)

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
        return self._heap[0][3].callback

    def step(self) -> bool:
        """Fire the single next event.

        Returns:
            ``True`` if an event fired, ``False`` if the queue was empty.
        """
        self._drop_cancelled()
        if not self._heap:
            return False
        time, _, _, event = heapq.heappop(self._heap)
        event._scheduler = None
        self.clock.advance_to(time)
        self._events_fired += 1
        event.callback()
        return True

    def run_until(self, end_time: float) -> None:
        """Run events until the queue is empty or the next event is after
        ``end_time``; finally advance the clock to ``end_time``.

        Raises:
            SchedulingError: when called re-entrantly from a callback.
        """
        if self._running:
            raise SchedulingError("run_until called re-entrantly")
        self._running = True
        # Hot loop: fused sweep/pop — one cancelled-check and one
        # heappop per event, on tuple entries (C comparisons). The
        # telemetry variant is a separate copy so the disabled path
        # stays free of per-event bookkeeping beyond this one branch.
        heap = self._heap
        clock = self.clock
        pop = heapq.heappop
        telemetry = self._telemetry
        try:
            if not telemetry.enabled:
                while heap:
                    entry = heap[0]
                    event = entry[3]
                    if event.cancelled:
                        pop(heap)
                        event._scheduler = None
                        self._cancelled_pending -= 1
                        continue
                    time = entry[0]
                    if time > end_time:
                        break
                    pop(heap)
                    event._scheduler = None
                    clock._now = time
                    # Per-event so ``events_fired`` read from inside a
                    # callback is live, matching the telemetry path.
                    self._events_fired += 1
                    event.callback()
            else:
                fired_before = self._events_fired
                max_depth = len(heap) - self._cancelled_pending
                while heap:
                    entry = heap[0]
                    event = entry[3]
                    if event.cancelled:
                        pop(heap)
                        event._scheduler = None
                        self._cancelled_pending -= 1
                        continue
                    time = entry[0]
                    if time > end_time:
                        break
                    pop(heap)
                    event._scheduler = None
                    clock._now = time
                    self._events_fired += 1
                    event.callback()
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
        while heap and heap[0][3].cancelled:
            _, _, _, event = heapq.heappop(heap)
            event._scheduler = None
            self._cancelled_pending -= 1

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event is queued."""
        count = self._cancelled_pending + 1
        self._cancelled_pending = count
        if (
            count >= self.COMPACT_MIN
            and count > self.pending * self.COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries, in place.

        Heap order is fully determined by the ``(time, priority, seq)``
        key, so re-heapifying the surviving entries preserves the exact
        firing order. The list object must stay the same one:
        :meth:`run_until` holds a local alias to ``self._heap``, and
        compaction can run mid-loop when a callback cancels events.

        The cancelled-pending counter is *recomputed* from the rebuilt
        heap rather than assumed: after a compaction — including one
        over a 100%-cancelled heap, where the surviving active set is
        empty — ``pending_active`` must equal the number of entries
        that will actually fire, with nothing stale left behind.
        """
        survivors = []
        for entry in self._heap:
            event = entry[3]
            if event.cancelled:
                event._scheduler = None
            else:
                survivors.append(entry)
        heapq.heapify(survivors)
        self._heap[:] = survivors
        # Survivors are non-cancelled by construction (no callback can
        # run during the rebuild), so the exact count is zero.
        self._cancelled_pending = 0
