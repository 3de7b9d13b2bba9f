"""Batched event kernel: heap + append-only event lanes.

The serial kernel pays a heap push, an :class:`Event` allocation, and a
heap pop for *every* packet service, even though between control events
(feedback, rate decisions, fault transitions) the bottleneck drain is a
pure deterministic function of state already known at enqueue time.

:class:`BatchedScheduler` exploits that: components whose future events
are (a) computable in advance and (b) emitted in non-decreasing time
order register a :class:`Timeline` *lane* — a flat append-only array of
``(time, payload)`` pairs consumed by a cursor. Appending to a lane is a
list append; firing the head is a cursor increment. No Event object, no
heap sift, no per-event closure. The run loop merges the binary heap
with the lane heads (a linear scan over a handful of floats), firing
whichever is earliest.

Determinism contract (gated by ``tools/check_golden.py --compare-kernels``
and the kernel-equivalence integration tests):

* lane entries fire at exactly the float times the serial kernel would
  have computed — producers must derive them with the *same arithmetic
  expressions* as their serial code paths;
* on an exact time tie between the heap and a lane, the heap fires
  first. This matches the serial order for the lane patterns used in
  this repo (a lane entry at time ``t`` is always appended *at* ``t`` by
  the currently-running callback, i.e. it would have carried the largest
  sequence number among events at ``t``);
* ``events_fired`` counts lane firings too, and lane owners that batch
  further work (the link's drain plan) report their implied firings via
  :attr:`Scheduler.events_fired` bookkeeping inside their sync hooks, so
  end-of-run event counts are identical across kernels.

Lane owners with lazily-applied state (the link drain plan) register a
*finalizer*: ``run_until(end)`` invokes every finalizer with ``end``
after the merge loop, so statistics and queue state observed after a run
slice are exact even if no event forced a sync.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..errors import SchedulingError
from .scheduler import Scheduler, _INF

#: Fired prefixes of a lane are trimmed once the cursor passes this many
#: entries, keeping lane memory proportional to the pending window.
_TRIM_THRESHOLD = 4096


class Timeline:
    """An append-only, time-sorted event lane.

    Producers append ``(time, payload)`` with non-decreasing times; the
    owning :class:`BatchedScheduler` fires heads in global time order by
    merging all lanes with its heap. ``fire(payload)`` is the single
    callback for every entry in the lane.
    """

    __slots__ = ("times", "payloads", "cursor", "fire", "label", "_scheduler")

    def __init__(
        self,
        scheduler: "BatchedScheduler",
        fire: Callable[[object], None],
        label: str = "",
    ) -> None:
        self.times: list[float] = []
        self.payloads: list[object] = []
        self.cursor = 0
        self.fire = fire
        self.label = label
        self._scheduler = scheduler

    @property
    def pending(self) -> int:
        """Entries appended but not yet fired."""
        return len(self.times) - self.cursor

    def head_time(self) -> float:
        """Time of the next entry, or ``inf`` when the lane is drained."""
        cursor = self.cursor
        times = self.times
        return times[cursor] if cursor < len(times) else _INF

    def append(self, time: float, payload: object = None) -> None:
        """Append an entry; ``time`` must not precede the pending tail
        or the current clock (lanes cannot reorder or fire in the past).
        """
        times = self.times
        cursor = self.cursor
        if cursor < len(times):
            if time < times[-1]:
                raise SchedulingError(
                    f"lane {self.label!r}: append at {time!r} precedes "
                    f"pending tail {times[-1]!r}"
                )
        elif time < self._scheduler.clock._now:
            raise SchedulingError(
                f"lane {self.label!r}: append at {time!r} precedes "
                f"now={self._scheduler.clock._now!r}"
            )
        elif cursor >= _TRIM_THRESHOLD:
            # Lane fully drained and the fired prefix has grown long:
            # reclaim it before starting the next stretch.
            del times[:cursor]
            del self.payloads[:cursor]
            self.cursor = 0
        times.append(time)
        self.payloads.append(payload)


class BatchedScheduler(Scheduler):
    """Heap scheduler extended with event lanes and sync finalizers.

    Control events (timers, feedback, faults, retransmissions) keep the
    exact heap semantics of the base class; high-volume precomputable
    chains (link arrivals, pacer releases) ride lanes. Components that
    defer bookkeeping until observation register finalizers so state is
    exact at every ``run_until`` boundary.
    """

    __slots__ = ("_lanes", "_finalizers", "_lane_fired")

    supports_batching = True

    def __init__(self, start: float = 0.0, telemetry=None) -> None:
        super().__init__(start, telemetry)
        self._lanes: list[Timeline] = []
        self._finalizers: list[Callable[[float], None]] = []
        self._lane_fired = 0

    # ------------------------------------------------------------------
    @property
    def lane_events_fired(self) -> int:
        """Events fired via lanes (subset of :attr:`events_fired`)."""
        return self._lane_fired

    @property
    def lane_pending(self) -> int:
        """Entries waiting across all lanes (diagnostics).

        Note: lanes hold *precomputed* futures (e.g. one arrival per
        queued link packet), so this over-counts relative to the heap
        kernel's ``pending_active``, which holds at most one in-flight
        service event per link at a time.
        """
        return sum(lane.pending for lane in self._lanes)

    def new_lane(
        self, fire: Callable[[object], None], label: str = ""
    ) -> Timeline:
        """Register and return a new event lane (see :class:`Timeline`)."""
        lane = Timeline(self, fire, label)
        self._lanes.append(lane)
        return lane

    def add_finalizer(self, finalizer: Callable[[float], None]) -> None:
        """Register a hook invoked with the horizon time after every
        ``run_until`` slice (and with the final clock after ``run``)."""
        self._finalizers.append(finalizer)

    # ------------------------------------------------------------------
    def _sweep_heap_head(self) -> float:
        """Drop cancelled heap heads; return the head time (inf if empty)."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            event = heap[0][3]
            if not event.cancelled:
                return heap[0][0]
            pop(heap)
            event._scheduler = None
            self._cancelled_pending -= 1
        return _INF

    def _min_lane(self) -> tuple[float, Timeline | None]:
        best_time = _INF
        best = None
        for lane in self._lanes:
            cursor = lane.cursor
            times = lane.times
            if cursor < len(times):
                time = times[cursor]
                if time < best_time:
                    best_time = time
                    best = lane
        return best_time, best

    def peek_time(self) -> float | None:
        """Time of the next event across heap and lanes (``None`` if idle)."""
        t_heap = self._sweep_heap_head()
        t_lane, _ = self._min_lane()
        head = t_heap if t_heap <= t_lane else t_lane
        return None if head == _INF else head

    def peek_callback(self) -> Callable[[], None] | None:
        """Callback of the next event without firing it (``None`` if
        idle). For a lane head this is the lane's ``fire``; heap wins
        exact ties, mirroring :meth:`step`. Diagnostic — see
        :meth:`Scheduler.peek_callback`."""
        t_heap = self._sweep_heap_head()
        t_lane, lane = self._min_lane()
        if t_heap <= t_lane:
            if not self._heap:
                return None
            return self._heap[0][3].callback
        return lane.fire

    def step(self) -> bool:
        """Fire the single next event (heap-first on exact time ties)."""
        t_heap = self._sweep_heap_head()
        t_lane, lane = self._min_lane()
        if t_heap <= t_lane:
            if not self._heap:
                return False
            _, _, _, event = heapq.heappop(self._heap)
            event._scheduler = None
            self.clock.advance_to(t_heap)
            self._events_fired += 1
            event.callback()
        else:
            index = lane.cursor
            lane.cursor = index + 1
            payload = lane.payloads[index]
            lane.payloads[index] = None
            self.clock.advance_to(t_lane)
            self._events_fired += 1
            self._lane_fired += 1
            lane.fire(payload)
        return True

    def run_until(self, end_time: float) -> None:
        """Merge-run heap and lanes up to ``end_time``, then finalize."""
        if self._running:
            raise SchedulingError("run_until called re-entrantly")
        self._running = True
        heap = self._heap
        lanes = self._lanes
        clock = self.clock
        pop = heapq.heappop
        telemetry = self._telemetry
        track_depth = telemetry.enabled
        fired_before = self._events_fired
        lane_fired_before = self._lane_fired
        max_depth = len(heap) - self._cancelled_pending
        try:
            while True:
                # Inline cancelled-head sweep (hot path).
                while heap:
                    entry = heap[0]
                    event = entry[3]
                    if not event.cancelled:
                        break
                    pop(heap)
                    event._scheduler = None
                    self._cancelled_pending -= 1
                t_heap = heap[0][0] if heap else _INF
                t_lane = _INF
                best = None
                for lane in lanes:
                    cursor = lane.cursor
                    times = lane.times
                    if cursor < len(times):
                        time = times[cursor]
                        if time < t_lane:
                            t_lane = time
                            best = lane
                if t_heap <= t_lane:
                    if t_heap > end_time or not heap:
                        break
                    entry = heap[0]
                    pop(heap)
                    event = entry[3]
                    event._scheduler = None
                    clock._now = t_heap
                    self._events_fired += 1
                    event.callback()
                else:
                    if t_lane > end_time:
                        break
                    index = best.cursor
                    best.cursor = index + 1
                    payload = best.payloads[index]
                    best.payloads[index] = None
                    clock._now = t_lane
                    self._events_fired += 1
                    self._lane_fired += 1
                    best.fire(payload)
                if track_depth:
                    depth = len(heap) - self._cancelled_pending
                    if depth > max_depth:
                        max_depth = depth
            for finalizer in self._finalizers:
                finalizer(end_time)
            if track_depth:
                telemetry.count(
                    "scheduler.events", self._events_fired - fired_before
                )
                telemetry.count(
                    "scheduler.lane_events",
                    self._lane_fired - lane_fired_before,
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
        """Run until heap and lanes are exhausted, then finalize with
        ``inf``: each owner applies the deferred work the serial kernel
        would still fire as events, advancing the clock to the last of
        it (never-completing work — e.g. packets stuck behind a dead
        link — stays pending, exactly as in the serial kernel)."""
        while self.step():
            pass
        for finalizer in self._finalizers:
            finalizer(_INF)
