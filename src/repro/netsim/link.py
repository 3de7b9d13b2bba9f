"""Variable-capacity bottleneck link.

The link is the instrument that turns "encoder sent more than the network
can carry" into latency: packets wait in a drop-tail queue and are
serialized at the capacity given by a :class:`~repro.traces.BandwidthTrace`.
Capacity changes take effect *mid-packet* — the transmission finish time
is computed by integrating the trace — so a sudden drop immediately slows
the packet in service, exactly like a real token-bucket-shaped bottleneck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigError
from ..simcore.scheduler import Scheduler
from ..traces.bandwidth import BandwidthTrace
from .loss import LossModel, NoLoss
from .packet import Packet
from .queue import DropTailQueue

_INF = math.inf

#: Once this many drained entries pile up at the front of the plan list
#: the consumed prefix is deleted.
_PLAN_COMPACT = 1024


def service_end_time(
    trace: BandwidthTrace, start: float, bits: float
) -> float:
    """When a transmission of ``bits`` starting at ``start`` finishes,
    integrating the (piecewise-constant) capacity trace.

    Zero-rate segments (full outages) serve nothing: the in-service
    packet stalls until the next breakpoint. If the trace ends on a
    zero rate with bits still unserved, the transmission never
    completes and ``inf`` is returned.
    """
    if bits <= 0:
        return start
    t = start
    remaining = bits
    while True:
        rate = trace.rate_at(t)
        boundary = trace.next_change_after(t)
        if boundary is None:
            if rate <= 0:
                return math.inf
            return t + remaining / rate
        if rate > 0:
            span = boundary - t
            capacity_bits = span * rate
            if capacity_bits >= remaining:
                return t + remaining / rate
            remaining -= capacity_bits
        t = boundary


@dataclass(slots=True)
class LinkStats:
    """Aggregate counters the link maintains."""

    delivered_packets: int = 0
    delivered_bytes: int = 0
    channel_lost_packets: int = 0
    per_flow_delivered: dict[str, int] = field(default_factory=dict)


class Link:
    """One-way bottleneck: queue → serializer(capacity trace) → delay.

    Args:
        scheduler: the simulation scheduler.
        capacity: capacity trace in bits/second.
        propagation_delay: one-way propagation in seconds.
        queue_bytes: drop-tail queue limit.
        deliver: callback invoked with each arriving packet (arrival time
            already stamped).
        loss: optional channel loss model applied after serialization.
        queue: custom queue instance (e.g.
            :class:`~repro.netsim.aqm.CoDelQueue`); defaults to a
            drop-tail queue of ``queue_bytes``.
    """

    __slots__ = (
        "_scheduler",
        "_clock",
        "_capacity",
        "_propagation",
        "queue",
        "_deliver",
        "_loss",
        "_busy",
        "stats",
        "_batched",
        "_no_loss",
        "_plan",
        "_plan_head",
        "_plan_tail",
        "_lane",
        "_seg_lo",
        "_seg_hi",
        "_seg_rate",
        "batched_services",
    )

    def __init__(
        self,
        scheduler: Scheduler,
        capacity: BandwidthTrace,
        propagation_delay: float,
        queue_bytes: int,
        deliver: Callable[[Packet], None],
        loss: LossModel | None = None,
        queue=None,
    ) -> None:
        if propagation_delay < 0:
            raise ConfigError(
                f"propagation delay must be >= 0, got {propagation_delay!r}"
            )
        self._scheduler = scheduler
        self._clock = scheduler.clock
        self._capacity = capacity
        self._propagation = propagation_delay
        self.queue = queue if queue is not None else DropTailQueue(queue_bytes)
        self._deliver = deliver
        self._loss = loss or NoLoss()
        # The loss model is fixed at construction (faults are applied
        # build-time, wrapping before the Link exists), so a lossless
        # channel can skip the per-packet ``should_drop_at`` call: the
        # ``NoLoss`` verdict is a constant False and draws no RNG.
        self._no_loss = type(self._loss) is NoLoss
        self._busy = False
        self.stats = LinkStats()
        #: Count of packet services completed via the batched drain plan
        #: (diagnostics; compare against ``stats`` totals).
        self.batched_services = 0
        # Batched kernel integration: a drop-tail link's entire service
        # schedule is decidable at offer time (the capacity trace is
        # immutable, the queue is FIFO, and drops happen only at offer),
        # so instead of one finish + one arrival event per packet the
        # link keeps a rolling drain *plan* and posts only arrivals to a
        # scheduler lane. Queue pops, loss bookkeeping, and the implied
        # finish-event counts are applied lazily by :meth:`_sync`
        # whenever state is observed. AQM queues (CoDel) decide drops at
        # dequeue from future-dependent state, so they keep the exact
        # per-event path.
        self._batched = bool(
            getattr(scheduler, "supports_batching", False)
            and type(self.queue) is DropTailQueue
        )
        self._plan: list | None = None
        self._plan_head = 0
        self._plan_tail = 0.0
        self._lane = None
        self._seg_lo = _INF  # invalid cache: forces the first slow path
        self._seg_hi = _INF
        self._seg_rate = 0.0
        if self._batched:
            self._plan = []
            self._lane = scheduler.new_lane(self._lane_arrive, "link")
            scheduler.add_finalizer(self._finalize)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> BandwidthTrace:
        """The capacity trace this link enforces."""
        return self._capacity

    @property
    def propagation_delay(self) -> float:
        """One-way propagation delay in seconds."""
        return self._propagation

    def current_rate(self) -> float:
        """Capacity right now, in bits/second."""
        return self._capacity.rate_at(self._clock._now)

    def backlog_bytes(self) -> int:
        """Bytes waiting in the queue (excludes the packet in service)."""
        if self._batched:
            self._sync(self._clock._now)
        return self.queue.backlog_bytes

    def estimated_queue_delay(self) -> float:
        """Backlog divided by the current rate — the standing latency a
        new packet would see (ignoring future rate changes). During a
        zero-capacity outage the estimate integrates the trace to the
        drain time instead (``inf`` if capacity never returns)."""
        if self._batched:
            self._sync(self._clock._now)
        rate = self.current_rate()
        if rate <= 0:
            now = self._clock._now
            return service_end_time(
                self._capacity, now, self.queue.backlog_bytes * 8
            ) - now
        return self.queue.backlog_bytes * 8 / rate

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; returns False if dropped at the
        queue."""
        if self._batched:
            return self._send_batched(packet)
        if not self.queue.offer(packet, self._clock._now):
            return False
        if not self._busy:
            self._start_service()
        return True

    # ------------------------------------------------------------------
    # Batched path: plan at offer, sync at observation
    # ------------------------------------------------------------------
    def _send_batched(self, packet: Packet) -> bool:
        now = self._clock._now
        self._sync(now)
        if not self.queue.offer(packet, now):
            return False
        plan = self._plan
        # Service begins when the previous packet finishes — or right
        # now on an idle link (the serial path pops it immediately).
        start = self._plan_tail if len(plan) > self._plan_head else now
        if start == _INF:
            # A packet ahead never finishes (dead trace tail): nothing
            # behind it serves either. It stays queued, exactly like
            # the serial kernel's permanently-busy link.
            finish = _INF
        else:
            finish = self._service_end_cached(
                start, packet.size_bytes * 8
            )
        self._plan_tail = finish
        lost = False
        if finish != _INF:
            # Same per-stream draw order as the serial kernel: one draw
            # sequence in FIFO packet order, evaluated at the exact
            # serialization-finish time serial would have used.
            if not self._no_loss:
                lost = self._loss.should_drop_at(packet, finish)
            if not lost:
                self._lane.append(finish + self._propagation, packet)
        plan.append([start, finish, packet, lost, False])
        return True

    def _service_end_cached(self, start: float, bits: float) -> float:
        """``service_end_time`` with a current-segment fast path.

        The fast path evaluates the *identical* float expressions the
        generic trace walk would (same guard, same ``start + bits /
        rate``), so results are bit-equal; it only skips the two bisects
        when consecutive services stay inside one constant-rate segment
        (the overwhelmingly common case).
        """
        hi = self._seg_hi
        if self._seg_lo <= start < hi:
            rate = self._seg_rate
            if rate > 0.0:
                if hi == _INF:
                    return start + bits / rate
                if (hi - start) * rate >= bits:
                    return start + bits / rate
        finish = service_end_time(self._capacity, start, bits)
        if finish != _INF:
            self._seg_lo, self._seg_hi, self._seg_rate = (
                self._capacity.segment_at(finish)
            )
        return finish

    def _sync(self, now: float) -> None:
        """Apply the drain plan up to ``now``.

        Replays, in order, exactly what the serial kernel's service
        events would have done by ``now``: pop each packet from the
        queue at its service-start time, and at its finish time count
        one fired event (parity with the serial finish event) plus any
        channel-loss stat. Arrival effects are *not* applied here — they
        fire as lane events at their precise times.
        """
        plan = self._plan
        head = self._plan_head
        n = len(plan)
        if head >= n:
            return
        queue = self.queue
        fired = 0
        while head < n:
            entry = plan[head]
            if not entry[4]:
                if entry[0] > now:
                    break
                queue.pop(entry[0])
                entry[4] = True
            if entry[1] > now:
                break
            fired += 1
            if entry[3]:
                self.stats.channel_lost_packets += 1
            head += 1
        if fired:
            self.batched_services += fired
            self._scheduler._events_fired += fired
        if head >= _PLAN_COMPACT:
            del plan[:head]
            head = 0
        self._plan_head = head

    def _finalize(self, end: float) -> None:
        """Scheduler finalizer: apply the drain plan through ``end``.

        ``end`` is ``inf`` after :meth:`BatchedScheduler.run`, which
        stops once heap and lanes are empty. The serial kernel would
        still fire the finish events of trailing channel-lost packets,
        so the plan is applied through its last finite finish and the
        clock moves there; services that never finish stay pending.
        """
        if end == _INF:
            end = self._clock._now
            plan = self._plan
            for index in range(len(plan) - 1, self._plan_head - 1, -1):
                finish = plan[index][1]
                if finish != _INF:
                    if finish > end:
                        end = finish
                        self._clock.advance_to(end)
                    break
        self._sync(end)

    def _lane_arrive(self, packet: Packet) -> None:
        now = self._clock._now
        self._sync(now)
        packet.arrival_time = now
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        flow_count = stats.per_flow_delivered
        flow_count[packet.flow] = flow_count.get(packet.flow, 0) + 1
        self._deliver(packet)

    def _start_service(self) -> None:
        now = self._clock._now
        packet = self.queue.pop(now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        finish = service_end_time(
            self._capacity, now, packet.size_bytes * 8
        )
        if finish == math.inf:
            # Capacity is zero for the rest of the trace: the packet in
            # service (and everything queued behind it) never completes.
            # Leaving the link busy with no finish event models a dead
            # link; the queue keeps absorbing offers until it overflows.
            return
        self._scheduler.call_at(finish, lambda: self._finish_service(packet))

    def _finish_service(self, packet: Packet) -> None:
        arrival = self._clock._now + self._propagation
        if self._loss.should_drop(packet):
            self.stats.channel_lost_packets += 1
        else:
            self._scheduler.call_at(
                arrival, lambda: self._arrive(packet)
            )
        self._start_service()

    def _arrive(self, packet: Packet) -> None:
        packet.arrival_time = self._clock._now
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        flow_count = stats.per_flow_delivered
        flow_count[packet.flow] = flow_count.get(packet.flow, 0) + 1
        self._deliver(packet)
