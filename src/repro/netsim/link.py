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
        self._busy = False
        self.stats = LinkStats()

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
        return self.queue.backlog_bytes

    def estimated_queue_delay(self) -> float:
        """Backlog divided by the current rate — the standing latency a
        new packet would see (ignoring future rate changes). During a
        zero-capacity outage the estimate integrates the trace to the
        drain time instead (``inf`` if capacity never returns)."""
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
        if not self.queue.offer(packet, self._clock._now):
            return False
        if not self._busy:
            self._start_service()
        return True

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
