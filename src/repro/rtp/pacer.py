"""libwebrtc-style packet pacer.

The pacer smooths each frame's burst of packets onto the wire at a
configured pacing rate (a multiple of the media target bitrate, 2.5× by
default, as in libwebrtc). Two reasons it exists here:

1. realism — bottleneck queueing depends on the sending process;
2. its queue is a *sender-local congestion signal*: when the congestion
   controller's target lags the true capacity, packets pile up in the
   pacer too, and the adaptive controller reads
   :meth:`Pacer.queue_delay` as one of its drop-detection inputs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..errors import ConfigError
from ..netsim.packet import Packet
from ..simcore.scheduler import Scheduler


class Pacer:
    """Leaky-bucket pacer releasing packets at the pacing rate."""

    __slots__ = (
        "_scheduler",
        "_send",
        "_multiplier",
        "_rate_bps",
        "_queue",
        "_queue_bytes",
        "_sending",
        "_release",
        "sent_packets",
        "sent_bytes",
    )

    def __init__(
        self,
        scheduler: Scheduler,
        send: Callable[[Packet], None],
        pacing_rate_bps: float,
        pacing_multiplier: float = 2.5,
    ) -> None:
        if pacing_rate_bps <= 0:
            raise ConfigError("pacing rate must be positive")
        if pacing_multiplier < 1.0:
            raise ConfigError("pacing multiplier must be >= 1")
        self._scheduler = scheduler
        self._send = send
        self._multiplier = pacing_multiplier
        self._rate_bps = pacing_rate_bps * pacing_multiplier
        self._queue: deque[Packet] = deque()
        self._queue_bytes = 0
        self._sending = False
        # Bound once, so scheduling a release allocates no bound method.
        self._release = self._release_next
        self.sent_packets = 0
        self.sent_bytes = 0

    # ------------------------------------------------------------------
    @property
    def pacing_rate_bps(self) -> float:
        """Current wire release rate (already multiplied)."""
        return self._rate_bps

    @property
    def queue_bytes(self) -> int:
        """Bytes waiting in the pacer."""
        return self._queue_bytes

    @property
    def queue_packets(self) -> int:
        """Packets waiting in the pacer."""
        return len(self._queue)

    def queue_delay(self) -> float:
        """Seconds needed to drain the current pacer queue."""
        return self._queue_bytes * 8 / self._rate_bps

    def set_target_rate(self, target_bps: float) -> None:
        """Update pacing from a new media target (multiplier applied)."""
        if target_bps <= 0:
            raise ConfigError("target must be positive")
        self._rate_bps = target_bps * self._multiplier

    # ------------------------------------------------------------------
    def enqueue(self, packets: list[Packet]) -> None:
        """Add packets (one frame's worth, typically) to the pacer."""
        for packet in packets:
            self._queue.append(packet)
            self._queue_bytes += packet.size_bytes
        self._wake()

    def enqueue_front(self, packets: list[Packet]) -> None:
        """Add packets at the *head* of the queue (retransmissions are
        latency-critical and jump the line, as in libwebrtc)."""
        for packet in reversed(packets):
            self._queue.appendleft(packet)
            self._queue_bytes += packet.size_bytes
        self._wake()

    def _wake(self) -> None:
        if not self._sending and self._queue:
            self._sending = True
            self._scheduler.call_in(0.0, self._release)

    def _release_next(self) -> None:
        if not self._queue:
            self._sending = False
            return
        packet = self._queue.popleft()
        size = packet.size_bytes
        self._queue_bytes -= size
        scheduler = self._scheduler
        now = scheduler.clock._now
        packet.send_time = now
        self._send(packet)
        self.sent_packets += 1
        self.sent_bytes += size
        scheduler.call_at(now + size * 8 / self._rate_bps, self._release)
