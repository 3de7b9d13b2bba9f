"""Duplex network wiring for an RTC session.

:class:`DuplexNetwork` bundles the forward (media) bottleneck link and a
reverse (feedback) link, and dispatches arriving packets to per-flow
handlers. The reverse link defaults to generous capacity and a short
queue — RTCP feedback is tiny and rarely the bottleneck — but it still
imposes the propagation delay that bounds how fast any sender-side
controller can learn about a drop.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError
from ..simcore.scheduler import Scheduler
from ..traces.bandwidth import BandwidthTrace
from ..units import mbps
from .link import Link
from .loss import LossModel
from .packet import Packet

Handler = Callable[[Packet], None]


class DuplexNetwork:
    """Forward media link + reverse feedback link with flow dispatch."""

    def __init__(
        self,
        scheduler: Scheduler,
        capacity: BandwidthTrace,
        propagation_delay: float,
        queue_bytes: int,
        forward_loss: LossModel | None = None,
        reverse_capacity: BandwidthTrace | None = None,
        reverse_queue_bytes: int = 64_000,
        reverse_loss: LossModel | None = None,
        forward_queue=None,
    ) -> None:
        self._scheduler = scheduler
        self._handlers_forward: dict[str, Handler] = {}
        self._handlers_reverse: dict[str, Handler] = {}
        self._reverse_fault: Callable[[Packet], float | None] | None = None
        self.forward = Link(
            scheduler=scheduler,
            capacity=capacity,
            propagation_delay=propagation_delay,
            queue_bytes=queue_bytes,
            deliver=self._on_forward,
            loss=forward_loss,
            queue=forward_queue,
        )
        self.reverse = Link(
            scheduler=scheduler,
            capacity=reverse_capacity or BandwidthTrace.constant(mbps(100)),
            propagation_delay=propagation_delay,
            queue_bytes=reverse_queue_bytes,
            deliver=self._on_reverse,
            loss=reverse_loss,
        )

    # ------------------------------------------------------------------
    def on_forward(self, flow: str, handler: Handler) -> None:
        """Register the receiver-side handler for a forward flow."""
        if flow in self._handlers_forward:
            raise ConfigError(f"forward handler for {flow!r} already set")
        self._handlers_forward[flow] = handler

    def on_reverse(self, flow: str, handler: Handler) -> None:
        """Register the sender-side handler for a reverse flow."""
        if flow in self._handlers_reverse:
            raise ConfigError(f"reverse handler for {flow!r} already set")
        self._handlers_reverse[flow] = handler

    def send_forward(self, packet: Packet) -> bool:
        """Inject a packet on the media direction."""
        return self.forward.send(packet)

    def set_reverse_fault(
        self, hook: Callable[[Packet], float | None] | None
    ) -> None:
        """Install a fault hook on the feedback direction.

        The hook sees every reverse-path packet before it enters the
        reverse link and returns ``None`` to drop it (feedback
        blackout) or a delay in seconds to hold it back (RTCP delay
        spike; ``0.0`` passes through). Used by
        :class:`~repro.faults.FaultInjector`.
        """
        self._reverse_fault = hook

    def send_reverse(self, packet: Packet) -> bool:
        """Inject a packet on the feedback direction."""
        hook = self._reverse_fault
        if hook is not None:
            verdict = hook(packet)
            if verdict is None:
                return False
            if verdict > 0:
                self._scheduler.call_in(
                    verdict, lambda: self.reverse.send(packet)
                )
                return True
        return self.reverse.send(packet)

    def rtt(self) -> float:
        """Base round-trip propagation (no queueing)."""
        return (
            self.forward.propagation_delay + self.reverse.propagation_delay
        )

    # ------------------------------------------------------------------
    def _on_forward(self, packet: Packet) -> None:
        handler = self._handlers_forward.get(packet.flow)
        if handler is not None:
            handler(packet)

    def _on_reverse(self, packet: Packet) -> None:
        handler = self._handlers_reverse.get(packet.flow)
        if handler is not None:
            handler(packet)
