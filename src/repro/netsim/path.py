"""Multi-hop paths.

Most experiments use a single bottleneck, but a :class:`Path` lets tests
and extensions chain several links (e.g., access uplink + core) where the
packet traverses each hop in order. The final hop's delivery callback is
the path's delivery callback.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError
from ..floatsum import left_sum
from ..simcore.scheduler import Scheduler
from .link import Link
from .packet import Packet


class Path:
    """An ordered chain of :class:`~repro.netsim.link.Link` hops."""

    def __init__(
        self,
        scheduler: Scheduler,
        hops: list[dict],
        deliver: Callable[[Packet], None],
    ) -> None:
        """Build a path from hop specs.

        Each spec is a dict with keys ``capacity`` (BandwidthTrace),
        ``propagation_delay`` (s), ``queue_bytes`` (int), and optional
        ``loss`` (LossModel).
        """
        if not hops:
            raise ConfigError("a path needs at least one hop")
        self._links: list[Link] = []
        # Build from the last hop backwards so each hop delivers into the
        # next one.
        next_deliver = deliver
        for spec in reversed(hops):
            link = Link(
                scheduler=scheduler,
                capacity=spec["capacity"],
                propagation_delay=spec["propagation_delay"],
                queue_bytes=spec["queue_bytes"],
                deliver=next_deliver,
                loss=spec.get("loss"),
            )
            self._links.insert(0, link)
            next_deliver = link.send  # type: ignore[assignment]

    @property
    def links(self) -> list[Link]:
        """The hops, first to last."""
        return list(self._links)

    @property
    def first(self) -> Link:
        """Entry link (senders call ``path.send``)."""
        return self._links[0]

    def send(self, packet: Packet) -> bool:
        """Inject a packet at the first hop."""
        return self._links[0].send(packet)

    def total_propagation(self) -> float:
        """Sum of hop propagation delays."""
        return left_sum(link.propagation_delay for link in self._links)

    def bottleneck(self) -> Link:
        """The hop with the lowest *current* capacity."""
        return min(self._links, key=lambda link: link.current_rate())
