"""Packet objects moving through the simulated network.

A :class:`Packet` is deliberately transport-agnostic: the RTP layer fills
in media-specific fields (frame id, position within the frame) while the
network layer only reads ``size_bytes``. Timestamps are stamped by the
components that observe the packet, mirroring where real measurements can
be taken (send time at the sender, arrival time at the receiver).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One network packet.

    Attributes:
        size_bytes: wire size including RTP/UDP/IP overhead.
        flow: label separating media, feedback, and cross-traffic flows.
        seq: transport sequence number (assigned by the packetizer).
        frame_index: index of the video frame carried (media flows only).
        frame_packet_index: position of this packet within its frame.
        frame_packet_count: number of packets the frame was split into.
        capture_time: when the carried frame was captured (media only).
        send_time: when the packet entered the network (pacer output).
        arrival_time: when the packet left the network at the receiver.
        packet_id: globally unique id for bookkeeping.
        payload: free-form extra data (tests, cross traffic markers).
        retransmission: True for NACK-triggered re-sends (kept out of
            the TWCC send history — real stacks use separate RTX seqs).
    """

    size_bytes: int
    flow: str = "media"
    seq: int = -1
    frame_index: int = -1
    frame_packet_index: int = 0
    frame_packet_count: int = 1
    capture_time: float = -1.0
    send_time: float = -1.0
    arrival_time: float = -1.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    payload: Any = None
    retransmission: bool = False

    def __copy__(self) -> Packet:
        """Shallow copy, field by field.

        Same result as the generic ``copy.copy`` (``payload`` shared,
        ``packet_id`` kept, no new id drawn) without its
        ``__reduce_ex__`` round trip, which dominated the per-packet
        cost of the NACK store and the SFU forwarding paths.
        """
        clone = object.__new__(Packet)
        clone.size_bytes = self.size_bytes
        clone.flow = self.flow
        clone.seq = self.seq
        clone.frame_index = self.frame_index
        clone.frame_packet_index = self.frame_packet_index
        clone.frame_packet_count = self.frame_packet_count
        clone.capture_time = self.capture_time
        clone.send_time = self.send_time
        clone.arrival_time = self.arrival_time
        clone.packet_id = self.packet_id
        clone.payload = self.payload
        clone.retransmission = self.retransmission
        return clone

    @property
    def is_frame_final(self) -> bool:
        """True if this is the last packet of its frame."""
        return self.frame_packet_index == self.frame_packet_count - 1

    def network_delay(self) -> float:
        """One-way delay observed by this packet (send → arrival).

        Raises:
            ValueError: if the packet has not completed its journey.
        """
        if self.send_time < 0 or self.arrival_time < 0:
            raise ValueError("packet has not been sent and received yet")
        return self.arrival_time - self.send_time
