"""Receiver-side frame assembly, decodability tracking, and PLI.

The :class:`FrameAssembler` reconstructs frames from packets, detects
loss from sequence gaps (the forward path is FIFO, so a gap below the
highest seen sequence number is a confirmed loss), tracks the H.264
reference chain (a lost frame makes every following P-frame undecodable
until the next keyframe), and asks for recovery keyframes via PLI.

Latency is measured here: a frame's end-to-end latency is
``display_time - capture_time``, where display happens when the frame is
complete *and* decodable.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Callable

from ..errors import TransportError
from ..netsim.packet import Packet
from ..telemetry.recorder import NULL_TELEMETRY, Telemetry

#: Fixed decode latency added after the last packet arrives.
DECODE_DELAY = 0.005


@dataclass(slots=True)
class FrameRecord:
    """Receiver-side fate of one video frame.

    Attributes:
        index: frame number.
        capture_time: sender capture timestamp carried in the packets.
        packet_count: packets the frame was split into.
        received_packets: how many arrived.
        complete_time: when the last packet arrived (None if never).
        display_time: when the frame was displayed (None if frozen/lost).
        lost: a sequence gap confirmed at least one packet will not come.
        undecodable: complete but its reference chain was broken.
        frame_type: "I" or "P" (carried in packet payload).
        temporal_layer: 0 (reference) or 1 (droppable enhancement).
    """

    index: int
    capture_time: float
    packet_count: int
    frame_type: str
    temporal_layer: int = 0
    received_packets: int = 0
    positions: set[int] = field(default_factory=set)
    base_seq: int = -1
    complete_time: float | None = None
    display_time: float | None = None
    lost: bool = False
    undecodable: bool = False

    @property
    def end_seq(self) -> int:
        """Highest sequence number the frame occupies."""
        return self.base_seq + self.packet_count - 1

    def covers_seq(self, seq: int) -> bool:
        """Whether ``seq`` belongs to this frame's packet range."""
        return self.base_seq <= seq <= self.end_seq

    @property
    def displayed(self) -> bool:
        """Whether the frame made it to the screen."""
        return self.display_time is not None

    def latency(self) -> float | None:
        """Capture→display latency, or None if not displayed."""
        if self.display_time is None:
            return None
        return self.display_time - self.capture_time


def owner_of(
    frames: dict[int, FrameRecord], order: list[int], seq: int
) -> FrameRecord | None:
    """The frame whose packet range holds ``seq``, if it has a record.

    ``order`` holds the keys of ``frames`` sorted by ``base_seq``.
    Frames own disjoint sequence ranges, so only the last frame
    starting at or below ``seq`` can hold it.
    """
    pos = bisect_right(order, seq, key=lambda index: frames[index].base_seq)
    if pos:
        record = frames[order[pos - 1]]
        if seq <= record.end_seq:
            return record
    return None


class FrameAssembler:
    """Reassembles frames and maintains the decode reference chain."""

    __slots__ = (
        "_playout",
        "_telemetry",
        "_frames",
        "_order",
        "_open",
        "_highest_seq",
        "_chain_intact",
        "_send_pli",
        "_pli_min_interval",
        "_last_pli_time",
        "_received_seqs",
        "_gap_scan_floor",
        "pli_sent",
    )

    def __init__(
        self,
        send_pli: Callable[[], None] | None = None,
        pli_min_interval: float = 0.3,
        playout=None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._playout = playout
        self._telemetry = telemetry or NULL_TELEMETRY
        self._frames: dict[int, FrameRecord] = {}
        # The frame indices sorted by base_seq, for :func:`owner_of`. An
        # encoder stall releases frames out of index order, so that
        # need not be index order.
        self._order: list[int] = []
        # Incomplete, not-yet-lost records only: the per-packet loss scan
        # walks this instead of every frame ever seen.
        self._open: dict[int, FrameRecord] = {}
        self._highest_seq = -1
        self._chain_intact = True
        self._send_pli = send_pli
        self._pli_min_interval = pli_min_interval
        self._last_pli_time = float("-inf")
        self._received_seqs: set[int] = set()
        self._gap_scan_floor = 0
        self.pli_sent = 0

    # ------------------------------------------------------------------
    @property
    def chain_intact(self) -> bool:
        """True while every reference the next P-frame needs is decoded."""
        return self._chain_intact

    def frames(self) -> list[FrameRecord]:
        """All frame records, in frame-index order."""
        return [self._frames[i] for i in sorted(self._frames)]

    def note_seq(self, seq: int, now: float) -> None:
        """Register a non-media sequence number (FEC parity) so gap
        detection doesn't mistake it for a lost frame."""
        self._received_seqs.add(seq)
        if seq > self._highest_seq:
            self._highest_seq = seq
        self._detect_losses(now)

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, now: float) -> FrameRecord | None:
        """Feed one arriving media packet.

        Returns the frame record if this packet *displayed* a frame,
        else None.
        """
        if packet.frame_index < 0:
            raise TransportError("media packet without a frame index")
        seq = packet.seq
        if seq == self._highest_seq + 1 and self._chain_intact:
            # Exactly-in-order packet with an intact chain: when at most
            # this packet's own frame is open, _detect_losses is provably
            # a no-op (the only open frame extends past seq, and the gap
            # scan covers exactly this received seq), so only its
            # scan-floor bookkeeping applies.
            index = packet.frame_index
            open_frames = self._open
            record = self._frames.get(index)
            if record is None:
                if not open_frames:
                    payload = packet.payload
                    frame_type = "P"
                    layer = 0
                    if isinstance(payload, dict):
                        frame_type = payload.get("frame_type", "P")
                        layer = payload.get("temporal_layer", 0)
                    record = FrameRecord(
                        index=index,
                        capture_time=packet.capture_time,
                        packet_count=packet.frame_packet_count,
                        frame_type=frame_type,
                        temporal_layer=layer,
                        base_seq=seq - packet.frame_packet_index,
                    )
                    self._insert(record)
                    open_frames[index] = record
                # else: an older frame is still incomplete — the next
                # packet may confirm its loss; slow path.
            elif len(open_frames) != 1 or index not in open_frames:
                record = None  # out-of-shape stream: slow path
            if record is not None:
                position = packet.frame_packet_index
                if position in record.positions:
                    return None  # duplicate: scalar path is a no-op too
                record.positions.add(position)
                record.received_packets += 1
                self._received_seqs.add(seq)
                self._highest_seq = seq
                self._gap_scan_floor = seq + 1
                if record.received_packets == record.packet_count:
                    record.complete_time = now
                    del open_frames[index]
                    return self._try_display(record, now)
                return None
        record = self._frames.get(packet.frame_index)
        if record is None:
            frame_type = "P"
            layer = 0
            if isinstance(packet.payload, dict):
                frame_type = packet.payload.get("frame_type", "P")
                layer = packet.payload.get("temporal_layer", 0)
            record = FrameRecord(
                index=packet.frame_index,
                capture_time=packet.capture_time,
                packet_count=packet.frame_packet_count,
                frame_type=frame_type,
                temporal_layer=layer,
                base_seq=packet.seq - packet.frame_packet_index,
            )
            self._insert(record)
            self._open[packet.frame_index] = record
        if packet.frame_packet_index in record.positions:
            return None  # duplicate
        record.positions.add(packet.frame_packet_index)
        record.received_packets += 1
        self._received_seqs.add(packet.seq)
        if packet.seq > self._highest_seq:
            self._highest_seq = packet.seq

        self._detect_losses(now)

        if record.received_packets == record.packet_count and not record.lost:
            record.complete_time = now
            self._open.pop(record.index, None)
            return self._try_display(record, now)
        return None

    # ------------------------------------------------------------------
    def _insert(self, record: FrameRecord) -> None:
        """File a new record, keeping ``_order`` sorted by ``base_seq``."""
        frames = self._frames
        frames[record.index] = record
        order = self._order
        if order and record.base_seq < frames[order[-1]].base_seq:
            insort(order, record.index, key=lambda i: frames[i].base_seq)
        else:
            order.append(record.index)

    def _try_display(self, record: FrameRecord, now: float) -> FrameRecord | None:
        if record.frame_type == "I":
            self._chain_intact = True
        if not self._chain_intact:
            record.undecodable = True
            self._request_pli(now)
            return None
        if self._playout is not None:
            record.display_time = (
                self._playout.schedule(record.capture_time, now)
                + DECODE_DELAY
            )
        else:
            record.display_time = now + DECODE_DELAY
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.probe(
                "rtp.playout_delay", now, record.display_time - now
            )
            telemetry.probe(
                "rtp.frame_latency",
                now,
                record.display_time - record.capture_time,
            )
            telemetry.count("rtp.frames_displayed")
        return record

    def _detect_losses(self, now: float) -> None:
        """A frame whose sequence range lies below the highest sequence
        seen, yet is incomplete, has confirmed losses (FIFO path).

        Losing a T1 (non-reference) frame does not break the chain;
        losing a T0 frame — or a sequence belonging to no known frame,
        i.e. a frame lost in its entirety — does.
        """
        highest = self._highest_seq
        newly_lost = None
        for record in self._open.values():
            if highest > record.end_seq:
                record.lost = True
                if newly_lost is None:
                    newly_lost = [record.index]
                else:
                    newly_lost.append(record.index)
                if record.temporal_layer == 0:
                    self._chain_intact = False
                    self._request_pli(now)
        if newly_lost is not None:
            for index in newly_lost:
                del self._open[index]
        # Sequences below the highest that nobody claims: an entire
        # frame vanished, reference status unknown — assume broken.
        for seq in range(self._gap_scan_floor, highest + 1):
            if seq in self._received_seqs:
                continue
            if owner_of(self._frames, self._order, seq) is not None:
                continue
            self._chain_intact = False
            self._request_pli(now)
        self._gap_scan_floor = highest + 1

    def _request_pli(self, now: float) -> None:
        if self._send_pli is None:
            return
        if now - self._last_pli_time < self._pli_min_interval:
            return
        self._last_pli_time = now
        self.pli_sent += 1
        self._send_pli()
