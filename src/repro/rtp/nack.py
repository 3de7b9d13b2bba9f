"""NACK-based retransmission (RFC 4585 generic NACK, functionally).

With NACK enabled the receiver does not give up on a sequence gap
immediately: it asks the sender to retransmit, holds back the display
of later frames until the gap is resolved (a real jitter buffer's
behaviour), and only declares the loss — breaking the reference chain
and requesting a PLI keyframe — after the retries are exhausted.

Sender side, :class:`RetransmissionBuffer` keeps recently sent packets
so NACKed sequences can be re-paced (at the head of the pacer queue).

The trade-off this models, measurable in the benchmarks: NACK converts
freezes into *latency* (a recovered frame displays one extra RTT late),
while PLI converts them into *quality* loss (a recovery keyframe costs
bits). Which is better depends on the loss pattern — exactly why real
RTC stacks implement both.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError, TransportError
from ..netsim.packet import Packet
from ..telemetry.recorder import NULL_TELEMETRY, Telemetry
from .jitterbuffer import DECODE_DELAY, FrameRecord, file_by_seq, owner_of


@dataclass(frozen=True)
class NackConfig:
    """Retransmission tuning.

    Attributes:
        reorder_grace: how long a gap may stand before the first NACK
            (absorbs reordering; our links are FIFO so this can be small).
        retry_interval: spacing between retries for the same sequence
            (≈ RTT + jitter-buffer slack).
        max_retries: NACKs sent per missing sequence before giving up.
        buffer_age: how long the sender keeps packets for retransmission.
    """

    reorder_grace: float = 0.01
    retry_interval: float = 0.08
    max_retries: int = 3
    buffer_age: float = 1.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on bad values."""
        if self.reorder_grace < 0 or self.retry_interval <= 0:
            raise ConfigError("NACK timings must be positive")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if self.buffer_age <= 0:
            raise ConfigError("buffer_age must be positive")


@dataclass(slots=True)
class _MissingSeq:
    first_seen: float
    nacks_sent: int = 0
    next_nack_at: float = 0.0


class RetransmissionBuffer:
    """Sender-side store of recently sent packets, by sequence."""

    __slots__ = ("_max_age", "_packets", "retransmitted")

    def __init__(self, max_age: float = 1.0) -> None:
        if max_age <= 0:
            raise ConfigError("max_age must be positive")
        self._max_age = max_age
        self._packets: dict[int, tuple[float, Packet]] = {}
        self.retransmitted = 0

    def store(self, packet: Packet, now: float) -> None:
        """Remember a sent packet (a private copy).

        Store times never decrease, so the packets stay in store order:
        a re-stored sequence is removed first and goes to the back.
        """
        packets = self._packets
        packets.pop(packet.seq, None)
        packets[packet.seq] = (now, copy.copy(packet))
        self._evict(now)

    def fetch(self, seqs: list[int], now: float) -> list[Packet]:
        """Copies of the requested packets still in the buffer."""
        self._evict(now)
        out = []
        for seq in seqs:
            entry = self._packets.get(seq)
            if entry is None:
                continue
            clone = copy.copy(entry[1])
            clone.arrival_time = -1.0
            clone.retransmission = True
            out.append(clone)
        self.retransmitted += len(out)
        return out

    def __len__(self) -> int:
        return len(self._packets)

    def _evict(self, now: float) -> None:
        # Stale packets are always a prefix of store order (see store()).
        packets = self._packets
        horizon = now - self._max_age
        while packets:
            seq = next(iter(packets))
            if packets[seq][0] >= horizon:
                break
            del packets[seq]


class NackFrameAssembler:
    """Frame reassembly with retransmission-aware loss handling.

    Differences from the plain :class:`FrameAssembler`:

    * a sequence gap is *suspect*, not lost — NACKs go out via
      ``send_nack`` and later frames wait behind a display barrier;
    * only after ``max_retries`` unanswered NACKs is the gap declared
      lost, breaking the chain and triggering PLI.
    """

    __slots__ = (
        "_playout",
        "_telemetry",
        "_config",
        "_send_nack",
        "_send_pli",
        "_pli_min_interval",
        "_last_pli_time",
        "_frames",
        "_order",
        "_by_seq",
        "_scan_start",
        "_received_seqs",
        "_missing",
        "_lost_seqs",
        "_highest_seq",
        "_chain_intact",
        "_last_displayed_index",
        "pli_sent",
        "nacks_sent",
        "recovered_seqs",
        "stale_frames",
    )

    def __init__(
        self,
        send_nack: Callable[[list[int]], None],
        send_pli: Callable[[], None] | None = None,
        config: NackConfig | None = None,
        pli_min_interval: float = 0.3,
        playout=None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._playout = playout
        self._telemetry = telemetry or NULL_TELEMETRY
        self._config = config or NackConfig()
        self._config.validate()
        self._send_nack = send_nack
        self._send_pli = send_pli
        self._pli_min_interval = pli_min_interval
        self._last_pli_time = float("-inf")
        self._frames: dict[int, FrameRecord] = {}
        # Frame indices in sorted order plus a scan floor: the display
        # sweep resumes after the settled prefix (displayed, discarded,
        # or lost frames never change state) instead of re-sorting and
        # re-walking every frame on every packet.
        self._order: list[int] = []
        self._scan_start = 0
        # The same indices sorted by base_seq, for :func:`owner_of`.
        self._by_seq: list[int] = []
        self._received_seqs: set[int] = set()
        # Unresolved gaps only; a gap leaves on arrival or when it is
        # declared lost, so per-packet work never rescans old losses.
        self._missing: dict[int, _MissingSeq] = {}
        self._lost_seqs: set[int] = set()
        self._highest_seq = -1
        self._chain_intact = True
        self._last_displayed_index = -1
        self.pli_sent = 0
        self.nacks_sent = 0
        self.recovered_seqs = 0
        self.stale_frames = 0

    # ------------------------------------------------------------------
    @property
    def chain_intact(self) -> bool:
        """Whether the next P-frame's references are all decoded."""
        return self._chain_intact

    def frames(self) -> list[FrameRecord]:
        """All frame records in index order."""
        return [self._frames[i] for i in sorted(self._frames)]

    def missing_count(self) -> int:
        """Unresolved sequence gaps right now."""
        return len(self._missing)

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, now: float) -> list[FrameRecord]:
        """Feed one arriving packet; returns frames displayed *now*."""
        if packet.frame_index < 0:
            raise TransportError("media packet without a frame index")
        if packet.seq in self._received_seqs:
            return []  # duplicate (original + retransmission both landed)
        self._received_seqs.add(packet.seq)

        self._resolve(packet.seq)
        if packet.seq > self._highest_seq:
            for gap_seq in range(self._highest_seq + 1, packet.seq):
                if gap_seq not in self._received_seqs:
                    self._missing[gap_seq] = _MissingSeq(
                        first_seen=now,
                        next_nack_at=now + self._config.reorder_grace,
                    )
            self._highest_seq = packet.seq

        record = self._record_for(packet)
        if packet.frame_packet_index not in record.positions:
            record.positions.add(packet.frame_packet_index)
            record.received_packets += 1
        if (
            record.received_packets == record.packet_count
            and record.complete_time is None
        ):
            record.complete_time = now
        return self._advance_display(now)

    def note_seq(self, seq: int, now: float) -> None:
        """Register a non-media sequence number (FEC parity): it fills
        its slot in the sequence space without carrying a frame."""
        if seq in self._received_seqs:
            return
        self._received_seqs.add(seq)
        self._resolve(seq)
        if seq > self._highest_seq:
            for gap_seq in range(self._highest_seq + 1, seq):
                if gap_seq not in self._received_seqs:
                    self._missing[gap_seq] = _MissingSeq(
                        first_seen=now,
                        next_nack_at=now + self._config.reorder_grace,
                    )
            self._highest_seq = seq
        self._advance_display(now)

    def poll(self, now: float) -> list[int]:
        """Periodic maintenance: returns seqs to NACK; finalizes losses
        and may release display-blocked frames."""
        to_nack: list[int] = []
        newly_lost: list[int] = []
        for seq, missing in self._missing.items():
            if missing.nacks_sent >= self._config.max_retries:
                if now >= missing.next_nack_at:
                    newly_lost.append(seq)
                continue
            if now >= missing.next_nack_at:
                to_nack.append(seq)
                missing.nacks_sent += 1
                missing.next_nack_at = now + self._config.retry_interval
        for seq in newly_lost:
            del self._missing[seq]
            self._lost_seqs.add(seq)
        if to_nack:
            self.nacks_sent += len(to_nack)
            self._telemetry.count("rtp.nacks_sent", len(to_nack))
            self._send_nack(sorted(to_nack))
        if newly_lost:
            self._on_losses_confirmed(now, newly_lost)
        displayed = self._advance_display(now)
        # poll() callers only need the NACK list; displayed frames are
        # already recorded on their FrameRecord.
        del displayed
        return sorted(to_nack)

    # ------------------------------------------------------------------
    def _resolve(self, seq: int) -> None:
        """A sequence number arrived: close its gap or forget its loss.

        A gap closed before it was declared lost counts as recovered.
        """
        if seq in self._missing:
            self.recovered_seqs += 1
            del self._missing[seq]
        else:
            self._lost_seqs.discard(seq)

    def _record_for(self, packet: Packet) -> FrameRecord:
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
            file_by_seq(self._frames, self._by_seq, record)
            order = self._order
            index = packet.frame_index
            if not order or index > order[-1]:
                order.append(index)
            else:
                pos = bisect_left(order, index)
                order.insert(pos, index)
                if pos < self._scan_start:
                    # A late retransmission resurrected a frame below the
                    # scan floor; rewind so the sweep visits (and
                    # discards) it.
                    self._scan_start = pos
        return record

    def _display_barrier(self) -> int:
        """Lowest sequence that is still unresolved (missing and not yet
        declared lost); frames entirely below it may display."""
        if not self._missing:
            return self._highest_seq + 1
        return min(self._missing)

    def _advance_display(self, now: float) -> list[FrameRecord]:
        frames = self._frames
        order = self._order
        n = len(order)
        i = self._scan_start
        # Advance the floor past settled records before sweeping.
        while i < n:
            record = frames[order[i]]
            if (
                record.display_time is None
                and not record.undecodable
                and not record.lost
            ):
                break
            i += 1
        self._scan_start = i
        barrier = self._display_barrier()
        displayed: list[FrameRecord] = []
        while i < n:
            index = order[i]
            i += 1
            record = frames[index]
            if record.display_time is not None or record.undecodable:
                continue
            if record.lost:
                continue
            if index < self._last_displayed_index:
                # A very late retransmission resurrected a frame the
                # renderer has already moved past: discard it, as a
                # real jitter buffer would.
                record.undecodable = True
                self.stale_frames += 1
                continue
            if record.complete_time is None:
                # An incomplete frame below the barrier can never
                # complete once its gaps are declared lost.
                if self._frame_has_lost_seq(record):
                    record.lost = True
                continue
            end_seq = record.base_seq + record.packet_count - 1
            if end_seq >= barrier:
                break  # this and all later frames wait
            if record.frame_type == "I":
                self._chain_intact = True
            if not self._chain_intact:
                record.undecodable = True
                self._request_pli(now)
                continue
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
            self._last_displayed_index = record.index
            displayed.append(record)
        return displayed

    def _frame_has_lost_seq(self, record: FrameRecord) -> bool:
        end_seq = record.base_seq + record.packet_count - 1
        return any(
            seq in self._lost_seqs
            for seq in range(record.base_seq, end_seq + 1)
        )

    def _on_losses_confirmed(
        self, now: float, newly_lost: list[int]
    ) -> None:
        breaks_chain = False
        for seq in newly_lost:
            owner = owner_of(self._frames, self._by_seq, seq)
            # Losing a non-reference (T1) frame is recoverable without
            # a keyframe; anything else breaks the chain.
            if owner is None or owner.temporal_layer == 0:
                breaks_chain = True
                break
        for record in self._frames.values():
            if (
                record.complete_time is None
                and not record.lost
                and self._frame_has_lost_seq(record)
            ):
                record.lost = True
        if breaks_chain:
            self._chain_intact = False
            self._request_pli(now)

    def _request_pli(self, now: float) -> None:
        if self._send_pli is None:
            return
        if now - self._last_pli_time < self._pli_min_interval:
            return
        self._last_pli_time = now
        self.pli_sent += 1
        self._send_pli()
