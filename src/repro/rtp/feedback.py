"""Transport-wide congestion-control (TWCC-like) feedback.

The receiver batches per-packet arrival records and ships them back on
the reverse path at a fixed interval (50 ms by default, libwebrtc's
send interval). The sender joins them with its send-time history to
produce :class:`PacketResult` records — the input to congestion control
and to the adaptive drop detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class ArrivalRecord(NamedTuple):
    """One received media packet, as reported by the receiver.

    A NamedTuple rather than a frozen dataclass: both are immutable
    value records, but the tuple constructor skips the per-field
    ``object.__setattr__`` calls — measurable at one record per
    received packet.
    """

    seq: int
    arrival_time: float
    size_bytes: int


@dataclass(frozen=True, slots=True)
class FeedbackReport:
    """A TWCC-like feedback batch.

    Attributes:
        created_at: receiver clock when the report was assembled.
        arrivals: arrival records since the previous report (seq order).
        highest_seq: highest sequence number seen so far.
        cumulative_received: total media packets received so far.
    """

    created_at: float
    arrivals: tuple[ArrivalRecord, ...]
    highest_seq: int
    cumulative_received: int

    def wire_size_bytes(self) -> int:
        """Approximate RTCP size: fixed header + 2 bytes per status +
        arrival deltas."""
        return 36 + 4 * len(self.arrivals)


class PacketResult(NamedTuple):
    """Sender-side join of send history with a feedback arrival record.

    ``arrival_time < 0`` denotes a packet reported lost (a gap in the
    sequence space that a later feedback confirmed). A NamedTuple for
    the same constructor-cost reason as :class:`ArrivalRecord` — one of
    these exists per acked packet.
    """

    seq: int
    send_time: float
    arrival_time: float
    size_bytes: int

    @property
    def lost(self) -> bool:
        """Whether the packet never arrived."""
        return self.arrival_time < 0


@dataclass(slots=True)
class FeedbackCollector:
    """Receiver-side accumulator producing :class:`FeedbackReport`."""

    _pending: list[ArrivalRecord] = field(default_factory=list)
    _highest_seq: int = -1
    _received: int = 0

    def on_packet(self, seq: int, arrival_time: float, size_bytes: int) -> None:
        """Record one arriving media packet."""
        self._pending.append(ArrivalRecord(seq, arrival_time, size_bytes))
        if seq > self._highest_seq:
            self._highest_seq = seq
        self._received += 1

    def build_report(self, now: float) -> FeedbackReport | None:
        """Flush pending arrivals into a report (``None`` if empty)."""
        if not self._pending:
            return None
        report = FeedbackReport(
            created_at=now,
            arrivals=tuple(
                sorted(self._pending, key=lambda record: record.seq)
            ),
            highest_seq=self._highest_seq,
            cumulative_received=self._received,
        )
        self._pending.clear()
        return report


class SendHistory:
    """Sender-side record of in-flight packets for the TWCC join.

    Entries are evicted once acknowledged or once ``max_age`` older than
    the newest send, at which point unacked entries are reported lost.
    """

    __slots__ = ("_entries", "_max_age", "_newest_send")

    def __init__(self, max_age: float = 2.0) -> None:
        self._entries: dict[int, tuple[float, int]] = {}
        self._max_age = max_age
        self._newest_send = 0.0

    def on_sent(self, seq: int, send_time: float, size_bytes: int) -> None:
        """Record a packet leaving the pacer."""
        self._entries[seq] = (send_time, size_bytes)
        if send_time > self._newest_send:
            self._newest_send = send_time

    def resolve(self, report: FeedbackReport) -> list[PacketResult]:
        """Join a feedback report against the history.

        Returns results for every acked packet, plus loss records for
        unacked packets older than every packet acked in this report
        (the TWCC rule: a gap is a loss once something later arrived).
        """
        results: list[PacketResult] = []
        append = results.append
        entries_pop = self._entries.pop
        acked_seqs = []
        for record in report.arrivals:
            seq = record.seq
            entry = entries_pop(seq, None)
            if entry is None:
                continue  # duplicate ack or evicted
            send_time, size_bytes = entry
            append(
                PacketResult(seq, send_time, record.arrival_time, size_bytes)
            )
            acked_seqs.append(seq)
        if acked_seqs:
            newest_acked = max(acked_seqs)
            lost = [
                seq for seq in self._entries if seq < newest_acked
            ]
            for seq in sorted(lost):
                send_time, size_bytes = entries_pop(seq)
                append(PacketResult(seq, send_time, -1.0, size_bytes))
        results.sort(key=lambda r: r.seq)
        return results

    def in_flight(self) -> int:
        """Packets sent but not yet resolved."""
        return len(self._entries)
