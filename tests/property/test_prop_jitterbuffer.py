"""Property tests: ``FrameAssembler``'s shortcuts are observationally
identical to the plain algorithm.

``on_packet`` skips ``_detect_losses`` when a packet is exactly in order
(``seq == highest + 1``), the reference chain is intact and no other
frame is still open, applying only the scan-floor update; and
``_detect_losses`` finds the owner of an unreceived sequence by
bisection (:func:`~repro.rtp.jitterbuffer.owner_of`) instead of
scanning every frame. Random media arrival streams — random frame
sizes, keyframe cadence, T1 frames, channel losses (sequence gaps),
local reorders and duplicates — are replayed through the real
assembler and through a subclass without the shortcut. Frame records,
per-packet return values, PLI emissions and telemetry must match
exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.packet import Packet
from repro.rtp.jitterbuffer import FrameAssembler, FrameRecord
from repro.telemetry.recorder import Telemetry


class _GeneralPathAssembler(FrameAssembler):
    """``on_packet`` without the in-order shortcut: record insert,
    ``_detect_losses``, then completion and ``_try_display``."""

    def on_packet(self, packet: Packet, now: float) -> FrameRecord | None:
        record = self._frames.get(packet.frame_index)
        if record is None:
            payload = packet.payload
            record = FrameRecord(
                index=packet.frame_index,
                capture_time=packet.capture_time,
                packet_count=packet.frame_packet_count,
                frame_type=payload.get("frame_type", "P"),
                temporal_layer=payload.get("temporal_layer", 0),
                base_seq=packet.seq - packet.frame_packet_index,
            )
            self._insert(record)
            self._open[packet.frame_index] = record
        if packet.frame_packet_index in record.positions:
            return None
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


class _LinearScanAssembler(FrameAssembler):
    """``_detect_losses`` scanning every frame record for the owner of
    each unreceived sequence."""

    def _detect_losses(self, now: float) -> None:
        highest = self._highest_seq
        for record in list(self._open.values()):
            if highest > record.end_seq:
                record.lost = True
                del self._open[record.index]
                if record.temporal_layer == 0:
                    self._chain_intact = False
                    self._request_pli(now)
        for seq in range(self._gap_scan_floor, highest + 1):
            if seq in self._received_seqs:
                continue
            if any(r.covers_seq(seq) for r in self._frames.values()):
                continue
            self._chain_intact = False
            self._request_pli(now)
        self._gap_scan_floor = highest + 1


@st.composite
def arrival_streams(draw, stalls=False):
    """(arriving packets, arrival times) for one random stream.

    Packets carry real frame structure (index/position/count, a
    keyframe cadence, T1 frames); the arrival order suffers random
    drops, local reorders, and duplicates, and arrival times are
    non-decreasing with random inter-arrival gaps. With ``stalls``
    the frames take their sequence numbers in a random order, as an
    encoder stall releases a burst of frames out of index order.
    """
    n_frames = draw(st.integers(min_value=2, max_value=10))
    keyframe_every = draw(st.integers(min_value=2, max_value=5))
    packets: list[Packet] = []
    seq = 0
    indices = range(n_frames)
    if stalls:
        indices = draw(st.permutations(indices))
    for index in indices:
        count = draw(st.integers(min_value=1, max_value=4))
        frame_type = "I" if index % keyframe_every == 0 else "P"
        layer = draw(st.sampled_from([0, 0, 0, 1]))
        for position in range(count):
            packets.append(
                Packet(
                    size_bytes=draw(
                        st.integers(min_value=200, max_value=1200)
                    ),
                    seq=seq,
                    frame_index=index,
                    frame_packet_index=position,
                    frame_packet_count=count,
                    capture_time=index / 30.0,
                    payload={
                        "frame_type": frame_type,
                        "temporal_layer": layer,
                    },
                )
            )
            seq += 1

    # Channel losses: a random subset never arrives.
    dropped = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(packets) - 1),
            max_size=len(packets) // 3,
        )
    )
    arriving = [p for i, p in enumerate(packets) if i not in dropped]

    # Local reorders: a few adjacent swaps.
    if len(arriving) >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            at = draw(
                st.integers(min_value=0, max_value=len(arriving) - 2)
            )
            arriving[at], arriving[at + 1] = (
                arriving[at + 1],
                arriving[at],
            )

    # Duplicates: some packets arrive twice, back to back.
    if arriving:
        for at in sorted(
            draw(
                st.sets(
                    st.integers(
                        min_value=0, max_value=len(arriving) - 1
                    ),
                    max_size=3,
                )
            ),
            reverse=True,
        ):
            arriving.insert(at, arriving[at])

    # Non-decreasing arrival times with random gaps.
    times: list[float] = []
    now = 0.0
    for _ in arriving:
        now += draw(
            st.sampled_from([0.0, 0.0002, 0.001, 0.004, 0.02])
        )
        times.append(now)
    return arriving, times


def _frame_states(assembler: FrameAssembler):
    return [
        (
            record.index,
            record.capture_time,
            record.packet_count,
            record.frame_type,
            record.temporal_layer,
            record.received_packets,
            sorted(record.positions),
            record.base_seq,
            record.complete_time,
            record.display_time,
            record.lost,
            record.undecodable,
        )
        for record in assembler.frames()
    ]


def _replay(cls, arriving, times) -> dict:
    """Everything observable of ``cls`` after the stream."""
    telemetry = Telemetry()
    pli_times: list[float] = []
    clock = [0.0]
    assembler = cls(
        send_pli=lambda log=pli_times, at=clock: log.append(at[0]),
        pli_min_interval=0.05,
        telemetry=telemetry,
    )
    displayed = []
    for packet, now in zip(arriving, times):
        clock[0] = now
        record = assembler.on_packet(packet, now)
        displayed.append(None if record is None else record.index)
    return {
        "frames": _frame_states(assembler),
        "displayed": displayed,
        "highest_seq": assembler._highest_seq,
        "chain_intact": assembler.chain_intact,
        "pli_sent": assembler.pli_sent,
        "pli_times": pli_times,
        "telemetry": telemetry.to_dict(),
    }


@given(stream=arrival_streams(stalls=True))
@settings(max_examples=150, deadline=None)
def test_owner_bisection_matches_linear_scan(stream):
    arriving, times = stream
    assert _replay(FrameAssembler, arriving, times) == _replay(
        _LinearScanAssembler, arriving, times
    )


@given(stream=arrival_streams())
@settings(max_examples=150, deadline=None)
def test_in_order_shortcut_matches_general_path(stream):
    arriving, times = stream
    legs = {}
    for leg, cls in (
        ("shortcut", FrameAssembler),
        ("general", _GeneralPathAssembler),
    ):
        telemetry = Telemetry()
        pli_times: list[float] = []
        clock = [0.0]
        assembler = cls(
            send_pli=lambda log=pli_times, at=clock: log.append(at[0]),
            pli_min_interval=0.05,
            telemetry=telemetry,
        )
        displayed = []
        for packet, now in zip(arriving, times):
            clock[0] = now
            record = assembler.on_packet(packet, now)
            displayed.append(None if record is None else record.index)
        legs[leg] = {
            "frames": _frame_states(assembler),
            "displayed": displayed,
            "highest_seq": assembler._highest_seq,
            "chain_intact": assembler.chain_intact,
            "pli_sent": assembler.pli_sent,
            "pli_times": pli_times,
            "telemetry": telemetry.to_dict(),
        }
    assert legs["shortcut"] == legs["general"]
