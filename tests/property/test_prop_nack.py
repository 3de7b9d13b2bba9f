"""Property tests: the NACK assembler under arbitrary loss patterns.

Whatever packets are lost/retransmitted, structural invariants must
hold: no frame displays twice, display order is frame order, and every
frame ends the session in exactly one terminal state.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.packet import Packet
from repro.rtp.nack import NackConfig, NackFrameAssembler


def _packet(seq, frame, position, count, frame_type):
    return Packet(
        size_bytes=1200,
        seq=seq,
        frame_index=frame,
        frame_packet_index=position,
        frame_packet_count=count,
        capture_time=frame / 30,
        payload={"frame_type": frame_type, "temporal_layer": 0},
    )


@st.composite
def delivery_plan(draw):
    """Frames with 1..3 packets each; each packet lost or delayed."""
    n_frames = draw(st.integers(min_value=2, max_value=12))
    plan = []
    seq = 0
    for frame in range(n_frames):
        count = draw(st.integers(min_value=1, max_value=3))
        frame_type = "I" if frame == 0 else "P"
        for position in range(count):
            lost = draw(st.booleans()) and draw(st.booleans())  # p=0.25
            plan.append((seq, frame, position, count, frame_type, lost))
            seq += 1
    return plan


@given(plan=delivery_plan())
@settings(max_examples=60, deadline=None)
def test_structural_invariants_under_loss(plan):
    displayed_order: list[int] = []
    assembler = NackFrameAssembler(
        send_nack=lambda seqs: None,
        send_pli=lambda: None,
        config=NackConfig(
            reorder_grace=0.005, retry_interval=0.02, max_retries=1
        ),
    )
    now = 0.0
    seen: set[int] = set()
    for seq, frame, position, count, frame_type, lost in plan:
        now += 0.01
        if lost:
            continue
        assembler.on_packet(
            _packet(seq, frame, position, count, frame_type), now
        )
        displayed_order.extend(_poll_displays(assembler, seen))
    # Let retries expire and the barrier resolve.
    for _ in range(10):
        now += 0.05
        assembler.poll(now)
        displayed_order.extend(_poll_displays(assembler, seen))

    # Display order is strictly increasing frame order, no duplicates.
    assert displayed_order == sorted(set(displayed_order))

    # Terminal states are exclusive and complete.
    for record in assembler.frames():
        states = [
            record.display_time is not None,
            record.lost,
            record.undecodable,
        ]
        if record.complete_time is None:
            assert record.display_time is None
        assert sum(states) <= 1 or (record.lost and record.undecodable) is False


def _poll_displays(assembler, seen):
    """poll() records displays on the FrameRecords; detect new ones."""
    out = []
    for record in assembler.frames():
        if record.display_time is not None and record.index not in seen:
            seen.add(record.index)
            out.append(record.index)
    return out


@given(
    count=st.integers(min_value=1, max_value=4),
    n_frames=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_lossless_in_order_always_displays_everything(count, n_frames):
    assembler = NackFrameAssembler(
        send_nack=lambda seqs: None, send_pli=lambda: None
    )
    seq = 0
    now = 0.0
    displayed = []
    for frame in range(n_frames):
        frame_type = "I" if frame == 0 else "P"
        for position in range(count):
            now += 0.005
            for record in assembler.on_packet(
                _packet(seq, frame, position, count, frame_type), now
            ):
                displayed.append(record.index)
            seq += 1
    assert displayed == list(range(n_frames))
    assert assembler.nacks_sent == 0


class LinearScanAssembler(NackFrameAssembler):
    """The reference: confirms losses by scanning every frame record for
    each lost sequence, as the assembler did before it bisected."""

    __slots__ = ()

    def _on_losses_confirmed(self, now, newly_lost):
        breaks_chain = False
        for seq in newly_lost:
            owner = next(
                (r for r in self._frames.values() if r.covers_seq(seq)),
                None,
            )
            if owner is None or owner.temporal_layer == 0:
                breaks_chain = True
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


@st.composite
def packet_stream(draw):
    """``(arrival, kind, args)`` events, in arrival order, for one sender.

    Frames of 1..4 media packets (some of them droppable T1 frames, an
    occasional keyframe), each followed by 0..2 FEC parity sequences in
    the same sequence space. A frame may be lost whole; any other packet
    may be lost, or arrive late, as a retransmission would, often after
    its gap was declared lost. Polls run every 10 ms.
    """
    events = []
    seq = 0
    sent = 0.0
    for frame in range(draw(st.integers(2, 14))):
        count = draw(st.integers(1, 4))
        frame_type = "I" if frame == 0 or draw(st.integers(0, 7)) == 0 else "P"
        layer = 0 if frame_type == "I" else draw(st.sampled_from((0, 0, 1)))
        whole_frame_lost = draw(st.integers(0, 5)) == 0
        packets = [
            ("media", (seq + i, frame, i, count, frame_type, layer))
            for i in range(count)
        ]
        parities = draw(st.integers(0, 2))
        base = seq + count
        packets += [("parity", (base + i, base, parities)) for i in range(parities)]
        seq += count + parities
        for kind, args in packets:
            sent += 0.004
            if kind == "media" and whole_frame_lost:
                continue
            fate = draw(st.sampled_from(("on time",) * 4 + ("lost", "late")))
            if fate == "lost":
                continue
            delay = 0.02 if fate == "on time" else draw(st.floats(0.03, 0.4))
            events.append((sent + delay, kind, args))
    end = max(sent, max((e[0] for e in events), default=0.0)) + 0.3
    polls = [(0.01 * i, "poll", ()) for i in range(1, int(end / 0.01) + 1)]
    return sorted(events + polls, key=lambda event: event[0])


def _drive(cls, events):
    """Feed ``events`` to a fresh ``cls``; returns what it did, in order."""
    calls = []
    assembler = cls(
        send_nack=lambda seqs: calls.append(("nack", list(seqs))),
        send_pli=lambda: calls.append(("pli",)),
        config=NackConfig(
            reorder_grace=0.005, retry_interval=0.02, max_retries=2
        ),
    )
    for now, kind, args in events:
        if kind == "poll":
            calls.append(("polled", assembler.poll(now)))
        elif kind == "media":
            seq, frame, position, count, frame_type, layer = args
            packet = _packet(seq, frame, position, count, frame_type)
            packet.payload["temporal_layer"] = layer
            displayed = assembler.on_packet(packet, now)
            calls.append(("displayed", [r.index for r in displayed]))
        else:  # a parity fills its frame's announced parity range
            _, base, parities = args
            for parity_seq in range(base, base + parities):
                assembler.note_seq(parity_seq, now)
        calls.append(("chain", assembler.chain_intact))
    return assembler, calls


@given(events=packet_stream())
@settings(max_examples=150, deadline=None)
def test_confirmed_losses_match_the_linear_scan(events):
    fast, fast_calls = _drive(NackFrameAssembler, events)
    slow, slow_calls = _drive(LinearScanAssembler, events)
    assert fast_calls == slow_calls
    assert fast.frames() == slow.frames()
    for counter in ("pli_sent", "nacks_sent", "recovered_seqs", "stale_frames"):
        assert getattr(fast, counter) == getattr(slow, counter)
