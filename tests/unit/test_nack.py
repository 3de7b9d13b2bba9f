"""NACK retransmission: assembler, buffer, and the display barrier."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.netsim.packet import Packet
from repro.rtp.nack import (
    NackConfig,
    NackFrameAssembler,
    RetransmissionBuffer,
)


def _packet(seq, frame, position=0, count=1, frame_type="P", layer=0):
    return Packet(
        size_bytes=1200,
        seq=seq,
        frame_index=frame,
        frame_packet_index=position,
        frame_packet_count=count,
        capture_time=frame / 30,
        payload={"frame_type": frame_type, "temporal_layer": layer},
    )


@pytest.fixture
def rig():
    nacks, plis = [], []
    assembler = NackFrameAssembler(
        send_nack=nacks.append,
        send_pli=lambda: plis.append(1),
        config=NackConfig(
            reorder_grace=0.01, retry_interval=0.05, max_retries=2
        ),
    )
    return assembler, nacks, plis


def test_in_order_delivery_displays_immediately(rig):
    assembler, nacks, _ = rig
    displayed = assembler.on_packet(_packet(0, 0, frame_type="I"), 0.1)
    assert [r.index for r in displayed] == [0]
    displayed = assembler.on_packet(_packet(1, 1), 0.13)
    assert [r.index for r in displayed] == [1]
    assembler.poll(0.2)
    assert nacks == []


def test_gap_triggers_nack_not_loss(rig):
    assembler, nacks, plis = rig
    assembler.on_packet(_packet(0, 0, frame_type="I"), 0.10)
    assembler.on_packet(_packet(2, 2), 0.15)  # seq 1 missing
    assert assembler.missing_count() == 1
    assembler.poll(0.17)  # past reorder grace -> NACK
    assert nacks == [[1]]
    assert plis == []
    assert assembler.chain_intact


def test_later_frames_wait_behind_the_barrier(rig):
    assembler, _, _ = rig
    assembler.on_packet(_packet(0, 0, frame_type="I"), 0.10)
    displayed = assembler.on_packet(_packet(2, 2), 0.15)
    # Frame 2 is complete but seq 1 is unresolved: no display yet.
    assert displayed == []


def test_retransmission_releases_blocked_frames(rig):
    assembler, _, plis = rig
    assembler.on_packet(_packet(0, 0, frame_type="I"), 0.10)
    assembler.on_packet(_packet(2, 2), 0.15)
    displayed = assembler.on_packet(_packet(1, 1), 0.25)  # retx lands
    assert [r.index for r in displayed] == [1, 2]
    assert assembler.recovered_seqs == 1
    assert plis == []
    records = {r.index: r for r in assembler.frames()}
    # The blocked frame's latency includes the recovery wait.
    assert records[2].display_time >= 0.25


def test_exhausted_retries_confirm_loss_and_pli(rig):
    assembler, nacks, plis = rig
    assembler.on_packet(_packet(0, 0, frame_type="I"), 0.10)
    assembler.on_packet(_packet(2, 2), 0.15)
    assembler.poll(0.17)   # NACK #1
    assembler.poll(0.23)   # NACK #2 (max_retries=2)
    assembler.poll(0.30)   # give up -> lost
    assert len(nacks) == 2
    assert plis == [1]
    assert not assembler.chain_intact
    # The blocked complete frame is now undecodable (chain broken).
    assembler.poll(0.31)
    records = {r.index: r for r in assembler.frames()}
    assert records[2].undecodable


def test_lost_t1_does_not_break_chain(rig):
    assembler, _, plis = rig
    assembler.on_packet(_packet(0, 0, frame_type="I"), 0.10)
    # T1 frame 1 partially arrives (so its layer is known), loses seq 2.
    assembler.on_packet(_packet(1, 1, 0, 2, layer=1), 0.12)
    displayed = assembler.on_packet(_packet(3, 2), 0.15)
    assert displayed == []  # barrier at seq 2
    assembler.poll(0.17)
    assembler.poll(0.23)
    assembler.poll(0.30)  # seq 2 declared lost; owner is T1
    assert plis == []
    assert assembler.chain_intact
    records = {r.index: r for r in assembler.frames()}
    assert records[1].lost
    assert records[2].display_time is not None


def test_lost_t1_owner_found_when_frames_take_seqs_out_of_index_order():
    """An encoder stall packetizes T1 frame 1 after T0 frame 2: losing
    frame 1's seq 5 must still find frame 1 as its owner, so the chain
    holds and no keyframe is asked for."""
    plis = []
    assembler = NackFrameAssembler(
        send_nack=lambda seqs: None,
        send_pli=lambda: plis.append(1),
        config=NackConfig(
            reorder_grace=0.01, retry_interval=0.05, max_retries=1
        ),
    )
    arrivals = [
        _packet(0, 0, 0, 2, frame_type="I"),
        _packet(1, 0, 1, 2, frame_type="I"),
        _packet(2, 2, 0, 2),
        _packet(3, 2, 1, 2),
        _packet(4, 1, 0, 2, layer=1),  # seq 5, frame 1's second, is lost
        _packet(6, 3, 0, 2),
        _packet(7, 3, 1, 2),
    ]
    for k, packet in enumerate(arrivals):
        assembler.on_packet(packet, 0.10 + 0.01 * k)
    for t in (0.20, 0.30, 0.40):
        assembler.poll(t)
    assert plis == []
    assert assembler.chain_intact
    records = {r.index: r for r in assembler.frames()}
    assert records[1].lost
    assert records[3].display_time is not None


def test_keyframe_recovers_after_confirmed_loss(rig):
    assembler, _, _ = rig
    assembler.on_packet(_packet(0, 0, frame_type="I"), 0.10)
    assembler.on_packet(_packet(2, 2), 0.15)
    for t in (0.17, 0.23, 0.30):
        assembler.poll(t)
    assert not assembler.chain_intact
    displayed = assembler.on_packet(_packet(3, 3, frame_type="I"), 0.40)
    assert [r.index for r in displayed] == [3]
    assert assembler.chain_intact


def test_duplicate_retransmission_ignored(rig):
    assembler, _, _ = rig
    assembler.on_packet(_packet(0, 0, frame_type="I"), 0.10)
    assembler.on_packet(_packet(1, 1), 0.13)
    assert assembler.on_packet(_packet(1, 1), 0.20) == []


def test_stale_late_retransmission_discarded(rig):
    """A fully-lost frame whose retx lands after a newer keyframe has
    displayed must be discarded, not displayed out of order."""
    assembler, _, _ = rig
    assembler.on_packet(_packet(0, 0, frame_type="I"), 0.10)
    # Frame 1 (seq 1) lost entirely; frame 2 confirms the gap.
    assembler.on_packet(_packet(2, 2), 0.15)
    for t in (0.17, 0.23, 0.30):
        assembler.poll(t)  # retries exhaust -> seq 1 lost, chain broken
    assert not assembler.chain_intact
    # Recovery keyframe displays.
    displayed = assembler.on_packet(_packet(3, 3, frame_type="I"), 0.40)
    assert [r.index for r in displayed] == [3]
    # Now the ancient retransmission of seq 1 finally arrives.
    late = assembler.on_packet(_packet(1, 1), 0.55)
    assert late == []
    records = {r.index: r for r in assembler.frames()}
    assert records[1].display_time is None
    assert records[1].undecodable
    assert assembler.stale_frames == 1
    # Display times remain monotone in frame order.
    times = [
        r.display_time for r in assembler.frames()
        if r.display_time is not None
    ]
    assert times == sorted(times)


def test_retransmission_buffer_roundtrip():
    buffer = RetransmissionBuffer(max_age=1.0)
    packet = _packet(5, 3)
    buffer.store(packet, 0.1)
    fetched = buffer.fetch([5], 0.2)
    assert len(fetched) == 1
    assert fetched[0].seq == 5
    assert fetched[0].retransmission
    assert fetched[0] is not packet  # a copy, original untouched
    assert not packet.retransmission


def test_retransmission_buffer_evicts_old():
    buffer = RetransmissionBuffer(max_age=0.5)
    buffer.store(_packet(1, 1), 0.0)
    assert buffer.fetch([1], 1.0) == []


def test_retransmission_buffer_unknown_seq():
    buffer = RetransmissionBuffer()
    assert buffer.fetch([42], 0.1) == []


def test_nack_config_validation():
    with pytest.raises(ConfigError):
        NackConfig(retry_interval=0).validate()
    with pytest.raises(ConfigError):
        NackConfig(max_retries=0).validate()
    with pytest.raises(ConfigError):
        RetransmissionBuffer(max_age=0)
