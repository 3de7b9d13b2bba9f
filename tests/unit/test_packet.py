"""Packet copies: the field-by-field ``__copy__``."""

from __future__ import annotations

import copy
import dataclasses

from repro.netsim.packet import Packet


def _distinct_packet() -> Packet:
    """A packet whose every field differs from its default."""
    return Packet(
        size_bytes=1234,
        flow="rtx",
        seq=17,
        frame_index=5,
        frame_packet_index=2,
        frame_packet_count=4,
        capture_time=0.5,
        send_time=0.75,
        arrival_time=0.8,
        payload={"frame_type": "I", "temporal_layer": 1},
        retransmission=True,
    )


def test_copy_copies_every_field():
    original = _distinct_packet()
    clone = copy.copy(original)
    assert clone is not original
    assert type(clone) is Packet
    for field in dataclasses.fields(Packet):
        assert getattr(clone, field.name) == getattr(
            original, field.name
        ), field.name
    assert clone == original


def test_copy_is_shallow_and_keeps_the_id():
    original = _distinct_packet()
    clone = copy.copy(original)
    assert clone.packet_id == original.packet_id
    assert clone.payload is original.payload
    clone.seq = 99
    clone.arrival_time = -1.0
    assert original.seq == 17
    assert original.arrival_time == 0.8


def test_copy_draws_no_packet_id():
    original = _distinct_packet()
    before = Packet(size_bytes=1).packet_id
    for _ in range(3):
        copy.copy(original)
    after = Packet(size_bytes=1).packet_id
    assert after == before + 1
