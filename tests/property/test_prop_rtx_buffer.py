"""Property tests: the retransmission buffer's eviction.

``RetransmissionBuffer`` evicts by popping stale packets off the front
of store order. The reference below is the full-scan eviction it
replaced; under any non-decreasing store/fetch sequence both must hold
the same packets and answer every fetch the same way.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.packet import Packet
from repro.rtp.nack import RetransmissionBuffer


class _FullScanBuffer:
    """The eviction that scanned every stored packet on each call."""

    def __init__(self, max_age: float) -> None:
        self._max_age = max_age
        self._packets: dict[int, tuple[float, Packet]] = {}

    def store(self, packet: Packet, now: float) -> None:
        self._packets[packet.seq] = (now, copy.copy(packet))
        self._evict(now)

    def fetch(self, seqs: list[int], now: float) -> list[Packet]:
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
        return out

    def _evict(self, now: float) -> None:
        stale = [
            seq
            for seq, (stored_at, _) in self._packets.items()
            if stored_at < now - self._max_age
        ]
        for seq in stale:
            del self._packets[seq]


#: One step: ("store", seq, dt) or ("fetch", seqs, dt); dt >= 0 keeps
#: time non-decreasing, and dt == 0 makes equal-time runs common.
_dt = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.sampled_from([0.25, 0.5, 1.0]),
)
_step = st.one_of(
    st.tuples(st.just("store"), st.integers(0, 60), _dt),
    st.tuples(
        st.just("fetch"), st.lists(st.integers(0, 60), max_size=6), _dt
    ),
)


def _fields(packet: Packet) -> tuple:
    return (
        packet.seq,
        packet.size_bytes,
        packet.send_time,
        packet.arrival_time,
        packet.packet_id,
        packet.retransmission,
    )


def _contents(packets: dict) -> dict:
    return {
        seq: (stored_at, _fields(packet))
        for seq, (stored_at, packet) in packets.items()
    }


@given(
    steps=st.lists(_step, max_size=120),
    max_age=st.sampled_from([0.25, 0.5, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_prefix_eviction_matches_full_scan(steps, max_age):
    buffer = RetransmissionBuffer(max_age)
    reference = _FullScanBuffer(max_age)
    now = 0.0
    for kind, arg, dt in steps:
        now += dt
        if kind == "store":
            # Sequence numbers may repeat: a re-store must refresh the
            # packet's age in both.
            packet = Packet(size_bytes=1000 + arg, seq=arg, send_time=now)
            buffer.store(packet, now)
            reference.store(packet, now)
        else:
            got = buffer.fetch(list(arg), now)
            want = reference.fetch(list(arg), now)
            assert [_fields(p) for p in got] == [_fields(p) for p in want]
        assert _contents(buffer._packets) == _contents(reference._packets)
        assert len(buffer) == len(reference._packets)
