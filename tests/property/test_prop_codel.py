"""Property tests: CoDel conservation and byte accounting."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.aqm import CoDelQueue
from repro.netsim.packet import Packet


@st.composite
def workload(draw):
    """A sequence of timed offer/pop operations."""
    n = draw(st.integers(min_value=1, max_value=120))
    ops = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0001, max_value=0.05))
        if draw(st.booleans()):
            size = draw(st.integers(min_value=64, max_value=1500))
            ops.append(("offer", t, size))
        else:
            ops.append(("pop", t, 0))
    return ops


@given(ops=workload(), capacity=st.integers(min_value=2_000,
                                            max_value=100_000))
@settings(max_examples=120, deadline=None)
def test_packet_and_byte_conservation(ops, capacity):
    queue = CoDelQueue(capacity)
    offered = accepted = popped = 0
    popped_bytes = 0
    accepted_bytes = 0
    for op, t, size in ops:
        if op == "offer":
            offered += 1
            if queue.offer(Packet(size_bytes=size), t):
                accepted += 1
                accepted_bytes += size
        else:
            packet = queue.pop(t)
            if packet is not None:
                popped += 1
                popped_bytes += packet.size_bytes
    # Conservation: accepted = popped + codel-dropped + still queued,
    # in packets and in bytes.
    assert accepted == popped + queue.codel_drops + queue.backlog_packets
    assert accepted_bytes == (
        popped_bytes + queue.codel_dropped_bytes + queue.backlog_bytes
    )
    assert 0 <= queue.backlog_bytes <= capacity
    assert queue.dropped_packets >= queue.codel_drops


@given(
    sizes=st.lists(st.integers(min_value=64, max_value=1500),
                   min_size=1, max_size=60)
)
@settings(max_examples=80, deadline=None)
def test_fifo_order_preserved(sizes):
    """CoDel drops from the head but never reorders survivors."""
    queue = CoDelQueue(10**9)
    t = 0.0
    for index, size in enumerate(sizes):
        packet = Packet(size_bytes=size)
        packet.seq = index
        queue.offer(packet, t)
        t += 0.001
    out = []
    while True:
        t += 0.05  # force sustained sojourn so drops can happen
        packet = queue.pop(t)
        if packet is None:
            break
        out.append(packet.seq)
    assert out == sorted(out)
