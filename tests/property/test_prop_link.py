"""Property tests: link conservation and FIFO invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.link import Link, service_end_time
from repro.netsim.loss import IidLoss, LossModel
from repro.netsim.packet import Packet
from repro.simcore.rng import RngStreams
from repro.simcore.scheduler import Scheduler
from repro.traces.bandwidth import BandwidthTrace


def _run_link(sizes, trace, queue, loss_p, seed):
    """Offer ``sizes`` at t=0 to a lossy link and run the scheduler
    dry; returns the link, its deliveries, the accepted count and the
    scheduler."""
    scheduler = Scheduler()
    delivered = []
    link = Link(
        scheduler,
        trace,
        propagation_delay=0.01,
        queue_bytes=queue,
        deliver=delivered.append,
        loss=IidLoss(loss_p, RngStreams(seed)),
    )
    accepted = 0
    for seq, size in enumerate(sizes):
        packet = Packet(size_bytes=size)
        packet.seq = seq
        accepted += link.send(packet)
    scheduler.run()
    return link, delivered, accepted, scheduler


@given(
    sizes=st.lists(
        st.integers(min_value=64, max_value=1500), min_size=1, max_size=60
    ),
    rate=st.floats(min_value=1e5, max_value=1e7),
    queue=st.integers(min_value=2_000, max_value=200_000),
    loss_p=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80)
def test_packets_conserved(sizes, rate, queue, loss_p, seed):
    """accepted = delivered + channel-lost; rejected = counted; the
    queue ends empty; and every accepted packet fired one service-end
    event and every delivered one an arrival event."""
    link, delivered, accepted, scheduler = _run_link(
        sizes, BandwidthTrace.constant(rate), queue, loss_p, seed
    )
    assert accepted == len(delivered) + link.stats.channel_lost_packets
    assert link.stats.delivered_packets == len(delivered)
    assert link.queue.dropped_packets == len(sizes) - accepted
    assert link.queue.backlog_bytes == 0
    assert scheduler.events_fired == accepted + len(delivered)


@given(
    sizes=st.lists(
        st.integers(min_value=64, max_value=1500), min_size=1, max_size=40
    ),
    dead_at=st.floats(min_value=0.001, max_value=0.2),
    loss_p=st.sampled_from([0.0, 0.5]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60)
def test_dead_tail_conserves_packets(sizes, dead_at, loss_p, seed):
    """Capacity drops to zero for good: the packet in service stalls
    and everything behind it stays queued. Every accepted packet is
    delivered, channel-lost, stalled in service or still queued."""
    trace = BandwidthTrace([(0.0, 1e6), (dead_at, 0.0)])
    link, delivered, accepted, scheduler = _run_link(
        sizes, trace, 10**9, loss_p, seed
    )
    served = len(delivered) + link.stats.channel_lost_packets
    stalled = accepted - served - link.queue.backlog_packets
    assert stalled == int(link._in_service is not None)
    if link.queue.backlog_packets:
        assert stalled == 1
    assert all(p.arrival_time <= dead_at + 0.01 + 1e-9 for p in delivered)
    assert scheduler.events_fired == served + len(delivered)


@given(
    sizes=st.lists(
        st.integers(min_value=64, max_value=1500), min_size=2, max_size=60
    ),
    rate=st.floats(min_value=1e5, max_value=1e7),
)
@settings(max_examples=80)
def test_fifo_delivery_order(sizes, rate):
    scheduler = Scheduler()
    delivered = []
    link = Link(
        scheduler,
        BandwidthTrace.constant(rate),
        propagation_delay=0.005,
        queue_bytes=10**9,
        deliver=delivered.append,
    )
    for i, size in enumerate(sizes):
        packet = Packet(size_bytes=size)
        packet.seq = i
        link.send(packet)
    scheduler.run()
    assert [p.seq for p in delivered] == list(range(len(sizes)))
    arrivals = [p.arrival_time for p in delivered]
    assert arrivals == sorted(arrivals)


class _RecordingLoss(LossModel):
    """Wraps a loss model and records the seq of every packet it drops."""

    def __init__(self, inner: LossModel) -> None:
        self.inner = inner
        self.dropped: set[int] = set()

    def should_drop(self, packet: Packet) -> bool:
        drop = self.inner.should_drop(packet)
        if drop:
            self.dropped.add(packet.seq)
        return drop


@given(
    offers=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.3),
            st.integers(min_value=0, max_value=1500),
        ),
        min_size=1,
        max_size=60,
    ),
    step_at=st.floats(min_value=0.01, max_value=0.1),
    gap=st.tuples(
        st.floats(min_value=0.05, max_value=0.2),
        st.floats(min_value=0.001, max_value=0.1),
    ),
    loss_p=st.sampled_from([0.0, 0.2, 0.5]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80)
def test_each_arrival_gets_its_own_packet(offers, step_at, gap, loss_p, seed):
    """Packets offered at random times through a capacity step and a
    zero-rate gap, with channel loss: every delivered packet arrives at
    exactly its own drop-tail service end plus the propagation delay,
    and exactly the packets the loss model spared are delivered."""
    gap_start = step_at + gap[0]
    trace = BandwidthTrace(
        [(0.0, 2e6), (step_at, 4e5), (gap_start, 0.0), (gap_start + gap[1], 1e6)]
    )
    propagation = 0.013
    scheduler = Scheduler()
    delivered = []
    loss = _RecordingLoss(IidLoss(loss_p, RngStreams(seed)))
    link = Link(
        scheduler,
        trace,
        propagation_delay=propagation,
        queue_bytes=10**9,
        deliver=delivered.append,
        loss=loss,
    )
    offers = sorted(offers)
    for seq, (send_time, size) in enumerate(offers):
        packet = Packet(size_bytes=size)
        packet.seq = seq
        scheduler.call_at(send_time, lambda p=packet: link.send(p))
    scheduler.run()

    # Drop-tail reference: one server, service in offer order.
    expected = {}
    finish = 0.0
    for seq, (send_time, size) in enumerate(offers):
        finish = service_end_time(trace, max(send_time, finish), size * 8)
        expected[seq] = finish + propagation
    assert link.queue.dropped_packets == 0
    assert sorted(p.seq for p in delivered) == sorted(
        set(expected) - loss.dropped
    )
    for packet in delivered:
        assert packet.arrival_time == expected[packet.seq]


@given(
    bits=st.floats(min_value=1.0, max_value=1e7),
    start=st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=100)
def test_service_time_consistent_with_trace_integral(bits, start):
    trace = BandwidthTrace([(0.0, 2e6), (5.0, 5e5), (10.0, 2e6)])
    end = service_end_time(trace, start, bits)
    assert end >= start
    # The trace can carry exactly `bits` between start and end.
    carried = trace.bits_between(start, end)
    assert abs(carried - bits) <= max(1e-6 * bits, 1e-3)
