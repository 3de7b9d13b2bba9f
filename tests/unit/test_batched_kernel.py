"""``BatchedScheduler``: the heap kernel under a retired kernel's name.

The lane kernel is gone, and with it the link's drain plan: on every
scheduler the link fires one service-end event per accepted packet and
one arrival event per delivered packet. :mod:`repro.simcore.batched`
keeps ``BatchedScheduler`` as an empty :class:`Scheduler` subclass
because the benchmark's tracer imports it and wraps its ``run_until``.
These tests keep the lane kernel's link scenarios (drain, overflow, a
dead span, CoDel, backlog observers) and check that a link driven by
that class behaves exactly as on the heap.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.netsim.aqm import CoDelQueue
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.simcore.batched import BatchedScheduler
from repro.simcore.scheduler import Scheduler
from repro.traces.bandwidth import BandwidthTrace


def _packet(seq: int, size: int = 1200) -> Packet:
    return Packet(size_bytes=size, flow="f", seq=seq, send_time=0.0)


def test_reentrant_run_raises():
    scheduler = BatchedScheduler()
    scheduler.call_at(1.0, lambda: scheduler.run_until(5.0))
    with pytest.raises(SimulationError):
        scheduler.run_until(2.0)


# ----------------------------------------------------------------------
# Link behaviour
# ----------------------------------------------------------------------
def _drain(scheduler, link, packets, until=10.0):
    for packet in packets:
        link.send(packet)
    scheduler.run_until(until)


def _mk_link(scheduler, delivered, rate_bps=1e6, queue_bytes=50_000,
             **kwargs):
    trace = BandwidthTrace.constant(rate_bps)
    return Link(
        scheduler,
        capacity=trace,
        propagation_delay=0.01,
        queue_bytes=queue_bytes,
        deliver=delivered.append,
        **kwargs,
    )


def test_batched_link_matches_serial_link():
    def run(factory):
        scheduler = factory()
        delivered = []
        link = _mk_link(scheduler, delivered)
        _drain(scheduler, link, [_packet(i) for i in range(50)])
        return (
            [p.seq for p in delivered],
            [p.arrival_time for p in delivered],
            link.stats.delivered_packets,
            link.queue.dropped_packets,
            scheduler.events_fired,
        )

    assert run(BatchedScheduler) == run(Scheduler)


def test_batched_link_overflow_matches_serial():
    def run(factory):
        scheduler = factory()
        delivered = []
        link = _mk_link(
            scheduler, delivered, rate_bps=2e5, queue_bytes=5_000
        )
        _drain(scheduler, link, [_packet(i) for i in range(40)], until=60.0)
        return (
            [p.seq for p in delivered],
            [p.arrival_time for p in delivered],
            link.queue.dropped_packets,
            scheduler.events_fired,
        )

    assert run(BatchedScheduler) == run(Scheduler)


def test_codel_queue_disables_link_batching():
    """A CoDel link delivers in order with one service-end and one
    arrival event per packet, on this class as on the heap."""

    def run(factory):
        scheduler = factory()
        delivered = []
        link = _mk_link(scheduler, delivered, queue=CoDelQueue(50_000))
        _drain(scheduler, link, [_packet(i) for i in range(5)])
        return (
            [p.seq for p in delivered],
            [p.arrival_time for p in delivered],
            scheduler.events_fired,
        )

    outcome = run(BatchedScheduler)
    assert outcome == run(Scheduler)
    assert outcome[0] == list(range(5))
    assert outcome[2] == 2 * 5


def test_heap_scheduler_link_never_batches():
    """Every accepted packet costs the heap one service-end event and
    every delivered packet one arrival event."""
    scheduler = Scheduler()
    delivered = []
    link = _mk_link(scheduler, delivered)
    packets = [_packet(i) for i in range(50)]
    _drain(scheduler, link, packets)
    accepted = len(packets) - link.queue.dropped_packets
    assert link.queue.dropped_packets > 0
    assert len(delivered) == accepted
    assert scheduler.events_fired == accepted + len(delivered)


def test_dead_link_stalls_plan_like_serial():
    """A zero-capacity span holds the in-service packet (and everything
    behind it) on this class exactly as on the heap."""

    def run(factory):
        scheduler = factory()
        trace = BandwidthTrace.from_samples(
            [0.0, 0.05, 0.2], [1e6, 0.0, 1e6]
        )
        delivered = []
        link = Link(
            scheduler,
            capacity=trace,
            propagation_delay=0.01,
            queue_bytes=50_000,
            deliver=delivered.append,
        )
        for i in range(10):
            link.send(_packet(i))
        scheduler.run_until(5.0)
        return [
            (p.seq, p.arrival_time) for p in delivered
        ], link.backlog_bytes()

    assert run(BatchedScheduler) == run(Scheduler)


def test_backlog_observers_sync_the_plan():
    """The backlog and queue-delay observers follow the queue as it
    drains."""
    scheduler = BatchedScheduler()
    link = _mk_link(scheduler, [], rate_bps=1e5)
    for i in range(10):
        link.send(_packet(i))
    # Before any time passes the whole backlog is queued.
    assert link.backlog_bytes() > 0
    depth_before = link.estimated_queue_delay()
    scheduler.run_until(0.5)
    assert link.backlog_bytes() < 10 * 1200
    assert link.estimated_queue_delay() < depth_before
