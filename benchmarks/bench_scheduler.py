"""Micro-benchmarks of the event-queue kernel.

Pytest-benchmark timings of the scheduler's primitive operations —
push/fire throughput, cancellation-heavy churn (cancelled entries are
dropped lazily when they reach the head of the heap), the
arm-a-timer-per-packet pattern, and mixed workloads at several queue
depths. Run with::

    python -m pytest benchmarks/bench_scheduler.py

(or ``--benchmark-disable`` for a correctness-only smoke pass, as CI
does).
"""

from __future__ import annotations

import pytest

from repro.simcore.scheduler import Scheduler


def _noop() -> None:
    return None


@pytest.mark.parametrize("depth", [100, 1_000, 10_000])
def test_bench_push_then_drain(benchmark, depth):
    """Pure push + fire throughput at several queue depths."""

    def run():
        scheduler = Scheduler()
        call_at = scheduler.call_at
        for i in range(depth):
            call_at(i * 1e-4, _noop)
        scheduler.run()
        return scheduler.events_fired

    assert benchmark(run) == depth


@pytest.mark.parametrize("depth", [1_000, 10_000])
def test_bench_cancel_heavy_churn(benchmark, depth):
    """Schedule, cancel 75%, drain — exercises lazy dropping."""

    def run():
        scheduler = Scheduler()
        call_at = scheduler.call_at
        events = [call_at(i * 1e-4, _noop) for i in range(depth)]
        for index, event in enumerate(events):
            if index % 4:
                scheduler.cancel(event)
        scheduler.run()
        return scheduler.events_fired

    assert benchmark(run) == depth // 4 + (1 if depth % 4 else 0)


def test_bench_retransmit_timer_pattern(benchmark):
    """Arm a timer per packet, cancel most on arrival.

    Events are armed slightly in the future and cancelled from within
    the running loop, so cancellations hit a live heap rather than a
    pre-drained one.
    """
    depth = 5_000

    def run():
        scheduler = Scheduler()
        call_at = scheduler.call_at
        timers = []

        def arrive(index: int) -> None:
            scheduler.cancel(timers[index])

        for i in range(depth):
            base = i * 1e-3
            timers.append(call_at(base + 0.25, _noop))
            if i % 10:
                call_at(base + 1e-4, lambda i=i: arrive(i))
        scheduler.run()
        return scheduler.events_fired

    assert benchmark(run) > 0


@pytest.mark.parametrize("depth", [1_000, 10_000])
def test_bench_mixed_push_pop_cancel(benchmark, depth):
    """Interleaved push/fire/cancel — the steady-state session shape."""

    def run():
        scheduler = Scheduler()
        call_at = scheduler.call_at

        def tick(i: int) -> None:
            # Each firing schedules one replacement and one doomed
            # timer, keeping the queue at a roughly constant depth.
            if i > 0:
                call_at(scheduler.now + 1e-3, lambda: tick(i - 1))
            scheduler.cancel(call_at(scheduler.now + 0.5, _noop))

        for j in range(depth // 10):
            call_at(j * 1e-5, lambda: tick(9))
        scheduler.run()
        return scheduler.events_fired

    assert benchmark(run) == depth


def test_bench_pending_active_bookkeeping(benchmark):
    """Counter reads stay O(1) under heavy cancellation."""
    scheduler = Scheduler()
    events = [
        scheduler.call_at(float(i), _noop) for i in range(10_000)
    ]
    for event in events[::2]:
        scheduler.cancel(event)

    def read():
        return scheduler.pending_active

    assert benchmark(read) == scheduler.pending - scheduler.cancelled_pending
