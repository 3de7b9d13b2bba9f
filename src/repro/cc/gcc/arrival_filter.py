"""Inter-arrival delta computation (GCC's arrival-time filter front end).

Packets are grouped into *bursts* by send time (5 ms windows, as in
libwebrtc's ``InterArrival``); for each consecutive pair of groups the
filter emits the delay variation

    d(i) = (arrival_i - arrival_{i-1}) - (send_i - send_{i-1})

A positive d(i) means the path delayed the later group more — the raw
signal of queue growth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...rtp.feedback import PacketResult

#: Send-time window that groups packets into one burst (libwebrtc: 5 ms).
BURST_WINDOW = 0.005


@dataclass(frozen=True, slots=True)
class DelaySample:
    """One inter-group delay-variation observation."""

    arrival_time: float
    delta: float
    send_delta: float


@dataclass(slots=True)
class _Group:
    first_send: float
    last_send: float
    last_arrival: float
    size_bytes: int


class InterArrival:
    """Groups packet results into bursts and emits delay variations."""

    __slots__ = ("_window", "_current", "_previous")

    def __init__(self, burst_window: float = BURST_WINDOW) -> None:
        self._window = burst_window
        self._current: _Group | None = None
        self._previous: _Group | None = None

    def add_packets(self, results: list[PacketResult]) -> list[DelaySample]:
        """Feed acked packets (in seq order); returns new delay samples.

        Bulk rewrite of the per-packet loop: a maximal run of received
        packets that stays inside the open group's burst window is
        folded into the group in one pass. The per-packet update chain
        is ``last_send = max(last_send, send)`` / ``last_arrival =
        max(last_arrival, arrival)`` / ``size += bytes`` — chained max
        and integer sums are exactly associative, so the folded result
        is bit-identical to :meth:`_add_one` per packet. Runs split at
        burst boundaries, which is exactly where a delay sample (the
        decision input) is emitted.
        """
        samples: list[DelaySample] = []
        window = self._window
        current = self._current
        previous = self._previous
        n = len(results)
        i = 0
        while i < n:
            result = results[i]
            i += 1
            if result.arrival_time < 0:  # lost
                continue
            if current is None:
                current = _Group(
                    result.send_time,
                    result.send_time,
                    result.arrival_time,
                    result.size_bytes,
                )
                continue
            first_send = current.first_send
            if result.send_time - first_send <= window:
                # Same burst: fold the in-window received run at once.
                last_send = current.last_send
                last_arrival = current.last_arrival
                size = current.size_bytes
                while True:
                    if result.send_time > last_send:
                        last_send = result.send_time
                    if result.arrival_time > last_arrival:
                        last_arrival = result.arrival_time
                    size += result.size_bytes
                    while i < n and results[i].arrival_time < 0:
                        i += 1
                    if i >= n or results[i].send_time - first_send > window:
                        break
                    result = results[i]
                    i += 1
                current.last_send = last_send
                current.last_arrival = last_arrival
                current.size_bytes = size
                continue
            # Burst boundary: emit the delta against the previous pair
            # (the decision point that splits runs), then start fresh.
            if previous is not None:
                send_delta = current.last_send - previous.last_send
                arrival_delta = (
                    current.last_arrival - previous.last_arrival
                )
                if send_delta > 0:
                    samples.append(
                        DelaySample(
                            arrival_time=current.last_arrival,
                            delta=arrival_delta - send_delta,
                            send_delta=send_delta,
                        )
                    )
            previous = current
            current = _Group(
                result.send_time,
                result.send_time,
                result.arrival_time,
                result.size_bytes,
            )
        self._current = current
        self._previous = previous
        return samples

    def _add_one(self, result: PacketResult) -> DelaySample | None:
        """Scalar reference for :meth:`add_packets`, one received
        packet at a time; ``tests/property/test_prop_arrival_filter.py``
        checks that both give the same samples and groups."""
        if self._current is None:
            self._current = _Group(
                result.send_time,
                result.send_time,
                result.arrival_time,
                result.size_bytes,
            )
            return None
        if result.send_time - self._current.first_send <= self._window:
            # Same burst: extend.
            self._current.last_send = max(
                self._current.last_send, result.send_time
            )
            self._current.last_arrival = max(
                self._current.last_arrival, result.arrival_time
            )
            self._current.size_bytes += result.size_bytes
            return None
        # New group begins; compute the delta against the previous pair.
        sample = None
        if self._previous is not None:
            send_delta = (
                self._current.last_send - self._previous.last_send
            )
            arrival_delta = (
                self._current.last_arrival - self._previous.last_arrival
            )
            if send_delta > 0:
                sample = DelaySample(
                    arrival_time=self._current.last_arrival,
                    delta=arrival_delta - send_delta,
                    send_delta=send_delta,
                )
        self._previous = self._current
        self._current = _Group(
            result.send_time,
            result.send_time,
            result.arrival_time,
            result.size_bytes,
        )
        return sample
