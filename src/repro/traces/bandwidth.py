"""Piecewise-constant bandwidth (capacity) traces.

A :class:`BandwidthTrace` maps simulation time to bottleneck capacity in
bits/second. It is the ground truth the network link enforces and the
oracle congestion controller reads.

The representation is a sorted list of ``(start_time, rate_bps)``
breakpoints; the rate holds from each breakpoint until the next one, and
the last rate holds forever.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import TraceError


@dataclass(frozen=True)
class Segment:
    """One constant-rate span of a trace (``end`` may be ``inf``)."""

    start: float
    end: float
    rate_bps: float

    @property
    def duration(self) -> float:
        """Span length in seconds (may be infinite for the tail)."""
        return self.end - self.start


class BandwidthTrace:
    """Time-varying bottleneck capacity.

    Args:
        breakpoints: iterable of ``(start_time, rate_bps)`` pairs. Must be
            sorted by time, start at ``t <= 0`` coverage is implied by the
            first breakpoint (queried times before it return its rate),
            and all rates must be >= 0. A zero rate models a full outage:
            the link serves nothing until the next breakpoint (see
            :func:`~repro.netsim.link.service_end_time`).
    """

    def __init__(self, breakpoints: Iterable[tuple[float, float]]) -> None:
        points = [(float(t), float(r)) for t, r in breakpoints]
        if not points:
            raise TraceError("a bandwidth trace needs at least one breakpoint")
        times = [t for t, _ in points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise TraceError("breakpoint times must be strictly increasing")
        if any(r < 0 for _, r in points):
            raise TraceError("all rates must be >= 0")
        self._times = times
        self._rates = [r for _, r in points]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rate_at(self, time: float) -> float:
        """Capacity in bits/second at ``time``."""
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            index = 0
        return self._rates[index]

    def next_change_after(self, time: float) -> float | None:
        """Time of the next breakpoint strictly after ``time``, if any."""
        index = bisect.bisect_right(self._times, time)
        if index >= len(self._times):
            return None
        return self._times[index]

    def segments(self) -> list[Segment]:
        """The trace as explicit segments; the last ``end`` is ``inf``."""
        out = []
        for i, (start, rate) in enumerate(zip(self._times, self._rates)):
            end = self._times[i + 1] if i + 1 < len(self._times) else float("inf")
            out.append(Segment(start, end, rate))
        return out

    def breakpoints(self) -> list[tuple[float, float]]:
        """The raw ``(time, rate)`` pairs (a copy)."""
        return list(zip(self._times, self._rates))

    def bits_between(self, start: float, end: float) -> float:
        """Total bits the bottleneck can serve in ``[start, end]``.

        Consistent with :meth:`rate_at`: times before the first
        breakpoint carry the first rate.
        """
        if end < start:
            raise TraceError(f"end {end} precedes start {start}")
        total = 0.0
        first_time = self._times[0]
        if start < first_time:
            covered_end = min(end, first_time)
            total += (covered_end - start) * self._rates[0]
        for seg in self.segments():
            lo = max(start, seg.start)
            hi = min(end, seg.end)
            if hi > lo:
                total += (hi - lo) * seg.rate_bps
        return total

    def mean_rate(self, start: float, end: float) -> float:
        """Average capacity over ``[start, end]`` in bits/second."""
        if end <= start:
            raise TraceError(f"need end > start, got [{start}, {end}]")
        return self.bits_between(start, end) / (end - start)

    def min_rate(self, start: float | None = None, end: float | None = None) -> float:
        """Minimum capacity over a window (whole trace by default)."""
        if start is None and end is None:
            return min(self._rates)
        lo = start if start is not None else self._times[0]
        hi = end if end is not None else float("inf")
        rates = [
            seg.rate_bps
            for seg in self.segments()
            if seg.end > lo and seg.start < hi
        ]
        if lo < self._times[0] and hi > lo:
            rates.append(self._rates[0])
        if not rates:
            raise TraceError(f"window [{lo}, {hi}] covers no trace segment")
        return min(rates)

    # ------------------------------------------------------------------
    # Derived traces
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "BandwidthTrace":
        """A copy with every rate multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise TraceError(f"scale factor must be positive, got {factor!r}")
        return BandwidthTrace(
            (t, r * factor) for t, r in zip(self._times, self._rates)
        )

    def shifted(self, offset: float) -> "BandwidthTrace":
        """A copy with all breakpoint times moved by ``offset`` seconds."""
        return BandwidthTrace(
            (t + offset, r) for t, r in zip(self._times, self._rates)
        )

    @staticmethod
    def constant(rate_bps: float) -> "BandwidthTrace":
        """A trace with a single unchanging rate."""
        return BandwidthTrace([(0.0, rate_bps)])

    @staticmethod
    def from_samples(
        times: Sequence[float], rates: Sequence[float]
    ) -> "BandwidthTrace":
        """Build from parallel sequences, merging equal-rate neighbours."""
        if len(times) != len(rates):
            raise TraceError("times and rates must have equal length")
        merged: list[tuple[float, float]] = []
        for t, r in zip(times, rates):
            if merged and merged[-1][1] == r:
                continue
            merged.append((t, r))
        return BandwidthTrace(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandwidthTrace):
            return NotImplemented
        return self._times == other._times and self._rates == other._rates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = list(zip(self._times, self._rates))[:4]
        suffix = "..." if len(self._times) > 4 else ""
        return f"BandwidthTrace({head}{suffix})"
