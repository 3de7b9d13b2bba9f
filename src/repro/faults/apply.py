"""Build-time fault application: capacity rewrites and windowed loss.

Two fault families are applied *constructively*, before the simulation
starts, rather than by runtime timers:

* **Capacity faults** (``capacity_outage``, ``link_flap``) rewrite the
  bottleneck's :class:`~repro.traces.BandwidthTrace`. This preserves the
  link's mid-packet capacity integration exactly — a packet in service
  when the outage hits stalls in place, just like a sudden drop from the
  original trace would slow it.
* **Loss storms** wrap the channel loss model in a
  :class:`WindowedLoss` that consults a per-storm Gilbert–Elliott chain
  inside each window and falls back to the base model outside.

Both are pure functions of (config, schedule, seed): no wall-clock, no
shared state, so faulted runs stay bit-reproducible.
"""

from __future__ import annotations

from ..netsim.loss import GilbertElliott, LossModel, NoLoss
from ..netsim.packet import Packet
from ..simcore.clock import Clock
from ..simcore.rng import RngStreams
from ..traces.bandwidth import BandwidthTrace
from .spec import CAPACITY_KINDS, FaultKind, FaultSchedule


def capacity_fault_windows(
    schedule: FaultSchedule,
) -> list[tuple[float, float, float]]:
    """``(start, end, floor_bps)`` clamps implied by the schedule.

    A ``capacity_outage`` clamps its whole window to ``rate_bps``; a
    ``link_flap`` expands into alternating dead spans (``down_time`` at
    rate 0, then ``up_time`` untouched) across its window.
    """
    windows: list[tuple[float, float, float]] = []
    for spec in schedule.by_kind(*CAPACITY_KINDS):
        if spec.kind is FaultKind.CAPACITY_OUTAGE:
            windows.append((spec.start, spec.end, spec.rate_bps))
            continue
        t = spec.start
        while t < spec.end:
            down_end = min(t + spec.down_time, spec.end)
            windows.append((t, down_end, 0.0))
            t = down_end + spec.up_time
    return sorted(windows)


def faulted_capacity(
    trace: BandwidthTrace, schedule: FaultSchedule
) -> BandwidthTrace:
    """``trace`` with the schedule's capacity clamps applied.

    The effective rate at any time is the minimum of the underlying
    trace and every active clamp, so overlapping faults compose (the
    harshest one wins). Returns ``trace`` itself when the schedule has
    no capacity faults.
    """
    windows = capacity_fault_windows(schedule)
    if not windows:
        return trace
    boundaries = {t for t, _ in trace.breakpoints()}
    for start, end, _ in windows:
        boundaries.add(start)
        boundaries.add(end)
    times = sorted(boundaries)
    rates = []
    for t in times:
        rate = trace.rate_at(t)
        for start, end, floor in windows:
            if start <= t < end:
                rate = min(rate, floor)
        rates.append(rate)
    return BandwidthTrace.from_samples(times, rates)


class WindowedLoss(LossModel):
    """Channel loss that switches models inside fault windows.

    Args:
        clock: the simulation clock (loss is evaluated at serialization
            end, so the decision time is the clock's *now*).
        base: model in effect outside every storm window.
        storms: ``(start, end, model)`` windows; the first window
            containing *now* wins.
    """

    def __init__(
        self,
        clock: Clock,
        base: LossModel,
        storms: list[tuple[float, float, LossModel]],
    ) -> None:
        self._clock = clock
        self._base = base
        self._storms = list(storms)

    def should_drop(self, packet: Packet) -> bool:
        now = self._clock._now
        for start, end, model in self._storms:
            if start <= now < end:
                return model.should_drop(packet)
        return self._base.should_drop(packet)


def faulted_loss(
    schedule: FaultSchedule,
    base: LossModel | None,
    rng: RngStreams,
    clock: Clock,
) -> LossModel | None:
    """The channel loss model with the schedule's loss storms applied.

    Each ``loss_storm`` becomes its own Gilbert–Elliott chain on its own
    named RNG stream (draws inside one storm never perturb another).
    Returns ``base`` unchanged when the schedule has no storms.
    """
    storms = schedule.by_kind(FaultKind.LOSS_STORM)
    if not storms:
        return base
    windows: list[tuple[float, float, LossModel]] = []
    for index, spec in enumerate(storms):
        model = GilbertElliott(
            p_good_to_bad=1.0 / spec.gap_packets,
            p_bad_to_good=1.0 / spec.burst_packets,
            loss_good=0.0,
            loss_bad=spec.probability,
            rng=rng,
            stream=f"fault-loss-storm-{index}",
        )
        windows.append((spec.start, spec.end, model))
    return WindowedLoss(clock, base or NoLoss(), windows)
