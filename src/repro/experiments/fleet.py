"""Population scenarios over the SFU fleet: churn, flash crowds, faults.

Each scenario builds one :class:`~repro.fleet.FleetConfig` per seed —
a two-region fleet with a deliberately tight shared downlink — and the
whole grid goes through one :func:`~repro.pipeline.parallel.run_many`
call, so fleet cells cache, parallelize, supervise, and shard exactly
like single-session cells. Each cell's row carries population-level
QoE (p50/p95/p99 latency, freeze ratio, SSIM) plus the per-region split
that makes a regional fault's blast radius visible.

Determinism contract: same (scenario, seed, subscribers, duration) ⇒
byte-identical rows in every format on any backend (enforced by the
``fleet-smoke`` CI job, serial vs ``--workers 2``).
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigError
from ..faults.spec import FaultKind, FaultSchedule, FaultSpec
from ..fleet import FleetConfig, FleetResult, two_region_fleet
from ..pipeline.supervisor import FailedSession
from .scenarios import failed_row

#: Default capture duration for fleet cells (population dynamics —
#: initial contention, downgrades, probe recovery — play out within a
#: few seconds at fleet scale; long tails just repeat the equilibrium).
DURATION = 12.0

#: Default total subscriber population (split over the two regions).
SUBSCRIBERS = 40

#: Regional-degradation timing, as fractions of the duration.
DEGRADE_START_FRAC = 0.4
DEGRADE_LEN_FRAC = 0.3

#: The degraded region's downlink is clamped to this fraction of its
#: *all-low-layer* aggregate — below what the settled population needs,
#: so the fault bites even after everyone has downshifted.
DEGRADE_FLOOR_OF_LOW_AGGREGATE = 0.5


def _per_region(subscribers: int) -> int:
    return max(1, subscribers // 2)


def _steady(seed: int, subscribers: int, duration: float) -> FleetConfig:
    """Full-session membership, tight shared downlinks, no faults."""
    return two_region_fleet(
        _per_region(subscribers), duration=duration, seed=seed
    )


def _churn(seed: int, subscribers: int, duration: float) -> FleetConfig:
    """Deterministic join/leave churn across the population."""
    return two_region_fleet(
        _per_region(subscribers), duration=duration, seed=seed, churn=True
    )


def _flash_crowd(
    seed: int, subscribers: int, duration: float
) -> FleetConfig:
    """Half the population joins at once, 40% into the session."""
    return two_region_fleet(
        _per_region(subscribers),
        duration=duration,
        seed=seed,
        flash_crowd_at=duration * 0.4,
        flash_crowd_fraction=0.5,
    )


def _regional_degradation(
    seed: int, subscribers: int, duration: float
) -> FleetConfig:
    """Region ``b``'s shared downlink collapses mid-session.

    The clamp floor sits below the region's all-low-layer aggregate, so
    even a fully downshifted population overruns the faulted link —
    region ``b``'s tail latency and freezes move, region ``a``'s do
    not.
    """
    per_region = _per_region(subscribers)
    base = two_region_fleet(per_region, duration=duration, seed=seed)
    low_rate = min(layer.target_bps for layer in base.layers)
    floor = per_region * low_rate * DEGRADE_FLOOR_OF_LOW_AGGREGATE
    schedule = FaultSchedule.of(
        FaultSpec(
            kind=FaultKind.CAPACITY_OUTAGE,
            start=duration * DEGRADE_START_FRAC,
            duration=duration * DEGRADE_LEN_FRAC,
            rate_bps=floor,
        )
    )
    return dataclasses.replace(
        base, faults=schedule, faulted_region="b"
    )


#: Named scenario builders:
#: ``name -> f(seed, subscribers, duration) -> FleetConfig``.
SCENARIOS = {
    "steady": _steady,
    "churn": _churn,
    "flash_crowd": _flash_crowd,
    "regional_degradation": _regional_degradation,
}

#: Scenarios exercised when the caller does not pick.
DEFAULT_SCENARIOS = ("steady", "churn", "regional_degradation")

#: The metric fields of a cell's row, in column order (``None`` on a
#: failed row): population latency percentiles, freeze ratio and SSIM,
#: fleet-wide layer switches and PLIs, and the per-region p95 split
#: (the canonical scenarios are all two-region fleets).
METRICS = (
    "sessions",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "freeze_ratio",
    "mean_ssim",
    "layer_switches",
    "plis",
    "region_a_p95_ms",
    "region_b_p95_ms",
)


# ----------------------------------------------------------------------
# Planning and folding
# ----------------------------------------------------------------------
def plan_batch(
    scenario_names: tuple[str, ...] = DEFAULT_SCENARIOS,
    seeds: tuple[int, ...] = (1,),
    subscribers: int = SUBSCRIBERS,
    duration: float = DURATION,
) -> list[FleetConfig]:
    """The grid's deterministic config batch, scenario-major.

    Raises:
        ConfigError: an unknown scenario, no scenario or seed, fewer
            than two subscribers, or a non-positive duration.
    """
    for name in scenario_names:
        if name not in SCENARIOS:
            raise ConfigError(
                f"unknown fleet scenario {name!r}; "
                f"known: {sorted(SCENARIOS)}"
            )
    if not scenario_names or not seeds:
        raise ConfigError("fleet grid needs at least one scenario and seed")
    if subscribers < 2:
        raise ConfigError("fleet grid needs at least two subscribers")
    if duration <= 0:
        raise ConfigError("fleet grid duration must be positive")
    return [
        SCENARIOS[name](seed, subscribers, duration)
        for name in scenario_names
        for seed in seeds
    ]


def rows_from_results(
    results: list,
    scenario_names: tuple[str, ...],
    seeds: tuple[int, ...],
) -> list[dict]:
    """Fold a result list (in :func:`plan_batch` order) into one JSON
    row per (scenario, seed) cell."""
    iterator = iter(results)
    nan = float("nan")
    rows: list[dict] = []
    for name in scenario_names:
        for seed in seeds:
            result = next(iterator)
            labels = {"scenario": name, "seed": seed}
            if isinstance(result, FailedSession):
                rows.append(failed_row(labels, METRICS, [result]))
                continue
            assert isinstance(result, FleetResult)
            latency = result.population["latency_ms"]
            rows.append({
                **labels,
                "sessions": result.subscribers,
                "p50_ms": latency["p50"] if latency["p50"] is not None
                else nan,
                "p95_ms": latency["p95"] if latency["p95"] is not None
                else nan,
                "p99_ms": latency["p99"] if latency["p99"] is not None
                else nan,
                "freeze_ratio": result.population["freeze_ratio"],
                "mean_ssim": result.population["mean_ssim"],
                "layer_switches": result.totals["layer_switches"],
                "plis": result.totals["plis"],
                "region_a_p95_ms": result.region_latency_ms("a") or nan,
                "region_b_p95_ms": result.region_latency_ms("b") or nan,
                "failed": None,
            })
    return rows
