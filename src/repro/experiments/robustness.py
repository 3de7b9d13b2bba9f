"""Robustness matrix: scenario × fault grid with a degradation report.

Every cell runs the same (scenario, policy, seed) session twice — once
clean, once with a canonical :class:`~repro.faults.FaultSchedule` — and
reports how much the fault degraded the call:

* **Δp95 latency** and **ΔSSIM** over the post-warm-up window;
* **Δfreeze** (change in frozen-slot fraction);
* **recovery time**: how long after each fault window closed until a
  fresh frame reached the screen at near-baseline latency.

Everything goes through :func:`~repro.pipeline.parallel.run_many`, so
the grid caches, parallelizes, and stays bit-identical across workers:
same seeds + same grid = byte-identical rows in every format (enforced
by the ``chaos-smoke`` CI job).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ConfigError
from ..faults.spec import FaultKind, FaultSchedule, FaultSpec
from ..pipeline.config import NetworkConfig, PolicyName, SessionConfig, VideoConfig
from ..pipeline.results import SessionResult
from ..pipeline.supervisor import split_failures
from ..traces.bandwidth import BandwidthTrace
from ..traces.content import ContentClass
from ..units import mbps
from . import scenarios

#: When the canonical fault windows open (s into the session).
FAULT_AT = 8.0

#: Default session length for the matrix (shorter than the Table 1
#: sessions — every cell is a *pair* of runs).
DURATION = 20.0

#: Metrics window start: skip congestion-control warm-up.
MEASURE_FROM = 2.0

#: A slot counts as "recovered" once a displayed frame captured after
#: the fault window lands within ``factor × baseline`` mean latency
#: (with an absolute slack floor for very low-latency baselines).
RECOVERY_LATENCY_FACTOR = 1.2
RECOVERY_LATENCY_SLACK = 0.03


# ----------------------------------------------------------------------
# Scenario and fault grids
# ----------------------------------------------------------------------
def _steady_config(seed: int, duration: float) -> SessionConfig:
    """Constant capacity at the canonical base rate."""
    return SessionConfig(
        network=NetworkConfig(
            capacity=BandwidthTrace.constant(scenarios.BASE_RATE_BPS),
            queue_bytes=scenarios.QUEUE_BYTES,
        ),
        video=VideoConfig(content_class=ContentClass.TALKING_HEAD),
        duration=duration,
        seed=seed,
        adaptive=scenarios.ADAPTIVE_TUNING,
    )


def _drop_config(ratio: float):
    def build(seed: int, duration: float) -> SessionConfig:
        return dataclasses.replace(
            scenarios.step_drop_config(ratio, seed=seed),
            duration=duration,
        )

    return build


#: Named scenario builders: ``name -> f(seed, duration) -> SessionConfig``.
SCENARIOS = {
    "steady": _steady_config,
    "drop45": _drop_config(0.45),
    "drop20": _drop_config(0.20),
}

#: Scenarios exercised when the caller does not pick.
DEFAULT_SCENARIOS = ("steady", "drop45")


def fault_suite(at: float = FAULT_AT) -> dict[str, FaultSchedule]:
    """The canonical named schedules: one per fault kind plus a combo.

    Windows open at ``at`` seconds and close within 4 s, leaving the
    tail of a :data:`DURATION` session to observe recovery.
    """
    k = FaultKind
    return {
        "feedback_blackout": FaultSchedule.of(
            FaultSpec(k.FEEDBACK_BLACKOUT, at, 2.0)
        ),
        "rtcp_delay": FaultSchedule.of(
            FaultSpec(k.RTCP_DELAY, at, 3.0, delay=0.25)
        ),
        "encoder_stall": FaultSchedule.of(
            FaultSpec(k.ENCODER_STALL, at, 1.0)
        ),
        "keyframe_storm": FaultSchedule.of(
            FaultSpec(k.KEYFRAME_STORM, at, 2.0, interval=0.2)
        ),
        "capacity_outage": FaultSchedule.of(
            FaultSpec(k.CAPACITY_OUTAGE, at, 1.5, rate_bps=0.0)
        ),
        "link_flap": FaultSchedule.of(
            FaultSpec(k.LINK_FLAP, at, 3.0, up_time=0.7, down_time=0.3)
        ),
        "loss_storm": FaultSchedule.of(
            FaultSpec(
                k.LOSS_STORM,
                at,
                3.0,
                probability=1.0,
                burst_packets=8.0,
                gap_packets=32.0,
            )
        ),
        "cross_traffic_surge": FaultSchedule.of(
            FaultSpec(k.CROSS_TRAFFIC_SURGE, at, 4.0, rate_bps=mbps(1.5))
        ),
        "blackout_plus_outage": FaultSchedule.of(
            FaultSpec(k.FEEDBACK_BLACKOUT, at, 2.0),
            FaultSpec(k.CAPACITY_OUTAGE, at + 0.5, 1.5, rate_bps=0.0),
        ),
    }


#: Canonical fault names (stable order; used by the CLI's choices).
FAULT_NAMES = tuple(fault_suite())

#: Faults exercised when the caller does not pick.
DEFAULT_FAULTS = FAULT_NAMES

#: Policies exercised when the caller does not pick.
DEFAULT_POLICIES = (PolicyName.ADAPTIVE, PolicyName.WEBRTC)


# ----------------------------------------------------------------------
# Degradation metrics
# ----------------------------------------------------------------------
#: The metric fields of a cell's row, in column order (``None`` on a
#: failed row): the clean and faulted runs' window metrics, the
#: ``delta_* = faulted - baseline`` changes, the mean recovery time
#: over the (seed, fault-spec) pairs that recovered (``None`` when none
#: did) and how many pairs never recovered before the session ended.
METRICS = (
    "baseline_p95_ms",
    "faulted_p95_ms",
    "delta_p95_ms",
    "baseline_ssim",
    "faulted_ssim",
    "delta_ssim",
    "delta_freeze",
    "recovery_s",
    "unrecovered",
)


def recovery_time(
    result: SessionResult, fault_end: float, baseline_mean_latency: float
) -> float | None:
    """Seconds from ``fault_end`` until the call is back to normal.

    "Back to normal" is the first displayed frame captured at or after
    ``fault_end`` whose capture→display latency is within
    :data:`RECOVERY_LATENCY_FACTOR` of the clean run's mean (plus an
    absolute slack floor). ``None`` when no such frame exists.
    """
    threshold = max(
        RECOVERY_LATENCY_FACTOR * baseline_mean_latency,
        baseline_mean_latency + RECOVERY_LATENCY_SLACK,
    )
    for outcome in result.frames:
        if outcome.capture_time < fault_end:
            continue
        latency = outcome.latency()
        if latency is not None and latency <= threshold:
            return outcome.capture_time - fault_end
    return None


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def validate_grid(
    scenario_names: tuple[str, ...],
    fault_names: tuple[str, ...],
    seeds: tuple[int, ...],
    duration: float,
    fault_at: float,
) -> dict[str, FaultSchedule]:
    """Validate matrix parameters; returns the fault suite.

    Raises:
        ConfigError: unknown scenario/fault, no scenario, fault or
            seed, or a session too short to contain the fault windows.
    """
    suite = fault_suite(fault_at)
    for name in scenario_names:
        if name not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
            )
    for name in fault_names:
        if name not in suite:
            raise ConfigError(
                f"unknown fault {name!r}; known: {sorted(suite)}"
            )
    if not scenario_names or not fault_names or not seeds:
        raise ConfigError("need at least one scenario, fault and seed")
    if duration <= fault_at:
        raise ConfigError(
            f"duration {duration!r} must exceed fault_at {fault_at!r}"
        )
    return suite


def plan_batch(
    scenario_names: tuple[str, ...],
    fault_names: tuple[str, ...],
    policies: tuple[PolicyName, ...],
    seeds: tuple[int, ...],
    duration: float = DURATION,
    fault_at: float = FAULT_AT,
) -> list[SessionConfig]:
    """Deterministically enumerate the matrix's session batch.

    One flat batch in a fixed order — baseline then each fault, per
    (scenario, policy, seed) — so results can be folded back without
    any side channel. :func:`rows_from_results` consumes exactly this
    order; the shard fabric plans, caches, and merges over it.
    """
    suite = validate_grid(
        scenario_names, fault_names, seeds, duration, fault_at
    )
    batch: list[SessionConfig] = []
    for scenario in scenario_names:
        build = SCENARIOS[scenario]
        for policy in policies:
            for seed in seeds:
                base = dataclasses.replace(
                    build(seed, duration), policy=policy
                )
                batch.append(base)
                for fault in fault_names:
                    batch.append(
                        dataclasses.replace(base, faults=suite[fault])
                    )
    return batch


def rows_from_results(
    results_list,
    scenario_names: tuple[str, ...],
    fault_names: tuple[str, ...],
    policies: tuple[PolicyName, ...],
    seeds: tuple[int, ...],
    duration: float = DURATION,
    fault_at: float = FAULT_AT,
) -> list[dict]:
    """Fold a result list (in :func:`plan_batch` order) into one JSON
    row per (scenario, fault, policy) cell, seed-averaged.

    A quarantined session (as
    :class:`~repro.pipeline.supervisor.FailedSession`), clean or
    faulted, makes only its own cells failed rows.
    """
    suite = validate_grid(
        scenario_names, fault_names, seeds, duration, fault_at
    )
    results = iter(results_list)

    window = (MEASURE_FROM, duration)
    rows: list[dict] = []
    for scenario in scenario_names:
        for policy in policies:
            per_fault: dict[str, dict[str, list[float]]] = {
                fault: {
                    "p95": [], "ssim": [], "freeze": [], "recovery": []
                }
                for fault in fault_names
            }
            unrecovered = {fault: 0 for fault in fault_names}
            base_failures: list = []
            fault_failures: dict[str, list] = {
                fault: [] for fault in fault_names
            }
            base_p95, base_ssim, base_freeze = [], [], []
            for _seed in seeds:
                baseline = next(results)
                _ok, broken = split_failures([baseline])
                if broken:
                    base_failures.extend(broken)
                    base_mean = None
                else:
                    base_mean = baseline.mean_latency(*window)
                    base_p95.append(
                        baseline.percentile_latency(95, *window)
                    )
                    base_ssim.append(
                        baseline.mean_displayed_ssim(*window)
                    )
                    base_freeze.append(baseline.freeze_fraction(*window))
                for fault in fault_names:
                    faulted = next(results)
                    _ok, broken = split_failures([faulted])
                    if broken:
                        fault_failures[fault].extend(broken)
                        continue
                    bucket = per_fault[fault]
                    bucket["p95"].append(
                        faulted.percentile_latency(95, *window)
                    )
                    bucket["ssim"].append(
                        faulted.mean_displayed_ssim(*window)
                    )
                    bucket["freeze"].append(
                        faulted.freeze_fraction(*window)
                    )
                    if base_mean is None:
                        # Recovery is measured against the same-seed
                        # clean run; without it the notion is undefined.
                        continue
                    for spec in suite[fault]:
                        fault_end = min(spec.end, duration)
                        rec = recovery_time(faulted, fault_end, base_mean)
                        if rec is None:
                            unrecovered[fault] += 1
                        else:
                            bucket["recovery"].append(rec)
            for fault in fault_names:
                labels = {
                    "scenario": scenario,
                    "fault": fault,
                    "policy": policy.value,
                }
                broken = base_failures + fault_failures[fault]
                if broken:
                    rows.append(
                        scenarios.failed_row(labels, METRICS, broken)
                    )
                    continue
                mean_base_p95 = float(np.mean(base_p95))
                mean_base_ssim = float(np.mean(base_ssim))
                mean_base_freeze = float(np.mean(base_freeze))
                bucket = per_fault[fault]
                p95 = float(np.mean(bucket["p95"]))
                ssim = float(np.mean(bucket["ssim"]))
                freeze = float(np.mean(bucket["freeze"]))
                rows.append({
                    **labels,
                    "baseline_p95_ms": mean_base_p95 * 1e3,
                    "faulted_p95_ms": p95 * 1e3,
                    "delta_p95_ms": (p95 - mean_base_p95) * 1e3,
                    "baseline_ssim": mean_base_ssim,
                    "faulted_ssim": ssim,
                    "delta_ssim": ssim - mean_base_ssim,
                    "delta_freeze": freeze - mean_base_freeze,
                    "recovery_s": (
                        float(np.mean(bucket["recovery"]))
                        if bucket["recovery"]
                        else None
                    ),
                    "unrecovered": unrecovered[fault],
                    "failed": None,
                })
    return rows
