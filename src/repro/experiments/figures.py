"""Figure data generators (the poster's plots, as data series).

Each figure is a ``plan_figureN`` that returns its batch and a
``figureN`` that folds the batch's results into plain data (a dict of
series); the ``figure*`` artifacts of
:mod:`repro.experiments.artifacts` write each series as one JSON row,
which :func:`format_figure` renders, and tests assert on their shape. No plotting dependency is required — the series are the
reproduction artifact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..metrics.latency import cdf
from ..metrics.summary import format_series
from ..pipeline.config import PolicyName, SessionConfig
from ..pipeline.results import SessionResult
from ..pipeline.supervisor import failure_label, split_failures
from . import scenarios


@dataclass
class Series:
    """One plotted line.

    ``failed`` is ``None`` on the normal path; under supervised
    execution a quarantined source session produces an empty series
    carrying the ``FAILED(<reason>)`` marker instead of aborting the
    figure.
    """

    name: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)
    failed: str | None = None


def _failed_series(name: str, failures) -> Series:
    return Series(name=name, failed=failure_label(failures))


def _latency_timeline(result: SessionResult) -> Series:
    series = Series(name=f"latency[{result.policy}]")
    for outcome in result.frames:
        latency = outcome.latency()
        if latency is not None:
            series.x.append(outcome.capture_time)
            series.y.append(latency)
    return series


def _pair(config: SessionConfig) -> list[SessionConfig]:
    """``config`` under the baseline, then under the adaptive policy."""
    return [
        dataclasses.replace(config, policy=policy)
        for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
    ]


# ----------------------------------------------------------------------
# Figure 1 — motivation: bitrate/capacity mismatch creates the spike
# ----------------------------------------------------------------------
def plan_figure1(
    drop_ratio: float = 0.2, seed: int = 1
) -> list[SessionConfig]:
    """Figure 1's batch: the baseline on one drop."""
    config = scenarios.step_drop_config(drop_ratio, seed=seed)
    return [dataclasses.replace(config, policy=PolicyName.WEBRTC)]


def figure1(results: list[SessionResult]) -> dict[str, Series]:
    """Baseline timeline: capacity, CC target, and frame latency."""
    [result] = results
    _ok, failures = split_failures([result])
    if failures:
        return {
            name: _failed_series(name, failures)
            for name in ("capacity", "target", "latency")
        }
    capacity = Series(name="capacity")
    target = Series(name="gcc_target")
    for sample in result.timeseries:
        capacity.x.append(sample.time)
        capacity.y.append(sample.capacity_bps)
        target.x.append(sample.time)
        target.y.append(sample.target_bps)
    return {
        "capacity": capacity,
        "target": target,
        "latency": _latency_timeline(result),
    }


# ----------------------------------------------------------------------
# Figure 2 — frame latency timeline, baseline vs adaptive
# ----------------------------------------------------------------------
def plan_figure2(
    drop_ratio: float = 0.2, seed: int = 1
) -> list[SessionConfig]:
    """Figure 2's batch: both policies on the same drop."""
    return _pair(scenarios.step_drop_config(drop_ratio, seed=seed))


def figure2(results: list[SessionResult]) -> dict[str, Series]:
    """Latency over time for both policies on the same drop."""
    out: dict[str, Series] = {}
    for name, result in zip(("baseline", "adaptive"), results):
        _ok, failures = split_failures([result])
        out[name] = (
            _failed_series(name, failures)
            if failures
            else _latency_timeline(result)
        )
    return out


# ----------------------------------------------------------------------
# Figure 3 — latency CDF over a multi-drop session
# ----------------------------------------------------------------------
def plan_figure3(seed: int = 1) -> list[SessionConfig]:
    """Figure 3's batch: both policies on five drops of mixed severity."""
    return _pair(scenarios.multi_drop_config(seed=seed))


def figure3(results: list[SessionResult]) -> dict[str, Series]:
    """Per-frame latency CDFs across five drops of mixed severity."""
    out: dict[str, Series] = {}
    policies = (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
    for policy, result in zip(policies, results):
        name = f"latency_cdf[{policy.value}]"
        _ok, failures = split_failures([result])
        if failures:
            out[policy.value] = _failed_series(name, failures)
            continue
        values, probs = cdf(result.latencies())
        out[policy.value] = Series(
            name=name,
            x=[float(v) for v in values],
            y=[float(p) for p in probs],
        )
    return out


# ----------------------------------------------------------------------
# Figure 4 — reduction & quality delta vs drop severity
# ----------------------------------------------------------------------
def plan_figure4(
    ratios: tuple[float, ...] = (0.8, 0.6, 0.45, 0.3, 0.2, 0.12),
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[SessionConfig]:
    """Figure 4's batch: per ratio and seed, the baseline then adaptive."""
    return [
        config
        for ratio in ratios
        for seed in seeds
        for config in _pair(scenarios.step_drop_config(ratio, seed=seed))
    ]


def figure4(
    results: list[SessionResult],
    ratios: tuple[float, ...] = (0.8, 0.6, 0.45, 0.3, 0.2, 0.12),
    seeds: tuple[int, ...] = (1, 2, 3),
) -> dict[str, Series]:
    """Sweep severity; x = surviving capacity fraction."""
    start, end = scenarios.DROP_WINDOW
    reduction = Series(name="latency_reduction_pct")
    ssim_change = Series(name="ssim_change_pct")
    cursor = 0
    failed_points: list = []
    for ratio in ratios:
        reds, dss = [], []
        point = results[cursor:cursor + 2 * len(seeds)]
        _ok, failures = split_failures(point)
        if failures:
            # Skip the severity point but keep the sweep going.
            failed_points.extend(failures)
            cursor += 2 * len(seeds)
            continue
        for _ in seeds:
            base, adap = results[cursor], results[cursor + 1]
            cursor += 2
            reds.append(
                (1 - adap.mean_latency(start, end)
                 / base.mean_latency(start, end)) * 100
            )
            dss.append(
                (adap.mean_displayed_ssim()
                 / base.mean_displayed_ssim() - 1) * 100
            )
        reduction.x.append(ratio)
        reduction.y.append(float(np.mean(reds)))
        ssim_change.x.append(ratio)
        ssim_change.y.append(float(np.mean(dss)))
    if failed_points:
        # Surviving points keep their data; the marker records the gap.
        marker = failure_label(failed_points)
        reduction.failed = marker
        ssim_change.failed = marker
    return {"reduction": reduction, "ssim_change": ssim_change}


def format_figure(rows: list[dict], title: str) -> str:
    """The title, then one aligned x/y column block per series row
    (its ``key``, ``x`` and ``y`` fields), which ends in the row's
    ``FAILED(...)`` marker when it has one."""
    blocks = [title]
    for row in rows:
        block = format_series(row["key"], row["x"], row["y"], "x", "y")
        if row["failed"] is not None:
            block += "\n" + row["failed"]
        blocks.append(block)
    return "\n\n".join(blocks)
