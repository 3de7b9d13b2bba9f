"""Ablations over the adaptive controller's design choices.

* **Ablation A** — detector signals: each of the three inputs alone vs
  the fused detector.
* **Ablation B** — strategies: renormalize only, + drain budget, + skip.
* **Ablation C** — sensitivity to RTT and feedback interval.
* **Ablation D** — sensitivity to buffer depth and content class.

Each ablation returns its variants (see
:func:`~repro.experiments.scenarios.fold_variants`); the registry in
:mod:`repro.experiments.artifacts` runs their batch and folds each
variant into one :func:`averaged_row`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..core.config import AdaptiveConfig, DetectorConfig
from ..pipeline.config import PolicyName, SessionConfig
from ..pipeline.results import SessionResult
from ..pipeline.supervisor import failure_label, split_failures
from ..units import ms
from . import scenarios
from .scenarios import Variant


@dataclass(frozen=True)
class AblationRow:
    """Latency/quality of one controller variant on one scenario.

    ``failed`` is ``None`` on the normal path; under supervised
    execution a quarantined session yields NaN metrics plus the
    ``FAILED(<reason>)`` marker.
    """

    variant: str
    mean_latency: float
    p95_latency: float
    mean_ssim: float
    failed: str | None = None


def _variant_configs(
    drop_ratio: float,
    seeds: tuple[int, ...],
    adaptive: AdaptiveConfig | None = None,
    detector: DetectorConfig | None = None,
    rtt: float | None = None,
    feedback_interval: float | None = None,
) -> list[SessionConfig]:
    configs = []
    for seed in seeds:
        config = scenarios.step_drop_config(drop_ratio, seed=seed)
        config = dataclasses.replace(config, policy=PolicyName.ADAPTIVE)
        if adaptive is not None:
            config = dataclasses.replace(config, adaptive=adaptive)
        if detector is not None:
            config = dataclasses.replace(config, detector=detector)
        if rtt is not None:
            config = scenarios.with_rtt(config, rtt)
        if feedback_interval is not None:
            config = dataclasses.replace(
                config, feedback_interval=feedback_interval
            )
        configs.append(config)
    return configs


def averaged_row(variant: str, results: list[SessionResult]) -> AblationRow:
    """One variant's seed-averaged row (a ``FAILED(...)`` row when any
    of its sessions was quarantined)."""
    _ok, failures = split_failures(results)
    if failures:
        nan = float("nan")
        return AblationRow(
            variant=variant,
            mean_latency=nan,
            p95_latency=nan,
            mean_ssim=nan,
            failed=failure_label(failures),
        )
    start, end = scenarios.DROP_WINDOW
    lat, p95, ssim = [], [], []
    for result in results:
        lat.append(result.mean_latency(start, end))
        p95.append(result.percentile_latency(95, start, end))
        ssim.append(result.mean_displayed_ssim())
    return AblationRow(
        variant=variant,
        mean_latency=float(np.mean(lat)),
        p95_latency=float(np.mean(p95)),
        mean_ssim=float(np.mean(ssim)),
    )


def detector_ablation(
    drop_ratio: float = 0.2,
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[Variant]:
    """Ablation A: individual detector signals vs the fusion."""
    variants = [
        ("kink only", DetectorConfig(
            use_throughput_kink=True, use_overuse=False,
            use_pacer_queue=False)),
        ("overuse only", DetectorConfig(
            use_throughput_kink=False, use_overuse=True,
            use_pacer_queue=False)),
        ("pacer only", DetectorConfig(
            use_throughput_kink=False, use_overuse=False,
            use_pacer_queue=True)),
        ("fused (all)", DetectorConfig()),
    ]
    return [
        (name, _variant_configs(drop_ratio, seeds, detector=det))
        for name, det in variants
    ]


def strategy_ablation(
    drop_ratio: float = 0.2,
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[Variant]:
    """Ablation B: build the controller up one strategy at a time."""
    base = scenarios.ADAPTIVE_TUNING
    variants = [
        ("renormalize only", dataclasses.replace(
            base, enable_drain_budget=False, enable_skip=False)),
        ("+ drain budget", dataclasses.replace(base, enable_skip=False)),
        ("+ skip (full)", base),
        ("no renormalize", dataclasses.replace(
            base, enable_renormalize=False)),
    ]
    return [
        (name, _variant_configs(drop_ratio, seeds, adaptive=cfg))
        for name, cfg in variants
    ]


def rtt_sensitivity(
    drop_ratio: float = 0.2,
    rtts: tuple[float, ...] = (ms(20), ms(40), ms(80), ms(160)),
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[Variant]:
    """Ablation C1: detection/feedback delay grows with RTT."""
    return [
        (
            f"rtt={rtt * 1e3:.0f}ms",
            _variant_configs(drop_ratio, seeds, rtt=rtt),
        )
        for rtt in rtts
    ]


def feedback_interval_sensitivity(
    drop_ratio: float = 0.2,
    intervals: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2),
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[Variant]:
    """Ablation C2: TWCC cadence bounds reaction time."""
    return [
        (
            f"fb={interval * 1e3:.0f}ms",
            _variant_configs(
                drop_ratio, seeds, feedback_interval=interval
            ),
        )
        for interval in intervals
    ]


def _paired_variants(
    label: str, build, seeds: tuple[int, ...]
) -> list[Variant]:
    """The baseline then the adaptive variant of one paired point;
    ``build(policy, seed)`` makes one config."""
    return [
        (f"{label}/{policy.value}", [build(policy, seed) for seed in seeds])
        for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
    ]


def queue_depth_sensitivity(
    drop_ratio: float = 0.2,
    queue_bytes: tuple[int, ...] = (70_000, 140_000, 280_000, 560_000),
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[tuple[str, list[Variant]]]:
    """Ablation D: how the headline depends on bottleneck buffer depth.

    One point per depth, holding its baseline and adaptive variants —
    deeper buffers absorb more overload as latency (taller baseline
    spikes, no loss); shallow buffers convert it to loss and PLI
    storms.
    """

    def at_depth(depth: int):
        def build(policy: PolicyName, seed: int) -> SessionConfig:
            config = scenarios.step_drop_config(drop_ratio, seed=seed)
            network = dataclasses.replace(config.network, queue_bytes=depth)
            return dataclasses.replace(
                config, network=network, policy=policy
            )

        return build

    return [
        (
            f"{depth // 1000} KB",
            _paired_variants(f"{depth // 1000}KB", at_depth(depth), seeds),
        )
        for depth in queue_bytes
    ]


def content_sensitivity(
    drop_ratio: float = 0.2,
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[tuple[str, list[Variant]]]:
    """Ablation D2: the adaptive win across content classes (one point
    per class, holding its baseline and adaptive variants)."""
    from ..traces.content import ContentClass

    def of(content: ContentClass):
        def build(policy: PolicyName, seed: int) -> SessionConfig:
            config = scenarios.step_drop_config(
                drop_ratio, seed=seed, content=content
            )
            return dataclasses.replace(config, policy=policy)

        return build

    return [
        (content.value, _paired_variants(content.value, of(content), seeds))
        for content in ContentClass
    ]


def format_paired_rows(
    pairs: list[tuple[str, AblationRow, AblationRow]], title: str
) -> str:
    """Aligned table for (label, baseline, adaptive) triples."""
    header = (
        f"{'point':<15} {'base lat':>10} {'adpt lat':>10} "
        f"{'reduction':>10} {'base SSIM':>10} {'adpt SSIM':>10}"
    )
    lines = [title, header, "-" * len(header)]
    for label, base, adap in pairs:
        if base.failed is not None or adap.failed is not None:
            marker = base.failed or adap.failed
            lines.append(f"{label:<15} {marker}")
            continue
        reduction = (1 - adap.mean_latency / base.mean_latency) * 100
        lines.append(
            f"{label:<15} "
            f"{base.mean_latency * 1e3:>8.1f}ms "
            f"{adap.mean_latency * 1e3:>8.1f}ms "
            f"{reduction:>9.1f}% "
            f"{base.mean_ssim:>10.4f} "
            f"{adap.mean_ssim:>10.4f}"
        )
    return "\n".join(lines)


def format_rows(rows: list[AblationRow], title: str) -> str:
    """Aligned text table for ablation output."""
    header = (
        f"{'variant':<20} {'mean lat':>10} {'p95 lat':>10} {'SSIM':>8}"
    )
    lines = [title, header, "-" * len(header)]
    for row in rows:
        if row.failed is not None:
            lines.append(f"{row.variant:<20} {row.failed}")
            continue
        lines.append(
            f"{row.variant:<20} "
            f"{row.mean_latency * 1e3:>8.1f}ms "
            f"{row.p95_latency * 1e3:>8.1f}ms "
            f"{row.mean_ssim:>8.4f}"
        )
    return "\n".join(lines)
