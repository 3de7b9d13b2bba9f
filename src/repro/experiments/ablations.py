"""Ablations over the adaptive controller's design choices.

* **Ablation A** — detector signals: each of the three inputs alone vs
  the fused detector.
* **Ablation B** — strategies: renormalize only, + drain budget, + skip.
* **Ablation C** — sensitivity to RTT and feedback interval.
* **Ablation D** — sensitivity to buffer depth and content class.

Each ablation returns its variants (see
:func:`~repro.experiments.scenarios.fold_variants`); the registry in
:mod:`repro.experiments.artifacts` runs their batch and folds each
variant into one row of :data:`METRICS`.
"""

from __future__ import annotations

import dataclasses

from ..core.config import AdaptiveConfig, DetectorConfig
from ..pipeline.config import PolicyName, SessionConfig
from ..units import ms
from . import scenarios
from .scenarios import DROP_WINDOW, Variant

#: The fields of an ablation row, each a seed mean (see
#: :func:`~repro.experiments.scenarios.seed_mean`): latency over the
#: drop window, displayed SSIM over the session.
METRICS = {
    "mean_latency": lambda r: r.mean_latency(*DROP_WINDOW),
    "p95_latency": lambda r: r.percentile_latency(95, *DROP_WINDOW),
    "mean_ssim": lambda r: r.mean_displayed_ssim(),
}


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
