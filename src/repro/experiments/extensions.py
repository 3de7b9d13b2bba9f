"""Extension experiments beyond the poster's evaluation.

* **Abl. E** — GCC delay estimator: trendline (libwebrtc) vs Kalman
  (original draft).
* **Ext. F** — recovery mechanism under channel loss: PLI-only vs NACK.
* **Ext. G** — bottleneck queue discipline: drop-tail vs CoDel.
* **Ext. H** — fast recovery probing after the drop ends.
* **Ext. I** — collateral audio latency during video overload.
* **Ext. J** — two flows sharing one bottleneck across a drop.
* **Ext. K** — SFU simulcast layer switching vs encoder adaptation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..pipeline.config import NetworkConfig, PolicyName, SessionConfig
from ..pipeline.parallel import run_many
from ..traces.bandwidth import BandwidthTrace
from ..units import mbps
from . import scenarios


@dataclass(frozen=True)
class ExtensionRow:
    """One variant's seed-averaged metrics."""

    variant: str
    mean_latency: float
    p95_latency: float
    mean_ssim: float
    freeze_fraction: float
    pli_count: float
    extra: str = ""


def _averaged_row(
    variant: str,
    configs: list[SessionConfig],
    window: tuple[float, float] | None = None,
    extra: str = "",
) -> ExtensionRow:
    start, end = window if window else (None, None)
    lat, p95, ssim, freeze, pli = [], [], [], [], []
    for result in run_many(configs):
        lat.append(result.mean_latency(start, end))
        p95.append(result.percentile_latency(95, start, end))
        ssim.append(result.mean_displayed_ssim())
        freeze.append(result.freeze_fraction())
        pli.append(result.pli_count)
    return ExtensionRow(
        variant=variant,
        mean_latency=float(np.mean(lat)),
        p95_latency=float(np.mean(p95)),
        mean_ssim=float(np.mean(ssim)),
        freeze_fraction=float(np.mean(freeze)),
        pli_count=float(np.mean(pli)),
        extra=extra,
    )


def estimator_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[ExtensionRow]:
    """Abl. E: trendline vs Kalman, baseline and adaptive."""
    rows = []
    for estimator in ("trendline", "kalman"):
        for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE):
            configs = [
                dataclasses.replace(
                    scenarios.step_drop_config(drop_ratio, seed=seed),
                    policy=policy,
                    cc_estimator=estimator,
                )
                for seed in seeds
            ]
            rows.append(
                _averaged_row(
                    f"{estimator}/{policy.value}",
                    configs,
                    window=scenarios.DROP_WINDOW,
                )
            )
    return rows


def recovery_mechanism_comparison(
    loss: float = 0.02,
    seeds: tuple[int, ...] = (1, 2, 3),
    rtt: float = 0.04,
) -> list[ExtensionRow]:
    """Ext. F: loss recovery — PLI-only vs NACK vs FEC vs both."""
    rows = []
    variants = (
        ("PLI only", False, False),
        ("NACK", True, False),
        ("FEC", False, True),
        ("FEC+NACK", True, True),
    )
    for label, nack, fec in variants:
        configs = [
            SessionConfig(
                network=NetworkConfig(
                    capacity=BandwidthTrace.constant(mbps(2)),
                    queue_bytes=scenarios.QUEUE_BYTES,
                    iid_loss=loss,
                    propagation_delay=rtt / 2,
                ),
                policy=PolicyName.WEBRTC,
                duration=15.0,
                seed=seed,
                enable_nack=nack,
                enable_fec=fec,
            )
            for seed in seeds
        ]
        rows.append(_averaged_row(label, configs))
    return rows


def aqm_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[ExtensionRow]:
    """Ext. G: drop-tail vs CoDel under both policies."""
    rows = []
    for aqm in ("droptail", "codel"):
        for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE):
            configs = []
            for seed in seeds:
                config = scenarios.step_drop_config(drop_ratio, seed=seed)
                network = dataclasses.replace(config.network, aqm=aqm)
                configs.append(
                    dataclasses.replace(
                        config, network=network, policy=policy
                    )
                )
            rows.append(
                _averaged_row(
                    f"{aqm}/{policy.value}",
                    configs,
                    window=scenarios.DROP_WINDOW,
                )
            )
    return rows


@dataclass(frozen=True)
class RecoveryRow:
    """Fast-recovery probing outcome."""

    variant: str
    post_recovery_bitrate: float
    post_recovery_latency: float
    post_recovery_ssim: float


def fast_recovery_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[RecoveryRow]:
    """Ext. H: AIMD-only vs probing, measured after capacity returns."""
    variants = ((False, "AIMD ramp"), (True, "fast probe"))
    batch = [
        dataclasses.replace(
            scenarios.step_drop_config(drop_ratio, seed=seed),
            policy=PolicyName.ADAPTIVE,
            duration=35.0,
            adaptive=dataclasses.replace(
                scenarios.ADAPTIVE_TUNING,
                enable_fast_recovery=enabled,
            ),
        )
        for enabled, _ in variants
        for seed in seeds
    ]
    results = iter(run_many(batch))
    rows = []
    for enabled, label in variants:
        bitrate, latency, ssim = [], [], []
        for _ in seeds:
            result = next(results)
            bitrate.append(result.sent_bitrate_bps(25, 35))
            latency.append(result.mean_latency(25, 35))
            ssim.append(result.mean_displayed_ssim(25, 35))
        rows.append(
            RecoveryRow(
                variant=label,
                post_recovery_bitrate=float(np.mean(bitrate)),
                post_recovery_latency=float(np.mean(latency)),
                post_recovery_ssim=float(np.mean(ssim)),
            )
        )
    return rows


def format_recovery_rows(rows: list[RecoveryRow], title: str) -> str:
    """Aligned text table for the fast-recovery experiment."""
    lines = [
        title,
        f"{'variant':<12} {'bitrate':>10} {'latency':>9} {'SSIM':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.variant:<12} "
            f"{row.post_recovery_bitrate / 1e3:>7.0f}kbps "
            f"{row.post_recovery_latency * 1e3:>7.1f}ms "
            f"{row.post_recovery_ssim:>8.4f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class AudioRow:
    """Audio collateral damage during the video drop."""

    policy: str
    steady_audio_latency: float
    drop_audio_latency: float
    audio_loss: float


def audio_impact(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[AudioRow]:
    """Ext. I: what the video overload does to the audio flow."""
    policies = (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
    batch = [
        dataclasses.replace(
            scenarios.step_drop_config(drop_ratio, seed=seed),
            policy=policy,
            enable_audio=True,
        )
        for policy in policies
        for seed in seeds
    ]
    results = iter(run_many(batch))
    rows = []
    for policy in policies:
        steady, drop, loss = [], [], []
        for _ in seeds:
            result = next(results)
            steady.append(result.mean_audio_latency(2, 9))
            drop.append(
                result.mean_audio_latency(*scenarios.DROP_WINDOW)
            )
            loss.append(result.audio_loss_fraction())
        rows.append(
            AudioRow(
                policy=policy.value,
                steady_audio_latency=float(np.mean(steady)),
                drop_audio_latency=float(np.mean(drop)),
                audio_loss=float(np.mean(loss)),
            )
        )
    return rows


def format_audio_rows(rows: list[AudioRow], title: str) -> str:
    """Aligned text table for the audio-impact experiment."""
    lines = [
        title,
        f"{'policy':<10} {'steady':>9} {'in drop':>9} {'loss':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row.policy:<10} "
            f"{row.steady_audio_latency * 1e3:>7.1f}ms "
            f"{row.drop_audio_latency * 1e3:>7.1f}ms "
            f"{row.audio_loss:>7.3f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class FairnessRow:
    """Two flows sharing the bottleneck across a drop."""

    pairing: str
    rate_a: float
    rate_b: float
    fairness: float
    latency_a: float
    latency_b: float


def fairness_comparison(
    seeds: tuple[int, ...] = (1, 2, 3)
) -> list[FairnessRow]:
    """Ext. J: policy pairings over one shared bottleneck.

    4 Mbps link dropping to 1 Mbps; post-drop throughput split and
    drop-window latency per flow.
    """
    from ..traces.generators import step_drop
    from ..pipeline.multiflow import MultiFlowSession, jain_fairness

    pairings = [
        ("webrtc+webrtc", [PolicyName.WEBRTC, PolicyName.WEBRTC]),
        ("adaptive+adaptive", [PolicyName.ADAPTIVE, PolicyName.ADAPTIVE]),
        ("adaptive+webrtc", [PolicyName.ADAPTIVE, PolicyName.WEBRTC]),
    ]
    rows = []
    for label, policies in pairings:
        rate_a, rate_b, fair, lat_a, lat_b = [], [], [], [], []
        for seed in seeds:
            config = SessionConfig(
                network=NetworkConfig(
                    capacity=step_drop(mbps(4), mbps(1), 12.0, 10.0),
                    queue_bytes=200_000,
                ),
                duration=30.0,
                seed=seed,
            )
            results = MultiFlowSession(config, policies=policies).run()
            rates = [r.sent_bitrate_bps(20, 30) for r in results]
            rate_a.append(rates[0])
            rate_b.append(rates[1])
            fair.append(jain_fairness(rates))
            lat_a.append(results[0].mean_latency(12, 18))
            lat_b.append(results[1].mean_latency(12, 18))
        rows.append(
            FairnessRow(
                pairing=label,
                rate_a=float(np.mean(rate_a)),
                rate_b=float(np.mean(rate_b)),
                fairness=float(np.mean(fair)),
                latency_a=float(np.mean(lat_a)),
                latency_b=float(np.mean(lat_b)),
            )
        )
    return rows


@dataclass(frozen=True)
class SimulcastRow:
    """One variant's drop-window latency and quality (seed-averaged)."""

    variant: str
    mean_latency: float
    p95_latency: float
    drop_ssim: float
    mean_ssim: float


def simulcast_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[SimulcastRow]:
    """Ext. K: encoder adaptation vs SFU simulcast layer switching.

    The webrtc and adaptive sessions run as one batch; the simulcast
    sessions run inline, one :class:`~repro.sfu.SimulcastSession` per
    seed over the same network.
    """
    from ..sfu import SimulcastConfig, SimulcastSession

    configs = [scenarios.step_drop_config(drop_ratio, seed=s) for s in seeds]
    results = run_many(
        [
            dataclasses.replace(config, policy=policy)
            for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
            for config in configs
        ]
    )
    simulcast = [
        SimulcastSession(
            SimulcastConfig(c.network, duration=c.duration, seed=c.seed)
        ).run()
        for c in configs
    ]
    window = scenarios.DROP_WINDOW

    def row(variant: str, runs: list) -> SimulcastRow:
        def mean(metric) -> float:
            return float(np.mean([metric(r) for r in runs]))

        return SimulcastRow(
            variant=variant,
            mean_latency=mean(lambda r: r.mean_latency(*window)),
            p95_latency=mean(lambda r: r.percentile_latency(95, *window)),
            drop_ssim=mean(lambda r: r.mean_displayed_ssim(*window)),
            mean_ssim=mean(lambda r: r.mean_displayed_ssim()),
        )

    n = len(seeds)
    return [
        row("webrtc", results[:n]),
        row("adaptive", results[n:]),
        row("simulcast", simulcast),
    ]


def format_simulcast_rows(rows: list[SimulcastRow], title: str) -> str:
    """Aligned text table for the simulcast experiment."""
    lines = [
        title,
        f"{'variant':<12} {'mean lat':>10} {'p95 lat':>10} "
        f"{'SSIM drop':>10} {'SSIM all':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.variant:<12} "
            f"{row.mean_latency * 1e3:>8.1f}ms "
            f"{row.p95_latency * 1e3:>8.1f}ms "
            f"{row.drop_ssim:>10.4f} "
            f"{row.mean_ssim:>9.4f}"
        )
    return "\n".join(lines)


def format_fairness_rows(rows: list[FairnessRow], title: str) -> str:
    """Aligned text table for the fairness experiment."""
    header = (
        f"{'pairing':<20} {'rate A':>9} {'rate B':>9} {'Jain':>6} "
        f"{'lat A':>9} {'lat B':>9}"
    )
    lines = [title, header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.pairing:<20} "
            f"{row.rate_a / 1e3:>6.0f}kbps "
            f"{row.rate_b / 1e3:>6.0f}kbps "
            f"{row.fairness:>6.3f} "
            f"{row.latency_a * 1e3:>7.1f}ms "
            f"{row.latency_b * 1e3:>7.1f}ms"
        )
    return "\n".join(lines)


def format_extension_rows(
    rows: list[ExtensionRow], title: str
) -> str:
    """Aligned text table for :class:`ExtensionRow` lists."""
    header = (
        f"{'variant':<22} {'mean lat':>10} {'p95 lat':>10} "
        f"{'SSIM':>8} {'freeze':>7} {'PLI':>6}"
    )
    lines = [title, header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.variant:<22} "
            f"{row.mean_latency * 1e3:>8.1f}ms "
            f"{row.p95_latency * 1e3:>8.1f}ms "
            f"{row.mean_ssim:>8.4f} "
            f"{row.freeze_fraction:>7.3f} "
            f"{row.pli_count:>6.1f}"
        )
    return "\n".join(lines)
