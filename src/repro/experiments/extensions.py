"""Extension experiments beyond the poster's evaluation.

* **Abl. E** — GCC delay estimator: trendline (libwebrtc) vs Kalman
  (original draft).
* **Ext. F** — recovery mechanism under channel loss: PLI-only vs NACK.
* **Ext. G** — bottleneck queue discipline: drop-tail vs CoDel.
* **Ext. H** — fast recovery probing after the drop ends.
* **Ext. I** — collateral audio latency during video overload.
* **Ext. J** — two flows sharing one bottleneck across a drop.
* **Ext. K** — SFU simulcast layer switching vs encoder adaptation.

Each experiment returns its variants (see
:func:`~repro.experiments.scenarios.fold_variants`) and names the row
function that folds one variant's results; the registry in
:mod:`repro.experiments.artifacts` runs the whole batch. A variant
with a quarantined session folds into a ``FAILED(...)`` row with NaN
metrics; :func:`row_dict` writes its ``failed`` field, which the other
rows leave out.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..pipeline.config import NetworkConfig, PolicyName, SessionConfig
from ..pipeline.supervisor import failure_label, split_failures
from ..traces.bandwidth import BandwidthTrace
from ..units import mbps
from . import scenarios
from .scenarios import Variant


def _failed(row_cls, label: str, failures) -> object:
    """``row_cls``'s ``FAILED(...)`` row: the label, then NaN for each
    metric (every other field without a default)."""
    required = [
        f for f in dataclasses.fields(row_cls)
        if f.default is dataclasses.MISSING
    ]
    nan = [float("nan")] * (len(required) - 1)
    return row_cls(label, *nan, failed=failure_label(failures))


def row_dict(row) -> dict:
    """A row as JSON: ``failed`` appears only on a quarantined row."""
    payload = dataclasses.asdict(row)
    if payload["failed"] is None:
        del payload["failed"]
    return payload


@dataclass(frozen=True)
class ExtensionRow:
    """One variant's seed-averaged metrics."""

    variant: str
    mean_latency: float
    p95_latency: float
    mean_ssim: float
    freeze_fraction: float
    pli_count: float
    failed: str | None = None


def averaged_row(
    variant: str,
    results: list,
    window: tuple[float, float] | None = None,
) -> ExtensionRow:
    """One variant's seed-averaged :class:`ExtensionRow` (latency over
    ``window``, the whole session by default)."""
    _ok, failures = split_failures(results)
    if failures:
        return _failed(ExtensionRow, variant, failures)
    start, end = window if window else (None, None)
    lat, p95, ssim, freeze, pli = [], [], [], [], []
    for result in results:
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
    )


def drop_window_row(variant: str, results: list) -> ExtensionRow:
    """:func:`averaged_row` with latency over the drop window."""
    return averaged_row(variant, results, scenarios.DROP_WINDOW)


def estimator_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Abl. E: trendline vs Kalman, baseline and adaptive (rows:
    :func:`drop_window_row`)."""
    return [
        (
            f"{estimator}/{policy.value}",
            [
                dataclasses.replace(
                    scenarios.step_drop_config(drop_ratio, seed=seed),
                    policy=policy,
                    cc_estimator=estimator,
                )
                for seed in seeds
            ],
        )
        for estimator in ("trendline", "kalman")
        for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
    ]


def recovery_mechanism_comparison(
    loss: float = 0.02,
    seeds: tuple[int, ...] = (1, 2, 3),
    rtt: float = 0.04,
) -> list[Variant]:
    """Ext. F: loss recovery — PLI-only vs NACK vs FEC vs both (rows:
    :func:`averaged_row`)."""
    variants = (
        ("PLI only", False, False),
        ("NACK", True, False),
        ("FEC", False, True),
        ("FEC+NACK", True, True),
    )
    return [
        (
            label,
            [
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
            ],
        )
        for label, nack, fec in variants
    ]


def aqm_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. G: drop-tail vs CoDel under both policies (rows:
    :func:`drop_window_row`)."""

    def config(aqm: str, policy: PolicyName, seed: int) -> SessionConfig:
        base = scenarios.step_drop_config(drop_ratio, seed=seed)
        network = dataclasses.replace(base.network, aqm=aqm)
        return dataclasses.replace(base, network=network, policy=policy)

    return [
        (
            f"{aqm}/{policy.value}",
            [config(aqm, policy, seed) for seed in seeds],
        )
        for aqm in ("droptail", "codel")
        for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
    ]


@dataclass(frozen=True)
class RecoveryRow:
    """Fast-recovery probing outcome."""

    variant: str
    post_recovery_bitrate: float
    post_recovery_latency: float
    post_recovery_ssim: float
    failed: str | None = None


def fast_recovery_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. H: AIMD-only vs probing, measured after capacity returns
    (rows: :func:`recovery_row`)."""
    return [
        (
            label,
            [
                dataclasses.replace(
                    scenarios.step_drop_config(drop_ratio, seed=seed),
                    policy=PolicyName.ADAPTIVE,
                    duration=35.0,
                    adaptive=dataclasses.replace(
                        scenarios.ADAPTIVE_TUNING,
                        enable_fast_recovery=enabled,
                    ),
                )
                for seed in seeds
            ],
        )
        for enabled, label in ((False, "AIMD ramp"), (True, "fast probe"))
    ]


def recovery_row(variant: str, results: list) -> RecoveryRow:
    """Bitrate, latency and quality over t = 25–35 s, seed-averaged."""
    _ok, failures = split_failures(results)
    if failures:
        return _failed(RecoveryRow, variant, failures)
    return RecoveryRow(
        variant=variant,
        post_recovery_bitrate=float(
            np.mean([r.sent_bitrate_bps(25, 35) for r in results])
        ),
        post_recovery_latency=float(
            np.mean([r.mean_latency(25, 35) for r in results])
        ),
        post_recovery_ssim=float(
            np.mean([r.mean_displayed_ssim(25, 35) for r in results])
        ),
    )


def format_recovery_rows(rows: list[RecoveryRow], title: str) -> str:
    """Aligned text table for the fast-recovery experiment."""
    lines = [
        title,
        f"{'variant':<12} {'bitrate':>10} {'latency':>9} {'SSIM':>8}",
    ]
    for row in rows:
        if getattr(row, "failed", None) is not None:
            lines.append(f"{row.variant:<12} {row.failed}")
            continue
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
    failed: str | None = None


def audio_impact(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. I: what the video overload does to the audio flow (rows:
    :func:`audio_row`)."""
    return [
        (
            policy.value,
            [
                dataclasses.replace(
                    scenarios.step_drop_config(drop_ratio, seed=seed),
                    policy=policy,
                    enable_audio=True,
                )
                for seed in seeds
            ],
        )
        for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
    ]


def audio_row(policy: str, results: list) -> AudioRow:
    """Audio latency before and during the drop, and audio loss."""
    _ok, failures = split_failures(results)
    if failures:
        return _failed(AudioRow, policy, failures)
    return AudioRow(
        policy=policy,
        steady_audio_latency=float(
            np.mean([r.mean_audio_latency(2, 9) for r in results])
        ),
        drop_audio_latency=float(
            np.mean([
                r.mean_audio_latency(*scenarios.DROP_WINDOW)
                for r in results
            ])
        ),
        audio_loss=float(np.mean([r.audio_loss_fraction() for r in results])),
    )


def format_audio_rows(rows: list[AudioRow], title: str) -> str:
    """Aligned text table for the audio-impact experiment."""
    lines = [
        title,
        f"{'policy':<10} {'steady':>9} {'in drop':>9} {'loss':>7}",
    ]
    for row in rows:
        if getattr(row, "failed", None) is not None:
            lines.append(f"{row.policy:<10} {row.failed}")
            continue
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
    failed: str | None = None


def fairness_comparison(
    seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. J: policy pairings over one shared bottleneck (rows:
    :func:`fairness_row`).

    4 Mbps link dropping to 1 Mbps; post-drop throughput split and
    drop-window latency per flow. Each cell is one
    :class:`~repro.pipeline.multiflow.MultiFlowConfig`.
    """
    from ..pipeline.multiflow import MultiFlowConfig
    from ..traces.generators import step_drop

    pairings = [
        ("webrtc+webrtc", (PolicyName.WEBRTC, PolicyName.WEBRTC)),
        ("adaptive+adaptive", (PolicyName.ADAPTIVE, PolicyName.ADAPTIVE)),
        ("adaptive+webrtc", (PolicyName.ADAPTIVE, PolicyName.WEBRTC)),
    ]
    return [
        (
            label,
            [
                MultiFlowConfig(
                    base=SessionConfig(
                        network=NetworkConfig(
                            capacity=step_drop(mbps(4), mbps(1), 12.0, 10.0),
                            queue_bytes=200_000,
                        ),
                        duration=30.0,
                        seed=seed,
                    ),
                    policies=policies,
                )
                for seed in seeds
            ],
        )
        for label, policies in pairings
    ]


def fairness_row(pairing: str, results: list) -> FairnessRow:
    """Each flow's post-drop rate and drop-window latency, and the
    rates' Jain fairness, seed-averaged."""
    from ..pipeline.multiflow import jain_fairness

    _ok, failures = split_failures(results)
    if failures:
        return _failed(FairnessRow, pairing, failures)
    rate_a, rate_b, fair, lat_a, lat_b = [], [], [], [], []
    for result in results:
        flow_a, flow_b = result.flows
        rates = [flow.sent_bitrate_bps(20, 30) for flow in result.flows]
        rate_a.append(rates[0])
        rate_b.append(rates[1])
        fair.append(jain_fairness(rates))
        lat_a.append(flow_a.mean_latency(12, 18))
        lat_b.append(flow_b.mean_latency(12, 18))
    return FairnessRow(
        pairing=pairing,
        rate_a=float(np.mean(rate_a)),
        rate_b=float(np.mean(rate_b)),
        fairness=float(np.mean(fair)),
        latency_a=float(np.mean(lat_a)),
        latency_b=float(np.mean(lat_b)),
    )


@dataclass(frozen=True)
class SimulcastRow:
    """One variant's drop-window latency and quality (seed-averaged)."""

    variant: str
    mean_latency: float
    p95_latency: float
    drop_ssim: float
    mean_ssim: float
    failed: str | None = None


def simulcast_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. K: encoder adaptation vs SFU simulcast layer switching (rows:
    :func:`simulcast_row`).

    The webrtc and adaptive variants are single sessions; the simulcast
    variant runs one :class:`~repro.sfu.SimulcastConfig` per seed over
    the same network.
    """
    from ..sfu import SimulcastConfig

    configs = [scenarios.step_drop_config(drop_ratio, seed=s) for s in seeds]
    return [
        (
            policy.value,
            [dataclasses.replace(c, policy=policy) for c in configs],
        )
        for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE)
    ] + [
        (
            "simulcast",
            [
                SimulcastConfig(c.network, duration=c.duration, seed=c.seed)
                for c in configs
            ],
        )
    ]


def simulcast_row(variant: str, results: list) -> SimulcastRow:
    """Drop-window latency and quality plus session quality,
    seed-averaged."""
    _ok, failures = split_failures(results)
    if failures:
        return _failed(SimulcastRow, variant, failures)
    window = scenarios.DROP_WINDOW

    def mean(metric) -> float:
        return float(np.mean([metric(r) for r in results]))

    return SimulcastRow(
        variant=variant,
        mean_latency=mean(lambda r: r.mean_latency(*window)),
        p95_latency=mean(lambda r: r.percentile_latency(95, *window)),
        drop_ssim=mean(lambda r: r.mean_displayed_ssim(*window)),
        mean_ssim=mean(lambda r: r.mean_displayed_ssim()),
    )


def format_simulcast_rows(rows: list[SimulcastRow], title: str) -> str:
    """Aligned text table for the simulcast experiment."""
    lines = [
        title,
        f"{'variant':<12} {'mean lat':>10} {'p95 lat':>10} "
        f"{'SSIM drop':>10} {'SSIM all':>9}",
    ]
    for row in rows:
        if getattr(row, "failed", None) is not None:
            lines.append(f"{row.variant:<12} {row.failed}")
            continue
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
        if getattr(row, "failed", None) is not None:
            lines.append(f"{row.pairing:<20} {row.failed}")
            continue
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
        if getattr(row, "failed", None) is not None:
            lines.append(f"{row.variant:<22} {row.failed}")
            continue
        lines.append(
            f"{row.variant:<22} "
            f"{row.mean_latency * 1e3:>8.1f}ms "
            f"{row.p95_latency * 1e3:>8.1f}ms "
            f"{row.mean_ssim:>8.4f} "
            f"{row.freeze_fraction:>7.3f} "
            f"{row.pli_count:>6.1f}"
        )
    return "\n".join(lines)
