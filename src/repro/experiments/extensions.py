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
:func:`~repro.experiments.scenarios.fold_variants`) and names the
metrics that fold one variant's results into a row of seed means; the
registry in :mod:`repro.experiments.artifacts` runs the whole batch.
"""

from __future__ import annotations

import dataclasses

from ..pipeline.config import NetworkConfig, PolicyName, SessionConfig
from ..traces.bandwidth import BandwidthTrace
from ..units import mbps
from . import scenarios
from .scenarios import DROP_WINDOW, Variant


def _session_metrics(start=None, end=None) -> dict:
    """Latency over ``[start, end]`` (the whole session by default),
    then displayed SSIM, frozen fraction and PLIs over the session."""
    return {
        "mean_latency": lambda r: r.mean_latency(start, end),
        "p95_latency": lambda r: r.percentile_latency(95, start, end),
        "mean_ssim": lambda r: r.mean_displayed_ssim(),
        "freeze_fraction": lambda r: r.freeze_fraction(),
        "pli_count": lambda r: r.pli_count,
    }


#: Ext. F's row fields, each a seed mean (see
#: :func:`~repro.experiments.scenarios.seed_mean`).
SESSION_METRICS = _session_metrics()

#: Abl. E's and Ext. G's row fields: latency over the drop window.
DROP_WINDOW_METRICS = _session_metrics(*DROP_WINDOW)


def estimator_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Abl. E: trendline vs Kalman, baseline and adaptive (rows:
    :data:`DROP_WINDOW_METRICS`)."""
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
    :data:`SESSION_METRICS`)."""
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
    :data:`DROP_WINDOW_METRICS`)."""

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


def fast_recovery_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. H: AIMD-only vs probing, measured after capacity returns
    (rows: :data:`RECOVERY_METRICS`)."""
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


#: Ext. H's row fields: bitrate, latency and quality over t = 25–35 s.
RECOVERY_METRICS = {
    "post_recovery_bitrate": lambda r: r.sent_bitrate_bps(25, 35),
    "post_recovery_latency": lambda r: r.mean_latency(25, 35),
    "post_recovery_ssim": lambda r: r.mean_displayed_ssim(25, 35),
}


def audio_impact(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. I: what the video overload does to the audio flow (rows:
    :data:`AUDIO_METRICS`)."""
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


#: Ext. I's row fields: audio latency before and during the drop, and
#: audio loss.
AUDIO_METRICS = {
    "steady_audio_latency": lambda r: r.mean_audio_latency(2, 9),
    "drop_audio_latency": lambda r: r.mean_audio_latency(*DROP_WINDOW),
    "audio_loss": lambda r: r.audio_loss_fraction(),
}


def fairness_comparison(
    seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. J: policy pairings over one shared bottleneck (rows:
    :data:`FAIRNESS_METRICS`).

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


def _post_drop_fairness(result) -> float:
    """Jain fairness of the flows' post-drop (t = 20–30 s) rates."""
    from ..pipeline.multiflow import jain_fairness

    return jain_fairness(
        [flow.sent_bitrate_bps(20, 30) for flow in result.flows]
    )


#: Ext. J's row fields: each flow's post-drop rate and drop-window
#: latency, and the rates' Jain fairness.
FAIRNESS_METRICS = {
    "rate_a": lambda r: r.flows[0].sent_bitrate_bps(20, 30),
    "rate_b": lambda r: r.flows[1].sent_bitrate_bps(20, 30),
    "fairness": _post_drop_fairness,
    "latency_a": lambda r: r.flows[0].mean_latency(12, 18),
    "latency_b": lambda r: r.flows[1].mean_latency(12, 18),
}


def simulcast_comparison(
    drop_ratio: float = 0.2, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[Variant]:
    """Ext. K: encoder adaptation vs SFU simulcast layer switching (rows:
    :data:`SIMULCAST_METRICS`).

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


#: Ext. K's row fields: drop-window latency and quality, and session
#: quality.
SIMULCAST_METRICS = {
    "mean_latency": lambda r: r.mean_latency(*DROP_WINDOW),
    "p95_latency": lambda r: r.percentile_latency(95, *DROP_WINDOW),
    "drop_ssim": lambda r: r.mean_displayed_ssim(*DROP_WINDOW),
    "mean_ssim": lambda r: r.mean_displayed_ssim(),
}
