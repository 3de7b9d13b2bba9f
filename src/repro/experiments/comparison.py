"""Extended comparison: all policies on the canonical scenarios.

Beyond the paper's baseline-vs-adaptive headline, this pits the adaptive
controller against the slow app-timer baseline, the Salsify-like
per-frame scheme, and the capacity oracle — bounding where the
contribution sits in the design space.
"""

from __future__ import annotations

import dataclasses

from ..pipeline.config import PolicyName
from . import scenarios
from .scenarios import DROP_WINDOW, Variant

ALL_POLICIES = (
    PolicyName.DEFAULT_ABR,
    PolicyName.WEBRTC,
    PolicyName.SALSIFY,
    PolicyName.ADAPTIVE,
    PolicyName.ORACLE,
)

#: The fields of a policy's row, each a seed mean (see
#: :func:`~repro.experiments.scenarios.seed_mean`): latency over the
#: drop window, quality, freezes and keyframe requests over the session.
METRICS = {
    "mean_latency": lambda r: r.mean_latency(*DROP_WINDOW),
    "p95_latency": lambda r: r.percentile_latency(95, *DROP_WINDOW),
    "peak_latency": lambda r: r.peak_latency(*DROP_WINDOW),
    "mean_ssim": lambda r: r.mean_displayed_ssim(),
    "freeze_fraction": lambda r: r.freeze_fraction(),
    "pli_count": lambda r: r.pli_count,
}


def all_policies(
    drop_ratio: float = 0.2,
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[Variant]:
    """One variant per policy, labelled by its name, over the same
    seeds (policy-major, seed-minor batch order)."""
    return [
        (
            policy.value,
            [
                dataclasses.replace(
                    scenarios.step_drop_config(drop_ratio, seed=seed),
                    policy=policy,
                )
                for seed in seeds
            ],
        )
        for policy in ALL_POLICIES
    ]
