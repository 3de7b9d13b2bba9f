"""Extended comparison: all policies on the canonical scenarios.

Beyond the paper's baseline-vs-adaptive headline, this pits the adaptive
controller against the slow app-timer baseline, the Salsify-like
per-frame scheme, and the capacity oracle — bounding where the
contribution sits in the design space.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..pipeline.config import PolicyName, SessionConfig
from ..pipeline.results import SessionResult
from ..pipeline.supervisor import failure_label, split_failures
from . import scenarios

ALL_POLICIES = (
    PolicyName.DEFAULT_ABR,
    PolicyName.WEBRTC,
    PolicyName.SALSIFY,
    PolicyName.ADAPTIVE,
    PolicyName.ORACLE,
)


@dataclass(frozen=True)
class PolicyRow:
    """Seed-averaged metrics for one policy on one scenario.

    ``failed`` is ``None`` on the normal path; under supervised
    execution a quarantined session yields NaN metrics plus the
    ``FAILED(<reason>)`` marker.
    """

    policy: str
    mean_latency: float
    p95_latency: float
    peak_latency: float
    mean_ssim: float
    freeze_fraction: float
    pli_count: float
    failed: str | None = None


def plan_batch(
    drop_ratio: float = 0.2,
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[SessionConfig]:
    """The comparison's session batch (policy-major, seed-minor order);
    :func:`rows_from_results` folds the results back into rows."""
    return [
        dataclasses.replace(
            scenarios.step_drop_config(drop_ratio, seed=seed),
            policy=policy,
        )
        for policy in ALL_POLICIES
        for seed in seeds
    ]


def rows_from_results(
    batch_results: list[SessionResult],
    seeds: tuple[int, ...],
) -> list[PolicyRow]:
    """Fold batch results (in :func:`plan_batch` order) into rows."""
    start, end = scenarios.DROP_WINDOW
    results = iter(batch_results)
    rows = []
    for policy in ALL_POLICIES:
        per_policy = [next(results) for _ in seeds]
        _ok, failures = split_failures(per_policy)
        if failures:
            nan = float("nan")
            rows.append(
                PolicyRow(
                    policy=policy.value,
                    mean_latency=nan,
                    p95_latency=nan,
                    peak_latency=nan,
                    mean_ssim=nan,
                    freeze_fraction=nan,
                    pli_count=nan,
                    failed=failure_label(failures),
                )
            )
            continue
        lat, p95, peak, ssim, freeze, pli = [], [], [], [], [], []
        for result in per_policy:
            lat.append(result.mean_latency(start, end))
            p95.append(result.percentile_latency(95, start, end))
            peak.append(result.peak_latency(start, end))
            ssim.append(result.mean_displayed_ssim())
            freeze.append(result.freeze_fraction())
            pli.append(result.pli_count)
        rows.append(
            PolicyRow(
                policy=policy.value,
                mean_latency=float(np.mean(lat)),
                p95_latency=float(np.mean(p95)),
                peak_latency=float(np.mean(peak)),
                mean_ssim=float(np.mean(ssim)),
                freeze_fraction=float(np.mean(freeze)),
                pli_count=float(np.mean(pli)),
            )
        )
    return rows


def format_comparison(rows: list[PolicyRow], title: str) -> str:
    """Aligned text table for the policy comparison."""
    header = (
        f"{'policy':<13} {'mean lat':>10} {'p95 lat':>10} "
        f"{'peak lat':>10} {'SSIM':>8} {'freeze':>7} {'PLI':>5}"
    )
    lines = [title, header, "-" * len(header)]
    for row in rows:
        if row.failed is not None:
            lines.append(f"{row.policy:<13} {row.failed}")
            continue
        lines.append(
            f"{row.policy:<13} "
            f"{row.mean_latency * 1e3:>8.1f}ms "
            f"{row.p95_latency * 1e3:>8.1f}ms "
            f"{row.peak_latency * 1e3:>8.1f}ms "
            f"{row.mean_ssim:>8.4f} "
            f"{row.freeze_fraction:>7.3f} "
            f"{row.pli_count:>5.1f}"
        )
    return "\n".join(lines)
