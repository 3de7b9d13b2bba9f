"""Canonical evaluation scenarios.

These freeze the operating points used by every table/figure so that
benchmarks, tests, and examples agree. The headline configuration
follows the poster's setup as far as it is stated (x264, sudden
bandwidth drops) with the remaining parameters chosen to be typical of
RTC deployments:

* base capacity 2.5 Mbps (comfortable 720p30), one-way propagation
  20 ms (RTT 40 ms);
* bottleneck queue 140 KB ≈ 0.45 s at the base rate;
* a 10 s capacity drop at t = 10 s, surviving fraction swept over
  {0.60, 0.45, 0.30, 0.20, 0.12};
* talking-head content, 30 fps, 25 s sessions, 5 seeds per point.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.config import AdaptiveConfig
from ..pipeline.config import NetworkConfig, SessionConfig, VideoConfig
from ..pipeline.supervisor import failure_label, split_failures
from ..traces.content import ContentClass
from ..traces.generators import drop_ratio_scenario, multi_drop
from ..units import mbps, ms

#: Base capacity before/after drops.
BASE_RATE_BPS = mbps(2.5)

#: Bottleneck queue (~0.45 s at the base rate).
QUEUE_BYTES = 140_000

#: Drop timing shared by the step scenarios.
DROP_AT = 10.0
DROP_DURATION = 10.0

#: Surviving-capacity fractions swept by Table 1 / Figure 4.
TABLE1_DROP_RATIOS = (0.60, 0.45, 0.30, 0.20, 0.12)

#: Seeds averaged per scenario point.
TABLE1_SEEDS = (1, 2, 3, 4, 5)

#: Session length (capture time).
DURATION = 25.0

#: Measurement window for latency: the drop plus its aftermath.
DROP_WINDOW = (DROP_AT, DROP_AT + DROP_DURATION)

#: Adaptive-controller settings used across the evaluation.
ADAPTIVE_TUNING = AdaptiveConfig(drain_share=0.2, skip_queue_delay=0.45)


def step_drop_config(
    drop_ratio: float,
    seed: int = 1,
    content: ContentClass = ContentClass.TALKING_HEAD,
    propagation_delay: float = ms(20),
) -> SessionConfig:
    """The canonical single-drop scenario at one severity."""
    capacity = drop_ratio_scenario(
        BASE_RATE_BPS, drop_ratio, DROP_AT, DROP_DURATION
    )
    return SessionConfig(
        network=NetworkConfig(
            capacity=capacity,
            propagation_delay=propagation_delay,
            queue_bytes=QUEUE_BYTES,
        ),
        video=VideoConfig(content_class=content),
        duration=DURATION,
        seed=seed,
        adaptive=ADAPTIVE_TUNING,
    )


def multi_drop_config(seed: int = 1) -> SessionConfig:
    """Figure 3's workload: five drops of mixed severity over 120 s."""
    capacity = multi_drop(
        BASE_RATE_BPS,
        [
            (15.0, BASE_RATE_BPS * 0.45, 8.0),
            (35.0, BASE_RATE_BPS * 0.20, 10.0),
            (55.0, BASE_RATE_BPS * 0.60, 6.0),
            (75.0, BASE_RATE_BPS * 0.12, 8.0),
            (95.0, BASE_RATE_BPS * 0.30, 10.0),
        ],
    )
    return SessionConfig(
        network=NetworkConfig(capacity=capacity, queue_bytes=QUEUE_BYTES),
        video=VideoConfig(content_class=ContentClass.TALKING_HEAD),
        duration=120.0,
        seed=seed,
        adaptive=ADAPTIVE_TUNING,
    )


def with_rtt(config: SessionConfig, rtt: float) -> SessionConfig:
    """A copy of ``config`` with the given round-trip propagation."""
    network = dataclasses.replace(
        config.network, propagation_delay=rtt / 2
    )
    return dataclasses.replace(config, network=network)


def ratio_label(drop_ratio: float) -> str:
    """Human label for a severity point, e.g. ``drop to 30%``."""
    return f"drop to {int(round(drop_ratio * 100))}%"


# ----------------------------------------------------------------------
# Rows: an experiment's batch as labelled config groups, folded to JSON
# ----------------------------------------------------------------------
#: One labelled group of an experiment's configs, e.g. ``("kink only",
#: [seed 1, seed 2, seed 3])``; most ablations and extensions are a
#: list of these, one table row per variant.
Variant = tuple[str, list]


def batch_of(variants: list[Variant]) -> list:
    """The batch of a list of variants: each variant's configs in turn."""
    return [config for _label, configs in variants for config in configs]


def failed_row(labels: dict, metrics, failures: list) -> dict:
    """The row of a group with a quarantined session, the one failed-row
    rule of every artifact: the label fields, ``None`` for each name in
    ``metrics``, and ``failed``, the ``FAILED(<reason>)`` marker."""
    return {
        **labels,
        **dict.fromkeys(metrics),
        "failed": failure_label(failures),
    }


def seed_mean(labels: dict, results: list, metrics: dict) -> dict:
    """One JSON row: ``labels``, then each metric's mean over
    ``results`` (one per seed), then ``failed: None``.

    ``metrics`` maps a field name to a function of one result. A
    quarantined session makes the row a :func:`failed_row`.
    """
    _ok, failures = split_failures(results)
    if failures:
        return failed_row(labels, metrics, failures)
    return {
        **labels,
        **{
            name: float(np.mean([metric(result) for result in results]))
            for name, metric in metrics.items()
        },
        "failed": None,
    }


def fold_variants(
    results: list, variants: list[Variant], metrics: dict, key="variant"
) -> list[dict]:
    """One :func:`seed_mean` row per variant, labelled ``{key: label}``,
    over its slice of ``results`` (which come in :func:`batch_of`
    order)."""
    rows, cursor = [], 0
    for label, configs in variants:
        rows.append(
            seed_mean(
                {key: label}, results[cursor:cursor + len(configs)], metrics
            )
        )
        cursor += len(configs)
    return rows
