"""Table 1 — the poster's headline result.

"Preliminary tests with the x264 codec show these strategies can reduce
latency by 28.66% to 78.87% while slightly improving video quality by
0.8% to 3%."

One row per drop severity: mean frame latency over the drop window for
the baseline (libwebrtc-like GCC → x264 coupling) and the adaptive
controller, the resulting reduction, and the session-wide displayed-SSIM
change. Rows are averaged over :data:`~repro.experiments.scenarios.TABLE1_SEEDS`.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np

from ..pipeline.config import PolicyName, SessionConfig
from ..pipeline.results import SessionResult
from ..pipeline.supervisor import split_failures
from . import scenarios

#: A row's metric fields, in column order (``None`` on a failed row).
METRICS = (
    "baseline_latency",
    "adaptive_latency",
    "latency_reduction_pct",
    "baseline_ssim",
    "adaptive_ssim",
    "ssim_change_pct",
    "baseline_pli",
    "adaptive_pli",
)


def _row(drop_ratio: float, results: list[SessionResult]) -> dict:
    """One severity point's seed-averaged row over its (baseline,
    adaptive) result pairs."""
    labels = {
        "drop_ratio": drop_ratio,
        "label": scenarios.ratio_label(drop_ratio),
    }
    _ok, failures = split_failures(results)
    if failures:
        return scenarios.failed_row(labels, METRICS, failures)
    start, end = scenarios.DROP_WINDOW
    base, adap = results[0::2], results[1::2]

    def mean(sessions, metric) -> float:
        return float(np.mean([metric(result) for result in sessions]))

    b_lat = mean(base, lambda r: r.mean_latency(start, end))
    a_lat = mean(adap, lambda r: r.mean_latency(start, end))
    b_ssim = mean(base, lambda r: r.mean_displayed_ssim())
    a_ssim = mean(adap, lambda r: r.mean_displayed_ssim())
    return {
        **labels,
        "baseline_latency": b_lat,
        "adaptive_latency": a_lat,
        "latency_reduction_pct": (1.0 - a_lat / b_lat) * 100.0,
        "baseline_ssim": b_ssim,
        "adaptive_ssim": a_ssim,
        "ssim_change_pct": (a_ssim / b_ssim - 1.0) * 100.0,
        "baseline_pli": mean(base, lambda r: r.pli_count),
        "adaptive_pli": mean(adap, lambda r: r.pli_count),
        "failed": None,
    }


def plan_batch(
    ratios: tuple[float, ...] = scenarios.TABLE1_DROP_RATIOS,
    seeds: tuple[int, ...] = scenarios.TABLE1_SEEDS,
) -> tuple[list[SessionConfig], list[tuple[float, int, int]]]:
    """The table's session batch plus its ``(ratio, lo, hi)`` row spans.

    Ratio-major, and per (ratio, seed) WEBRTC then ADAPTIVE; the same
    arguments always give the same configs in the same order.
    ``ARTIFACTS["table1"]`` (:mod:`repro.experiments.artifacts`) runs
    exactly this batch, ``shard plan --grid table1`` splits it across
    hosts, and :func:`rows` folds results — wherever they were
    executed — back into rows.
    """
    batch: list[SessionConfig] = []
    spans: list[tuple[float, int, int]] = []
    for ratio in ratios:
        lo = len(batch)
        for seed in seeds:
            config = scenarios.step_drop_config(ratio, seed=seed)
            batch.append(
                dataclasses.replace(config, policy=PolicyName.WEBRTC)
            )
            batch.append(
                dataclasses.replace(config, policy=PolicyName.ADAPTIVE)
            )
        spans.append((ratio, lo, len(batch)))
    return batch, spans


def rows(
    results: list[SessionResult],
    spans: list[tuple[float, int, int]],
) -> list[dict]:
    """Fold a batch's results (in :func:`plan_batch` order) into the
    table's JSON rows."""
    return [_row(ratio, results[lo:hi]) for ratio, lo, hi in spans]


def rows_from_results(
    results: list[SessionResult],
    spans: list[tuple[float, int, int]],
) -> list[SimpleNamespace]:
    """:func:`rows` as objects with one attribute per field, for
    callers that read a row's fields by name (``perfbench``)."""
    return [SimpleNamespace(**row) for row in rows(results, spans)]
