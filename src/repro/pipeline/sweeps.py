"""Baseline-vs-adaptive comparison rows and the drop-severity sweep.

:class:`ComparisonRow` is one sweep point's outcome: baseline and
adaptive latency and quality over the scenario's window. The
drop-severity sweep (the shard fabric's ``sweep`` grid) runs Table 1's
batch; its results are folded into one row per (ratio, seed) point
and rendered here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import ConfigError
from .results import SessionResult
from .supervisor import failure_label, split_failures


def _safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with NaN on a zero denominator.

    Degenerate scenarios (e.g. every baseline frame frozen) can yield
    zero-valued metrics; comparisons against them are undefined, not an
    error.
    """
    if denominator == 0.0:
        return float("nan")
    return numerator / denominator


@dataclass(frozen=True)
class ComparisonRow:
    """Baseline-vs-treatment outcome at one sweep point.

    Latency metrics are evaluated over the scenario's measurement window
    (typically the drop episode); quality over the full session.

    ``failed`` is ``None`` on the normal path; under supervised
    execution a quarantined session yields NaN metrics plus the
    ``FAILED(<reason>)`` marker.
    """

    label: str
    baseline_latency: float
    adaptive_latency: float
    baseline_p95_latency: float
    adaptive_p95_latency: float
    baseline_ssim: float
    adaptive_ssim: float
    failed: str | None = None

    @property
    def latency_reduction(self) -> float:
        """Fractional mean-latency reduction (0.3 = 30% lower).

        NaN when the baseline latency is zero (degenerate scenario).
        """
        return 1.0 - _safe_ratio(
            self.adaptive_latency, self.baseline_latency
        )

    @property
    def p95_latency_reduction(self) -> float:
        """Fractional p95-latency reduction (NaN on a zero baseline)."""
        return 1.0 - _safe_ratio(
            self.adaptive_p95_latency, self.baseline_p95_latency
        )

    @property
    def ssim_change(self) -> float:
        """Fractional SSIM change, positive = adaptive better (NaN on a
        zero baseline)."""
        return _safe_ratio(self.adaptive_ssim, self.baseline_ssim) - 1.0


def _row_from_results(
    label: str,
    base: SessionResult,
    adap: SessionResult,
    window: tuple[float, float],
) -> ComparisonRow:
    _ok, failures = split_failures([base, adap])
    if failures:
        nan = float("nan")
        return ComparisonRow(
            label=label,
            baseline_latency=nan,
            adaptive_latency=nan,
            baseline_p95_latency=nan,
            adaptive_p95_latency=nan,
            baseline_ssim=nan,
            adaptive_ssim=nan,
            failed=failure_label(failures),
        )
    start, end = window
    return ComparisonRow(
        label=label,
        baseline_latency=base.mean_latency(start, end),
        adaptive_latency=adap.mean_latency(start, end),
        baseline_p95_latency=base.percentile_latency(95, start, end),
        adaptive_p95_latency=adap.percentile_latency(95, start, end),
        baseline_ssim=base.mean_displayed_ssim(),
        adaptive_ssim=adap.mean_displayed_ssim(),
    )


# ----------------------------------------------------------------------
# The canonical drop-severity sweep (shardable: the ``sweep`` grid)
# ----------------------------------------------------------------------
def sweep_point_label(ratio: float, seed: int) -> str:
    """Stable row label for one (drop ratio, seed) sweep point."""
    return f"drop{int(round(ratio * 100))}%/s{seed}"


def rows_from_drop_sweep(
    results: list[object],
    ratios: tuple[float, ...],
    seeds: tuple[int, ...],
) -> list[ComparisonRow]:
    """Fold a result list into one row per (ratio, seed) point.

    ``results`` come in :func:`repro.experiments.table1.plan_batch`
    order: ratio-major, and per point the baseline then ADAPTIVE.
    """
    from ..experiments import scenarios

    window = scenarios.DROP_WINDOW
    rows: list[ComparisonRow] = []
    index = 0
    for ratio in ratios:
        for seed in seeds:
            rows.append(
                _row_from_results(
                    sweep_point_label(ratio, seed),
                    results[index],
                    results[index + 1],
                    window,
                )
            )
            index += 2
    return rows


def render_drop_sweep(rows: list[ComparisonRow], fmt: str) -> str:
    """Render sweep rows as a table, JSON, or CSV (deterministic bytes).

    One format dispatch for the CLI and the shard-merge path, so a
    merged sweep report is byte-identical to a single-host run.

    Raises:
        ConfigError: on an unknown format.
    """
    if fmt == "json":
        payload = [
            {
                "label": row.label,
                "baseline_latency": row.baseline_latency,
                "adaptive_latency": row.adaptive_latency,
                "baseline_p95_latency": row.baseline_p95_latency,
                "adaptive_p95_latency": row.adaptive_p95_latency,
                "baseline_ssim": row.baseline_ssim,
                "adaptive_ssim": row.adaptive_ssim,
                "failed": row.failed,
            }
            for row in rows
        ]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        columns = (
            "label",
            "baseline_latency",
            "adaptive_latency",
            "baseline_p95_latency",
            "adaptive_p95_latency",
            "baseline_ssim",
            "adaptive_ssim",
            "failed",
        )
        lines = [",".join(columns)]
        for row in rows:
            cells = []
            for name in columns:
                value = getattr(row, name)
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append(repr(value))
                else:
                    cells.append(str(value))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "table":
        header = (
            f"{'point':<14} {'lat. red.':>9} {'p95 red.':>9} "
            f"{'SSIM chg.':>9}"
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            if row.failed is not None:
                lines.append(f"{row.label:<14} {row.failed}")
                continue
            lines.append(
                f"{row.label:<14} "
                f"{row.latency_reduction:>8.1%} "
                f"{row.p95_latency_reduction:>9.1%} "
                f"{row.ssim_change:>+9.2%}"
            )
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown sweep format {fmt!r}")
