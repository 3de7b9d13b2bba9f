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
import json
from dataclasses import dataclass

import numpy as np

from ..pipeline.config import PolicyName, SessionConfig
from ..pipeline.results import SessionResult
from ..pipeline.supervisor import failure_label, split_failures
from . import scenarios


@dataclass(frozen=True)
class Table1Row:
    """One severity point of the headline table (seed-averaged).

    ``failed`` is ``None`` on the normal path. Under supervised
    execution a quarantined session marks its whole severity point:
    metrics become NaN and ``failed`` carries the ``FAILED(<reason>)``
    marker rendered by every output format.
    """

    drop_ratio: float
    label: str
    baseline_latency: float
    adaptive_latency: float
    latency_reduction_pct: float
    baseline_ssim: float
    adaptive_ssim: float
    ssim_change_pct: float
    baseline_pli: float
    adaptive_pli: float
    failed: str | None = None


def _failed_row(drop_ratio: float, marker: str) -> Table1Row:
    nan = float("nan")
    return Table1Row(
        drop_ratio=drop_ratio,
        label=scenarios.ratio_label(drop_ratio),
        baseline_latency=nan,
        adaptive_latency=nan,
        latency_reduction_pct=nan,
        baseline_ssim=nan,
        adaptive_ssim=nan,
        ssim_change_pct=nan,
        baseline_pli=nan,
        adaptive_pli=nan,
        failed=marker,
    )


def _row_from_results(
    drop_ratio: float, results: list[SessionResult]
) -> Table1Row:
    """Average one severity point's (baseline, adaptive) result pairs."""
    _ok, failures = split_failures(results)
    if failures:
        return _failed_row(drop_ratio, failure_label(failures))
    start, end = scenarios.DROP_WINDOW
    base_lat, adap_lat, base_ssim, adap_ssim = [], [], [], []
    base_pli, adap_pli = [], []
    for i in range(0, len(results), 2):
        base, adap = results[i], results[i + 1]
        base_lat.append(base.mean_latency(start, end))
        adap_lat.append(adap.mean_latency(start, end))
        base_ssim.append(base.mean_displayed_ssim())
        adap_ssim.append(adap.mean_displayed_ssim())
        base_pli.append(base.pli_count)
        adap_pli.append(adap.pli_count)
    b_lat = float(np.mean(base_lat))
    a_lat = float(np.mean(adap_lat))
    b_ssim = float(np.mean(base_ssim))
    a_ssim = float(np.mean(adap_ssim))
    return Table1Row(
        drop_ratio=drop_ratio,
        label=scenarios.ratio_label(drop_ratio),
        baseline_latency=b_lat,
        adaptive_latency=a_lat,
        latency_reduction_pct=(1.0 - a_lat / b_lat) * 100.0,
        baseline_ssim=b_ssim,
        adaptive_ssim=a_ssim,
        ssim_change_pct=(a_ssim / b_ssim - 1.0) * 100.0,
        baseline_pli=float(np.mean(base_pli)),
        adaptive_pli=float(np.mean(adap_pli)),
    )


def plan_batch(
    ratios: tuple[float, ...] = scenarios.TABLE1_DROP_RATIOS,
    seeds: tuple[int, ...] = scenarios.TABLE1_SEEDS,
) -> tuple[list[SessionConfig], list[tuple[float, int, int]]]:
    """The table's session batch plus its ``(ratio, lo, hi)`` row spans.

    Ratio-major, and per (ratio, seed) WEBRTC then ADAPTIVE; the same
    arguments always give the same configs in the same order.
    ``ARTIFACTS["table1"]`` (:mod:`repro.experiments.artifacts`) runs
    exactly this batch, ``shard plan --grid table1`` splits it across
    hosts, and :func:`rows_from_results` folds results — wherever they
    were executed — back into rows.
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


def rows_from_results(
    results: list[SessionResult],
    spans: list[tuple[float, int, int]],
) -> list[Table1Row]:
    """Fold a batch's results (in :func:`plan_batch` order) into rows."""
    return [
        _row_from_results(ratio, results[lo:hi])
        for ratio, lo, hi in spans
    ]


def format_table(rows: list[Table1Row]) -> str:
    """Render the table the way the poster reports it."""
    header = (
        f"{'scenario':<14} {'base lat':>9} {'adpt lat':>9} "
        f"{'reduction':>10} {'base SSIM':>10} {'adpt SSIM':>10} "
        f"{'SSIM chg':>9} {'PLI b/a':>8}"
    )
    lines = [
        "Table 1 — latency reduction and quality change "
        "(adaptive vs baseline)",
        header,
        "-" * len(header),
    ]
    for row in rows:
        if row.failed is not None:
            lines.append(f"{row.label:<14} {row.failed}")
            continue
        lines.append(
            f"{row.label:<14} "
            f"{row.baseline_latency * 1e3:>7.1f}ms "
            f"{row.adaptive_latency * 1e3:>7.1f}ms "
            f"{row.latency_reduction_pct:>9.2f}% "
            f"{row.baseline_ssim:>10.4f} "
            f"{row.adaptive_ssim:>10.4f} "
            f"{row.ssim_change_pct:>+8.2f}% "
            f"{row.baseline_pli:>4.1f}/{row.adaptive_pli:<3.1f}"
        )
    return "\n".join(lines)


#: Metric columns (everything except identity/failure fields).
_METRIC_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(Table1Row)
    if f.name not in ("drop_ratio", "label", "failed")
)


def rows_to_dicts(rows: list[Table1Row]) -> list[dict]:
    """JSON-ready rows; failed rows carry ``null`` metrics + a marker."""
    out = []
    for row in rows:
        payload: dict = {
            "drop_ratio": row.drop_ratio,
            "label": row.label,
            "failed": row.failed,
        }
        for name in _METRIC_FIELDS:
            value = getattr(row, name)
            payload[name] = None if row.failed is not None else float(value)
        out.append(payload)
    return out


def to_json(rows: list[Table1Row]) -> str:
    """Deterministic JSON encoding of the table (stable key order)."""
    return json.dumps(
        {"table1": rows_to_dicts(rows)}, indent=2, sort_keys=True
    )


def render(rows: list[Table1Row], fmt: str) -> str:
    """One format dispatch for the CLI *and* the shard-merge path.

    Both must write byte-identical reports for the same rows, so the
    trailing-newline conventions live here and nowhere else.
    """
    if fmt == "json":
        return to_json(rows) + "\n"
    if fmt == "csv":
        return to_csv(rows)
    return format_table(rows) + "\n"


def to_csv(rows: list[Table1Row]) -> str:
    """Deterministic CSV, one row per severity point."""
    columns = ["drop_ratio", "label", *_METRIC_FIELDS, "failed"]
    lines = [",".join(columns)]
    for payload in rows_to_dicts(rows):
        cells = []
        for name in columns:
            value = payload[name]
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
