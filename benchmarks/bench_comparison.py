"""Extended policy comparison (Ext. D): all five policies, two severities."""

from __future__ import annotations

from repro.experiments import comparison
from repro.pipeline.parallel import run_many

from conftest import emit

SEEDS = (1, 2, 3)


def _run_comparison(drop_ratio: float) -> list[comparison.PolicyRow]:
    batch = comparison.plan_batch(drop_ratio, SEEDS)
    return comparison.rows_from_results(run_many(batch), SEEDS)


def test_comparison_severe_drop(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: _run_comparison(drop_ratio=0.2),
        rounds=1,
        iterations=1,
    )
    emit(
        results_dir,
        "comparison_severe",
        comparison.format_comparison(
            rows, "All policies — drop to 20% of capacity"
        ),
    )
    by_name = {r.policy: r for r in rows}
    # Ordering the design space: adaptive beats both slow baselines...
    assert (
        by_name["adaptive"].mean_latency < by_name["webrtc"].mean_latency
    )
    assert (
        by_name["adaptive"].mean_latency
        < by_name["default_abr"].mean_latency
    )
    # ...and the app-timer baseline is the slowest of all.
    assert (
        by_name["default_abr"].mean_latency
        >= by_name["webrtc"].mean_latency * 0.8
    )
    # Salsify-like per-frame coupling is fast too but pays quality.
    assert by_name["salsify"].mean_ssim < by_name["adaptive"].mean_ssim


def test_comparison_mild_drop(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: _run_comparison(drop_ratio=0.6),
        rounds=1,
        iterations=1,
    )
    emit(
        results_dir,
        "comparison_mild",
        comparison.format_comparison(
            rows, "All policies — drop to 60% of capacity"
        ),
    )
    by_name = {r.policy: r for r in rows}
    assert (
        by_name["adaptive"].mean_latency
        <= by_name["webrtc"].mean_latency
    )
