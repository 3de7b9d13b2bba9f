"""Experiment modules produce well-formed, paper-shaped output.

Kept to single seeds / reduced sweeps so the suite stays fast; the full
reproductions are the committed artifacts (``repro-rtc experiments``).
"""

from __future__ import annotations

import pytest

from repro.experiments import ablations, artifacts, figures, table1
from repro.experiments.scenarios import batch_of, fold_variants, ratio_label
from repro.pipeline.parallel import run_many


def _table1_rows(ratios, seeds):
    batch, spans = table1.plan_batch(ratios=ratios, seeds=seeds)
    return table1.rows_from_results(run_many(batch), spans)


def _ablation_rows(variants):
    return fold_variants(
        run_many(batch_of(variants)), variants, ablations.METRICS
    )


def test_table1_row_shape():
    [row] = _table1_rows((0.2,), (1,))
    assert row.label == "drop to 20%"
    assert row.baseline_latency > row.adaptive_latency
    assert row.latency_reduction_pct > 50
    assert 0 < row.adaptive_ssim <= 1


def test_table1_formatting():
    text = artifacts.render(
        artifacts.produce("table1", ratios=[0.3], seeds=[1])
    )
    assert "drop to 30%" in text
    assert "Table 1" in text


def test_figure1_series_shapes():
    series = figures.figure1(run_many(figures.plan_figure1(seed=1)))
    assert set(series) == {"capacity", "target", "latency"}
    capacity = series["capacity"]
    assert len(capacity.x) == len(capacity.y) > 100
    # The drop is visible in the capacity series.
    assert min(capacity.y) < max(capacity.y)


def test_figure2_adaptive_peak_below_baseline():
    series = figures.figure2(run_many(figures.plan_figure2(seed=1)))
    assert max(series["adaptive"].y) < max(series["baseline"].y)


def test_figure3_cdfs_are_valid():
    series = figures.figure3(run_many(figures.plan_figure3(seed=1)))
    for line in series.values():
        assert line.y[0] > 0
        assert line.y[-1] == pytest.approx(1.0)
        assert line.x == sorted(line.x)
    # Adaptive's tail is shorter.
    assert max(series["adaptive"].x) < max(series["webrtc"].x)


def test_figure4_reduction_grows_with_severity():
    params = {"ratios": (0.6, 0.2), "seeds": (1,)}
    results = run_many(figures.plan_figure4(**params))
    series = figures.figure4(results, **params)
    reduction = series["reduction"]
    assert reduction.x == [0.6, 0.2]
    assert reduction.y[1] > reduction.y[0]


def test_detector_ablation_rows():
    rows = _ablation_rows(ablations.detector_ablation(seeds=(1,)))
    assert [r["variant"] for r in rows] == [
        "kink only", "overuse only", "pacer only", "fused (all)",
    ]
    fused = rows[-1]
    assert all(r["mean_latency"] > 0 for r in rows)
    # Fusion is at least as good as the worst single signal.
    assert fused["mean_latency"] <= max(r["mean_latency"] for r in rows[:3])


def test_strategy_ablation_rows():
    rows = _ablation_rows(ablations.strategy_ablation(seeds=(1,)))
    by_name = {r["variant"]: r for r in rows}
    # Removing renormalize must hurt latency.
    assert (
        by_name["no renormalize"]["mean_latency"]
        > by_name["+ skip (full)"]["mean_latency"]
    )


def test_rtt_sensitivity_rows():
    rows = _ablation_rows(
        ablations.rtt_sensitivity(rtts=(0.02, 0.16), seeds=(1,))
    )
    assert len(rows) == 2
    # Longer feedback loops cannot reduce latency below the short-RTT
    # case (weak monotonicity with slack for noise).
    assert rows[1]["mean_latency"] > 0.5 * rows[0]["mean_latency"]


def test_comparison_includes_all_policies():
    payload = artifacts.produce("comparison_severe", seeds=[1])
    names = {r["policy"] for r in payload["rows"]}
    assert names == {
        "default_abr", "webrtc", "salsify", "adaptive", "oracle",
    }
    by_name = {r["policy"]: r for r in payload["rows"]}
    assert (
        by_name["adaptive"]["mean_latency"]
        < by_name["webrtc"]["mean_latency"]
    )
    assert "adaptive" in artifacts.render(payload)


def test_ratio_label():
    assert ratio_label(0.45) == "drop to 45%"
