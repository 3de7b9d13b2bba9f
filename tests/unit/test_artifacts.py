"""The committed experiment artifacts: shape, provenance and rendering.

``repro-rtc experiments --out benchmarks/results`` writes each
``<name>.json`` and the ``<name>.txt`` rendered from it. These tests
read only the committed files, so they check the paper's shape on the
numbers a reader sees; CI regenerates the files and fails on drift.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.experiments import ARTIFACTS, artifacts
from repro.experiments.scenarios import TABLE1_DROP_RATIOS
from repro.pipeline.parallel import CACHE_SCHEMA_VERSION, config_hash

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

#: Artifacts too long to embed; EXPERIMENTS.md links their files.
NOT_EMBEDDED = ("figure1", "figure2", "figure3")

_BLOCK = re.compile(
    r"<!-- artifact: (\S+) -->\n```text\n(.*?)```\n<!-- /artifact -->",
    re.DOTALL,
)


def _text(name: str, suffix: str) -> str:
    return (RESULTS_DIR / f"{name}{suffix}").read_text(encoding="utf-8")


def _rows(name: str) -> list:
    """The committed rows, as objects with one attribute per field."""
    payload = json.loads(
        _text(name, ".json"), object_hook=lambda d: SimpleNamespace(**d)
    )
    return payload.rows


def _series(name: str) -> dict:
    return {row.key: row for row in _rows(name)}


def _by(rows: list, field: str) -> dict:
    return {getattr(row, field): row for row in rows}


def test_results_dir_holds_exactly_the_registry():
    expected = {
        f"{name}{suffix}" for name in ARTIFACTS for suffix in (".json", ".txt")
    }
    assert {p.name for p in RESULTS_DIR.iterdir()} == expected


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_committed_json_renders_the_committed_text(name):
    payload = json.loads(_text(name, ".json"))
    assert payload["artifact"] == name
    assert payload["cache_schema_version"] == CACHE_SCHEMA_VERSION
    assert payload["params"] == json.loads(
        json.dumps(ARTIFACTS[name].params)
    )
    assert artifacts.render(payload) == _text(name, ".txt")
    # The json format is the payload itself, byte for byte.
    assert artifacts.render(payload, "json") == _text(name, ".json")


#: Artifacts whose rows nest lists (a figure's x/y) or objects (a
#: paired ablation's baseline and adaptive rows).
NESTED = ("figure1", "figure2", "figure3", "figure4",
          "ablation_d_queue_depth", "ablation_d_content")


@pytest.mark.parametrize(
    "name", [name for name in ARTIFACTS if name not in NESTED]
)
def test_flat_rows_render_csv_under_their_keys(name):
    payload = json.loads(_text(name, ".json"))
    rows = payload["rows"]
    header, *lines = artifacts.render(payload, "csv").splitlines()
    assert header == ",".join(rows[0])
    assert len(lines) == len(rows)
    # The one failed-row rule: every row carries ``failed``.
    assert all(row["failed"] is None for row in rows)


@pytest.mark.parametrize("name", ["figure4", "ablation_d_content"])
def test_nested_rows_refuse_csv(name):
    payload = json.loads(_text(name, ".json"))
    with pytest.raises(ConfigError, match="cannot render 'csv'"):
        artifacts.render(payload, "csv")


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_committed_cells_are_the_planned_config_hashes(name):
    # Provenance without a re-run: each row's sessions are the cells
    # this build plans for the committed params.
    payload = json.loads(_text(name, ".json"))
    batch = ARTIFACTS[name].plan(**payload["params"])
    assert payload["cells"] == [config_hash(config) for config in batch]


def test_experiments_md_embeds_the_committed_tables():
    doc = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    blocks = _BLOCK.findall(doc)
    names = [name for name, _body in blocks]
    assert sorted(names) == sorted(
        name for name in ARTIFACTS if name not in NOT_EMBEDDED
    )
    for name, body in blocks:
        assert body == _text(name, ".txt"), name
    # No marker without its block (a typo would hide a table).
    opened = re.findall(r"^<!-- artifact: ", doc, re.MULTILINE)
    assert len(opened) == len(blocks)


def test_table1_headline():
    # Paper claim: latency reduced by 28.66%–78.87%, quality +0.8%–3%.
    rows = _rows("table1")
    # Reproduction gates: the shape of the paper's claim.
    reductions = [row.latency_reduction_pct for row in rows]
    assert len(rows) == len(TABLE1_DROP_RATIOS)
    # Adaptive always wins on latency, substantially at the severe end.
    assert all(r > 15 for r in reductions)
    assert max(reductions) > 70
    # Monotone (allowing the saturated top pair to tie within noise).
    assert reductions == sorted(reductions) or (
        sorted(reductions[:-1]) == reductions[:-1]
        and reductions[-1] > reductions[-3]
    )
    # Quality: never materially worse, clearly better when the baseline
    # starts dropping packets.
    ssim_changes = [row.ssim_change_pct for row in rows]
    assert all(change > -1.0 for change in ssim_changes)
    assert max(ssim_changes) > 0.8


def test_figure1_motivation():
    series = _series("figure1")
    capacity = series["capacity"]
    target = series["target"]
    latency = series["latency"]
    # The mismatch: when capacity drops, the target lags above it...
    drop_index = next(
        i for i, y in enumerate(capacity.y) if y < max(capacity.y)
    )
    lag_window = range(drop_index, min(drop_index + 5, len(target.y)))
    assert any(target.y[i] > capacity.y[i] for i in lag_window)
    # ...and the latency spike follows.
    assert max(latency.y) > 1.0


def test_figure2_latency_timeline():
    series = _series("figure2")
    assert max(series["adaptive"].y) < 0.5 * max(series["baseline"].y)


def test_figure3_latency_cdf():
    series = _series("figure3")
    base, adap = series["webrtc"], series["adaptive"]
    # The adaptive CDF dominates in the tail.
    assert max(adap.x) < max(base.x)

    def p95(line):
        index = next(i for i, p in enumerate(line.y) if p >= 0.95)
        return line.x[index]

    assert p95(adap) < p95(base)


def test_figure4_severity_sweep():
    series = _series("figure4")
    reduction = series["reduction"]
    # x descends from mild (0.8) to severe (0.12): reduction grows.
    assert reduction.y[-1] > reduction.y[0]
    # Crossover: a mild 20% drop yields a small reduction, a severe one
    # a large reduction — the paper's 28.66–78.87% band lives inside.
    assert min(reduction.y) < 40
    assert max(reduction.y) > 70


def _pairs(name: str) -> list:
    return [(row.point, row.baseline, row.adaptive) for row in _rows(name)]


def test_ablation_detector_signals():
    rows = _rows("ablation_a_detector")
    by_name = _by(rows, "variant")
    fused = by_name["fused (all)"]
    # Fusion never loses to the worst single signal.
    assert fused.mean_latency <= max(
        r.mean_latency for r in rows if r.variant != "fused (all)"
    )


def test_ablation_strategies():
    by_name = _by(_rows("ablation_b_strategies"), "variant")
    # Strategies compose: each addition lowers the mean latency.
    assert (
        by_name["+ drain budget"].mean_latency
        < by_name["renormalize only"].mean_latency
    )
    assert (
        by_name["+ skip (full)"].mean_latency
        < by_name["+ drain budget"].mean_latency
    )
    # Dropping renormalize from the full stack hurts.
    assert (
        by_name["no renormalize"].mean_latency
        > by_name["+ skip (full)"].mean_latency
    )


def test_ablation_rtt_sensitivity():
    rows = _rows("ablation_c_rtt")
    # Reaction time is feedback-bound: latency grows with RTT.
    assert rows[-1].mean_latency > rows[0].mean_latency


def test_ablation_queue_depth():
    pairs = _pairs("ablation_d_queue_depth")
    # Deeper buffers make the baseline spike taller...
    base_latencies = [base.mean_latency for _, base, _ in pairs]
    assert base_latencies[-1] > base_latencies[0]
    # ...while the adaptive controller stays bounded everywhere.
    for _, base, adap in pairs:
        assert adap.mean_latency < base.mean_latency


def test_ablation_content_classes():
    pairs = _pairs("ablation_d_content")
    # The adaptive win holds for every content archetype.
    for _, base, adap in pairs:
        assert adap.mean_latency < base.mean_latency
        assert adap.mean_ssim > base.mean_ssim - 0.02


def test_ablation_feedback_interval():
    rows = _rows("ablation_c_feedback")
    assert rows[-1].mean_latency >= rows[0].mean_latency * 0.8


def test_comparison_severe_drop():
    by_name = _by(_rows("comparison_severe"), "policy")
    # Ordering the design space: adaptive beats both slow baselines...
    assert (
        by_name["adaptive"].mean_latency < by_name["webrtc"].mean_latency
    )
    assert (
        by_name["adaptive"].mean_latency
        < by_name["default_abr"].mean_latency
    )
    # ...and the app-timer baseline is about as slow as webrtc (its
    # mean is the lower one, its p95 and peak the highest of all).
    assert (
        by_name["default_abr"].mean_latency
        >= by_name["webrtc"].mean_latency * 0.8
    )
    # Salsify-like per-frame coupling is fast too but pays quality.
    assert by_name["salsify"].mean_ssim < by_name["adaptive"].mean_ssim


def test_comparison_mild_drop():
    by_name = _by(_rows("comparison_mild"), "policy")
    assert (
        by_name["adaptive"].mean_latency
        <= by_name["webrtc"].mean_latency
    )


def test_estimator_comparison():
    by_name = _by(_rows("extension_e_estimators"), "variant")
    # The adaptive controller wins with either estimator.
    for estimator in ("trendline", "kalman"):
        assert (
            by_name[f"{estimator}/adaptive"].mean_latency
            < by_name[f"{estimator}/webrtc"].mean_latency
        )


def test_recovery_mechanisms():
    rows = _rows("extension_f_recovery")
    by_name = _by(rows, "variant")
    # NACK trades freezes for (bounded) latency and spares keyframes.
    assert by_name["NACK"].freeze_fraction < (
        0.3 * by_name["PLI only"].freeze_fraction
    )
    assert by_name["NACK"].pli_count < by_name["PLI only"].pli_count
    assert by_name["NACK"].mean_ssim > by_name["PLI only"].mean_ssim
    # FEC softens the damage without retransmission round trips.
    assert by_name["FEC"].freeze_fraction < (
        by_name["PLI only"].freeze_fraction
    )
    assert by_name["FEC"].mean_ssim > by_name["PLI only"].mean_ssim
    # The combination is at worst a whisker behind the best single
    # mechanism (FEC's bandwidth overhead costs some encoded quality
    # at this low RTT) and far ahead of PLI-only.
    best = max(r.mean_ssim for r in rows)
    assert by_name["FEC+NACK"].mean_ssim > 0.99 * best
    assert by_name["FEC+NACK"].mean_ssim > (
        by_name["PLI only"].mean_ssim
    )


def test_aqm_comparison():
    by_name = _by(_rows("extension_g_aqm"), "variant")
    # CoDel bounds the adaptive sender's tail latency further...
    assert (
        by_name["codel/adaptive"].p95_latency
        < by_name["droptail/adaptive"].p95_latency
    )
    # ...but converts the slow baseline's overload into loss/keyframes.
    assert (
        by_name["codel/webrtc"].pli_count
        >= by_name["droptail/webrtc"].pli_count
    )


def test_fast_recovery():
    by_name = _by(_rows("extension_h_recovery"), "variant")
    assert by_name["fast probe"].post_recovery_bitrate > (
        1.2 * by_name["AIMD ramp"].post_recovery_bitrate
    )
    assert by_name["fast probe"].post_recovery_latency < 0.15


def test_fairness():
    by_name = _by(_rows("extension_j_fairness"), "pairing")
    # Two adaptive flows converge to a near-even split (and are never
    # less fair than two baselines)...
    assert by_name["adaptive+adaptive"].fairness > 0.85
    assert (
        by_name["adaptive+adaptive"].fairness
        >= by_name["webrtc+webrtc"].fairness
    )
    # ...and both keep drop-window latency low.
    assert by_name["adaptive+adaptive"].latency_a < 0.5
    assert by_name["adaptive+adaptive"].latency_b < 0.5
    # Mixed pairing: the adaptive flow does not starve the baseline.
    assert by_name["adaptive+webrtc"].fairness > 0.7
    # And competing against an adaptive flow is *better* for the
    # baseline than competing against another baseline.
    assert (
        by_name["adaptive+webrtc"].latency_b
        < by_name["webrtc+webrtc"].latency_b
    )


def test_audio_impact():
    by_name = _by(_rows("extension_i_audio"), "policy")
    # The baseline's video queue drowns the audio; adaptive protects it.
    assert by_name["webrtc"].drop_audio_latency > (
        3 * by_name["webrtc"].steady_audio_latency
    )
    assert by_name["adaptive"].drop_audio_latency < (
        0.5 * by_name["webrtc"].drop_audio_latency
    )


def test_simulcast_vs_encoder_adaptation():
    rows = _by(_rows("extension_k_simulcast"), "variant")
    # Both fast mechanisms kill the baseline's latency spike...
    assert rows["simulcast"].mean_latency < 0.5 * rows["webrtc"].mean_latency
    assert rows["adaptive"].mean_latency < 0.5 * rows["webrtc"].mean_latency
    # ...but layer switching is quantized to the ladder: encoder
    # adaptation holds more quality through and after the drop.
    assert rows["adaptive"].drop_ssim > rows["simulcast"].drop_ssim
    assert rows["adaptive"].mean_ssim > rows["simulcast"].mean_ssim


def test_chaos_matrix():
    rows = _rows("chaos")
    params = json.loads(_text("chaos", ".json"))["params"]
    assert len(rows) == (
        len(params["scenarios"]) * len(params["faults"])
        * len(params["policies"])
    )
    assert all(row.failed is None for row in rows)
    cell = {(r.scenario, r.fault, r.policy): r for r in rows}
    # A capacity outage hurts both policies, and the adaptive encoder
    # is back to normal sooner on either scenario.
    for scenario in params["scenarios"]:
        adaptive = cell[(scenario, "capacity_outage", "adaptive")]
        webrtc = cell[(scenario, "capacity_outage", "webrtc")]
        assert adaptive.delta_freeze > 0 and webrtc.delta_freeze > 0
        assert adaptive.recovery_s < webrtc.recovery_s


def test_fleet_regional_fault_stays_in_its_region():
    by_name = _by(_rows("fleet"), "scenario")
    degraded = by_name["regional_degradation"]
    # Region b's downlink collapses: its tail latency explodes while
    # region a's stays where the steady fleet's is.
    assert degraded.region_b_p95_ms > 3 * degraded.region_a_p95_ms
    assert degraded.region_a_p95_ms < 1.2 * by_name["steady"].region_a_p95_ms

