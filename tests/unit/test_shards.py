"""Shard planning determinism and merge semantics (repro.pipeline.shards)."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError, ErrorClass
from repro.experiments import ARTIFACTS, artifacts
from repro.pipeline import shards
from repro.pipeline.manifest import RunManifest
from repro.pipeline.parallel import ResultCache, config_hash, run_config
from repro.pipeline.shards import ShardPlan, build_plan
from repro.pipeline.supervisor import FailedSession, Supervisor

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

SMALL_TABLE1 = {"ratios": [0.3, 0.2], "seeds": [1, 2]}
# Ext. D on one seed: one cell per policy, five cells.
TINY_COMPARISON = {"seeds": [1]}


# ----------------------------------------------------------------------
# Planning determinism
# ----------------------------------------------------------------------
def test_same_grid_and_k_give_identical_plan_files(tmp_path):
    first = build_plan("table1", SMALL_TABLE1, 3)
    second = build_plan("table1", SMALL_TABLE1, 3)
    assert first == second
    assert first.plan_id == second.plan_id
    first.save(tmp_path / "a.json")
    second.save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (
        tmp_path / "b.json"
    ).read_bytes()


def test_plan_id_tracks_grid_and_shard_count():
    base = build_plan("table1", SMALL_TABLE1, 3)
    other_k = build_plan("table1", SMALL_TABLE1, 2)
    other_grid = build_plan(
        "table1", {"ratios": [0.3, 0.2], "seeds": [1, 2, 3]}, 3
    )
    assert base.plan_id != other_k.plan_id
    assert base.plan_id != other_grid.plan_id


@pytest.mark.parametrize("shard_count", [1, 2, 3, 7, 8])
def test_shards_are_disjoint_and_exhaustive(shard_count):
    plan = build_plan("table1", SMALL_TABLE1, shard_count)
    seen: list[int] = []
    for index in range(shard_count):
        cells = plan.cell_indices(index)
        assert cells == sorted(cells)
        seen.extend(cells)
    assert sorted(seen) == list(range(len(plan.hashes)))
    assert len(seen) == len(set(seen))


def test_cost_striping_is_deterministic_and_balanced():
    first = build_plan("table1", SMALL_TABLE1, 3)
    second = build_plan("table1", SMALL_TABLE1, 3)
    assert first.assignments == second.assignments
    # Every shard got at least one cell, and with uniform costs LPT
    # cannot leave the loads more than one cell apart.
    loads = [first.shard_cost(i) for i in range(3)]
    assert all(load > 0 for load in loads)
    assert max(loads) - min(loads) <= max(first.costs)


def test_cost_striping_separates_heavy_cells():
    # fleet cells scale with subscribers: a 2-seed fleet grid on two
    # shards must put one heavy cell on each shard, never both on one.
    plan = build_plan(
        "fleet",
        {"scenarios": ["steady"], "seeds": [1, 2], "subscribers": 8},
        2,
    )
    assert sorted(plan.assignments) == [0, 1]


def test_plan_matches_grid_enumeration():
    from repro.experiments import table1

    plan = build_plan("table1", SMALL_TABLE1, 2)
    batch, _spans = table1.plan_batch(ratios=(0.3, 0.2), seeds=(1, 2))
    assert plan.hashes == tuple(config_hash(c) for c in batch)
    assert [config_hash(c) for c in plan.configs()] == list(plan.hashes)


def test_chaos_grid_matches_driver_enumeration():
    from repro.experiments import robustness

    params = {
        "scenarios": ["steady"],
        "faults": [robustness.FAULT_NAMES[0]],
        "seeds": [1, 2],
    }
    plan = build_plan("chaos", params, 2)
    batch = robustness.plan_batch(
        scenario_names=("steady",),
        fault_names=(robustness.FAULT_NAMES[0],),
        policies=robustness.DEFAULT_POLICIES,
        seeds=(1, 2),
    )
    assert plan.hashes == tuple(config_hash(c) for c in batch)
    # Fault-injected cells are costed heavier than fault-free ones, so
    # cost striping spreads them instead of stacking one shard.
    assert len(set(plan.costs)) >= 1
    assert all(cost > 0 for cost in plan.costs)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("kind", "params"),
    [
        ("table1", {"ratios": []}),
        ("table1", {"seeds": []}),
        ("figure4", {"ratios": []}),
        ("figure4", {"seeds": []}),
        ("comparison_severe", {"seeds": []}),
        ("comparison_mild", {"seeds": []}),
        ("fleet", {"subscribers": 0}),
        ("fleet", {"seeds": []}),
        ("fleet", {"scenarios": []}),
        ("fleet", {"duration": 0}),
        ("chaos", {"seeds": []}),
        ("chaos", {"faults": []}),
        ("chaos", {"policies": []}),
    ],
)
def test_explicit_zero_or_empty_param_is_rejected(kind, params):
    # A zero or an empty list is a value, not "unset": it must reach
    # the artifact's checks instead of silently becoming the default.
    with pytest.raises(ConfigError):
        build_plan(kind, params, 1)


def test_explicit_zero_fault_at_is_kept():
    from repro.experiments import robustness

    params = {
        "scenarios": ["steady"],
        "faults": [robustness.FAULT_NAMES[0]],
        "seeds": [1],
        "fault_at": 0.0,
    }
    assert build_plan("chaos", params, 1).params["fault_at"] == 0.0


@pytest.mark.parametrize("kind", list(ARTIFACTS))
def test_none_means_default_and_normalize_is_idempotent(kind):
    canonical = artifacts.resolve(kind)
    assert artifacts.resolve(kind, {key: None for key in canonical}) == (
        canonical
    )
    assert artifacts.resolve(kind, canonical) == canonical


@pytest.mark.parametrize("bad_k", [0, -1])
def test_bad_shard_count_rejected(bad_k):
    with pytest.raises(ConfigError):
        build_plan("table1", SMALL_TABLE1, bad_k)


def test_more_shards_than_cells_rejected():
    with pytest.raises(ConfigError, match="cells"):
        build_plan("comparison_severe", TINY_COMPARISON, 6)


def test_unknown_grid_rejected():
    with pytest.raises(ConfigError, match="unknown artifact"):
        build_plan("bogus", {}, 2)


def test_bad_policy_in_chaos_grid_rejected():
    with pytest.raises(ValueError):
        build_plan("chaos", {"seeds": [1], "policies": ["nonsense"]}, 1)


def test_param_the_artifact_does_not_take_is_rejected():
    with pytest.raises(ConfigError, match="takes no seeds param"):
        build_plan("figure2", {"seeds": [1, 2]}, 1)


def test_cell_indices_out_of_range():
    plan = build_plan("table1", SMALL_TABLE1, 2)
    with pytest.raises(ConfigError):
        plan.cell_indices(2)
    with pytest.raises(ConfigError):
        plan.cell_indices(-1)


# ----------------------------------------------------------------------
# Plan files
# ----------------------------------------------------------------------
def test_plan_roundtrip(tmp_path):
    plan = build_plan("comparison_severe", TINY_COMPARISON, 2)
    path = tmp_path / "plan.json"
    plan.save(path)
    loaded = ShardPlan.load(path)
    assert loaded == plan
    assert loaded.plan_id == plan.plan_id


def test_tampered_plan_fails_integrity_check(tmp_path):
    plan = build_plan("table1", SMALL_TABLE1, 2)
    path = tmp_path / "plan.json"
    plan.save(path)
    data = json.loads(path.read_text())
    data["cells"][0]["hash"] = "0" * 64
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="integrity"):
        ShardPlan.load(path)


def test_wrong_schema_rejected(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"schema": 99}))
    with pytest.raises(ConfigError, match="schema"):
        ShardPlan.load(path)


def test_stale_plan_detected_on_expansion():
    plan = build_plan("table1", SMALL_TABLE1, 2)
    stale = dataclasses.replace(
        plan, hashes=("f" * 64,) + plan.hashes[1:]
    )
    with pytest.raises(ConfigError, match="different config hashes"):
        stale.configs()


# ----------------------------------------------------------------------
# FailedSession reconstruction (merge keeps FAILED markers intact)
# ----------------------------------------------------------------------
def test_failed_session_record_roundtrip():
    original = FailedSession(
        config_hash="a" * 64,
        error_class=ErrorClass.DETERMINISTIC,
        error_type="SimulationError",
        message="invariant violated: x: y",
        attempts=1,
    )
    record = {
        "status": "quarantined",
        "attempts": original.attempts,
        "error_class": original.error_class.value,
        "error": f"{original.error_type}: {original.message}",
    }
    rebuilt = FailedSession.from_record(original.config_hash, record)
    assert rebuilt.reason == original.reason
    assert rebuilt.marker == original.marker
    assert rebuilt.error_class is original.error_class


def test_failed_session_timeout_reason_survives():
    record = {
        "status": "quarantined",
        "attempts": 3,
        "error_class": "transient",
        "error": "SessionTimeoutError: session abc exceeded 1 s",
    }
    rebuilt = FailedSession.from_record("b" * 64, record)
    assert rebuilt.marker == "FAILED(timeout)"


# ----------------------------------------------------------------------
# Merge semantics (real sessions on a tiny grid)
# ----------------------------------------------------------------------
def _run_all_shards(plan, base):
    for index in range(plan.shards):
        shards.run_shard(plan, index, base, workers=1)
    return [shards.shard_dir(base, index) for index in range(plan.shards)]


def test_merge_order_invariance(tmp_path):
    plan = build_plan("comparison_severe", TINY_COMPARISON, 2)
    dirs = _run_all_shards(plan, tmp_path / "shards")
    cache_a, manifest_a, summary_a = shards.merge_shards(
        plan, dirs, tmp_path / "merged-a"
    )
    cache_b, manifest_b, summary_b = shards.merge_shards(
        plan, list(reversed(dirs)), tmp_path / "merged-b"
    )
    assert summary_a == summary_b
    text_a, _ = shards.render_merged(plan, cache_a, manifest_a, "table")
    text_b, _ = shards.render_merged(plan, cache_b, manifest_b, "table")
    assert text_a == text_b
    records_a = json.loads(manifest_a.path.read_text())["records"]
    records_b = json.loads(manifest_b.path.read_text())["records"]
    assert records_a == records_b
    for digest in plan.hashes:
        assert cache_a.path_for_hash(digest).read_bytes() == (
            cache_b.path_for_hash(digest).read_bytes()
        )


def test_sharded_artifact_merges_into_the_committed_text(tmp_path):
    # Any registry entry shards: figure2's two sessions on two hosts
    # merge into the committed figure2.txt byte for byte.
    plan = build_plan("figure2", None, 2)
    dirs = _run_all_shards(plan, tmp_path / "shards")
    cache, manifest, _summary = shards.merge_shards(
        plan, dirs, tmp_path / "merged"
    )
    text, quarantined = shards.render_merged(plan, cache, manifest, "table")
    assert quarantined == 0
    assert text == (RESULTS_DIR / "figure2.txt").read_text(encoding="utf-8")


def test_shard_manifest_lists_the_batch_before_the_first_miss(
    tmp_path, monkeypatch
):
    plan = build_plan("comparison_severe", TINY_COMPARISON, 1)
    configs = plan.configs()
    directory = shards.shard_dir(tmp_path, 0)
    ResultCache(directory / "cache").put(
        configs[0], run_config(configs[0])
    )
    on_disk = []

    def run(self, cells):
        # The misses are about to run: what would a crash leave?
        manifest = json.loads((directory / "manifest.json").read_text())
        on_disk.append(manifest["records"])
        return {}

    monkeypatch.setattr(Supervisor, "run", run)
    shards.run_shard(plan, 0, tmp_path, workers=1)
    [records] = on_disk
    statuses = {digest: record["status"] for digest, record in records.items()}
    assert statuses == {
        digest: "ok" if cell == 0 else "pending"
        for cell, digest in enumerate(plan.hashes)
    }


def test_merge_refuses_incomplete_cells(tmp_path):
    plan = build_plan("comparison_severe", TINY_COMPARISON, 2)
    shards.run_shard(plan, 0, tmp_path / "shards", workers=1)
    with pytest.raises(ConfigError, match="resume shard"):
        shards.merge_shards(
            plan,
            [shards.shard_dir(tmp_path / "shards", 0)],
            tmp_path / "merged",
        )


def test_merge_with_no_shard_data_is_clean_error(tmp_path):
    plan = build_plan("comparison_severe", TINY_COMPARISON, 2)
    with pytest.raises(ConfigError, match="no shard manifests"):
        shards.merge_shards(
            plan, [tmp_path / "missing"], tmp_path / "merged"
        )


def test_quarantined_cells_survive_merge_as_failed_markers(tmp_path):
    # One cell per shard: shards 0-3 run, shard 4 is sick.
    plan = build_plan("comparison_severe", TINY_COMPARISON, 5)
    for index in range(4):
        shards.run_shard(plan, index, tmp_path / "shards", workers=1)
    # Fabricate shard 4 as a host that quarantined its only cell.
    sick_dir = shards.shard_dir(tmp_path / "shards", 4)
    manifest = RunManifest(
        sick_dir / "manifest.json", run_id="sick", command="shard"
    )
    digest = plan.hashes[plan.cell_indices(4)[0]]
    manifest.ensure(digest)
    manifest.mark_quarantined(
        digest, "deterministic", "SimulationError: boom"
    )
    manifest.finish("partial", {})

    cache, merged_manifest, summary = shards.merge_shards(
        plan,
        [shards.shard_dir(tmp_path / "shards", i) for i in range(5)],
        tmp_path / "merged",
    )
    assert summary.ok == 4
    assert summary.quarantined == 1
    assert merged_manifest.status == "partial"
    text, quarantined = shards.render_merged(
        plan, cache, merged_manifest, "table"
    )
    assert quarantined == 1
    assert "FAILED(SimulationError: boom)" in text


def test_render_rejects_format_the_grid_cannot_produce(tmp_path):
    # A figure's rows hold its x/y lists: table and json, but no csv.
    plan = build_plan("figure2", {}, 2)
    dirs = _run_all_shards(plan, tmp_path / "shards")
    cache, manifest, _summary = shards.merge_shards(
        plan, dirs, tmp_path / "merged"
    )
    with pytest.raises(ConfigError, match="cannot render"):
        shards.render_merged(plan, cache, manifest, "csv")
