"""shard_status: per-shard progress from on-disk manifests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.pipeline.manifest import RunManifest
from repro.pipeline.shards import build_plan, shard_dir, shard_status


def _fleet_plan(shards: int = 3):
    # 2 scenarios × 2 seeds = 4 cells over 3 shards (2/1/1).
    return build_plan(
        "fleet",
        {
            "scenarios": ["steady", "churn"],
            "seeds": [1, 2],
            "subscribers": 4,
            "duration": 2.0,
        },
        shards,
    )


def _write_manifest(path, records: dict) -> None:
    manifest = RunManifest(path, run_id="status-test", workers=1)
    manifest.records = records
    manifest.save(force=True)


def test_status_before_any_shard_started(tmp_path):
    plan = _fleet_plan()
    statuses = shard_status(plan, tmp_path)
    assert [s.index for s in statuses] == [0, 1, 2]
    assert [s.cells for s in statuses] == [2, 1, 1]
    assert all(not s.started for s in statuses)
    # Everything counts as pending.
    assert [s.counts["pending"] for s in statuses] == [2, 1, 1]
    assert all(s.done() == 0 for s in statuses)


def test_status_reflects_manifest_records(tmp_path):
    plan = _fleet_plan()
    cells0 = plan.cell_indices(0)
    digests = [plan.hashes[i] for i in cells0]
    shard0 = shard_dir(tmp_path, 0)
    shard0.mkdir(parents=True)
    _write_manifest(
        shard0 / "manifest.json",
        {
            digests[0]: {"status": "ok"},
            digests[1]: {"status": "quarantined"},
            # A foreign record sharing the directory must be ignored.
            "f" * 64: {"status": "ok"},
        },
    )
    statuses = shard_status(plan, tmp_path)
    assert statuses[0].started
    assert statuses[0].counts == {
        "pending": 0, "running": 0, "ok": 1, "quarantined": 1
    }
    assert statuses[0].done() == statuses[0].cells == 2
    assert not statuses[1].started
    assert statuses[1].counts["pending"] == 1


def test_status_counts_unrecorded_cells_as_pending(tmp_path):
    plan = _fleet_plan(shards=2)
    cells0 = plan.cell_indices(0)
    assert len(cells0) == 2
    shard0 = shard_dir(tmp_path, 0)
    shard0.mkdir(parents=True)
    # Only one of the two cells has a record (run in progress).
    _write_manifest(
        shard0 / "manifest.json",
        {plan.hashes[cells0[0]]: {"status": "running"}},
    )
    [status0, _status1] = shard_status(plan, tmp_path)
    assert status0.counts["running"] == 1
    assert status0.counts["pending"] == 1
    assert status0.done() == 0


def test_status_counts_a_cached_cell_ok_before_its_record(tmp_path):
    # A shard killed on its first cache hit: the hit's entry is in the
    # shard's cache, but the manifest on disk has no records yet.
    plan = _fleet_plan()
    cells0 = plan.cell_indices(0)
    shard0 = shard_dir(tmp_path, 0)
    (shard0 / "cache").mkdir(parents=True)
    _write_manifest(shard0 / "manifest.json", {})
    (shard0 / "cache" / f"{plan.hashes[cells0[0]]}.json").write_text("{}")
    status0 = shard_status(plan, tmp_path)[0]
    assert status0.counts == {
        "pending": 1, "running": 0, "ok": 1, "quarantined": 0
    }


# ----------------------------------------------------------------------
# Corrupt-manifest recovery
# ----------------------------------------------------------------------
def _torn_shard0(tmp_path, plan, fraction: float):
    shard0 = shard_dir(tmp_path, 0)
    shard0.mkdir(parents=True)
    path = shard0 / "manifest.json"
    _write_manifest(
        path, {plan.hashes[i]: {"status": "ok"} for i in plan.cell_indices(0)}
    )
    data = path.read_bytes()
    path.write_bytes(data[: max(1, int(len(data) * fraction))])
    return path


@pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
def test_torn_manifest_reports_cells_pending_with_problems(
    tmp_path, fraction
):
    plan = _fleet_plan()
    _torn_shard0(tmp_path, plan, fraction)
    [status0, *rest] = shard_status(plan, tmp_path)
    assert status0.started
    assert status0.problems
    assert status0.lease == "none"
    # The torn records are unrecoverable: the safe reading is pending.
    assert status0.counts["pending"] == status0.cells
    assert status0.done() == 0
    assert all(not s.problems for s in rest)


def test_strict_mode_raises_on_torn_manifest(tmp_path):
    plan = _fleet_plan()
    _torn_shard0(tmp_path, plan, 0.5)
    with pytest.raises(ConfigError):
        shard_status(plan, tmp_path, strict=True)


def test_torn_manifest_does_not_mask_other_shards_records(tmp_path):
    plan = _fleet_plan()
    _torn_shard0(tmp_path, plan, 0.5)
    shard1 = shard_dir(tmp_path, 1)
    shard1.mkdir(parents=True)
    digest = plan.hashes[plan.cell_indices(1)[0]]
    _write_manifest(shard1 / "manifest.json", {digest: {"status": "ok"}})
    statuses = shard_status(plan, tmp_path)
    assert statuses[1].counts["ok"] == 1
    assert not statuses[1].problems


# ----------------------------------------------------------------------
# Lease reporting
# ----------------------------------------------------------------------
def _leased_manifest(path, ttl: float) -> RunManifest:
    manifest = RunManifest(path, run_id="leased", workers=1)
    manifest.enable_lease(ttl=ttl)
    manifest.save(force=True)
    return manifest


def test_live_and_expired_leases_reported(tmp_path):
    plan = _fleet_plan()
    shard0 = shard_dir(tmp_path, 0)
    shard0.mkdir(parents=True)
    manifest = _leased_manifest(shard0 / "manifest.json", ttl=30.0)
    renewed = manifest.lease["renewed"]

    statuses = shard_status(plan, tmp_path, now=renewed + 1.0)
    assert statuses[0].lease == "live"
    assert statuses[1].lease == "none"

    statuses = shard_status(plan, tmp_path, now=renewed + 31.0)
    assert statuses[0].lease == "expired"
