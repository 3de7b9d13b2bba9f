"""Heartbeat leases and tear-tolerant manifest loading."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.pipeline.manifest import (
    TORN_RUN_ID,
    RunManifest,
    lease_state,
)


# ----------------------------------------------------------------------
# lease_state classification
# ----------------------------------------------------------------------
def test_missing_or_malformed_lease_is_none():
    assert lease_state(None) == "none"
    assert lease_state({}) == "none"
    assert lease_state({"renewed": "soon", "ttl": 30.0}) == "none"
    assert lease_state({"renewed": 100.0}) == "none"


def test_lease_live_then_expired():
    lease = {"renewed": 1000.0, "ttl": 30.0}
    assert lease_state(lease, now=1000.0) == "live"
    assert lease_state(lease, now=1030.0) == "live"
    assert lease_state(lease, now=1030.1) == "expired"


def test_nonpositive_ttl_rejected(tmp_path):
    manifest = RunManifest(tmp_path / "m.json", run_id="r")
    with pytest.raises(ConfigError, match="ttl"):
        manifest.enable_lease(ttl=0)


# ----------------------------------------------------------------------
# Lease lifecycle through the manifest file
# ----------------------------------------------------------------------
def test_save_renews_lease_and_finish_releases_it(tmp_path):
    path = tmp_path / "m.json"
    manifest = RunManifest(path, run_id="r", command="shard")
    manifest.enable_lease(ttl=30.0)
    first = manifest.lease["renewed"]
    manifest.save(force=True)

    on_disk = json.loads(path.read_text())["lease"]
    assert on_disk["ttl"] == 30.0
    assert on_disk["renewed"] >= first
    assert lease_state(on_disk) == "live"

    manifest.finish("complete", {})
    assert json.loads(path.read_text())["lease"] is None
    reloaded = RunManifest.load(path)
    assert lease_state(reloaded.lease) == "none"


def test_torn_lease_reads_as_reclaimable(tmp_path):
    # A manifest torn mid-write loses its lease along with everything
    # else — the safe reading, since a dead writer cannot renew.
    path = tmp_path / "m.json"
    manifest = RunManifest(path, run_id="r")
    manifest.enable_lease(ttl=30.0)
    manifest.save(force=True)
    path.write_bytes(path.read_bytes()[:40])
    torn, problems = RunManifest.load_tolerant(path)
    assert problems
    assert lease_state(torn.lease) == "none"


# ----------------------------------------------------------------------
# load_tolerant: truncation at arbitrary byte offsets
# ----------------------------------------------------------------------
def _sealed_manifest(path) -> RunManifest:
    manifest = RunManifest(path, run_id="r", command="shard")
    manifest.ensure("a" * 64)
    manifest.mark_ok("a" * 64)
    manifest.ensure("b" * 64)
    manifest.mark_running("b" * 64)
    manifest.save(force=True)
    return manifest


@pytest.mark.parametrize("fraction", [0.01, 0.25, 0.5, 0.75, 0.99])
def test_load_tolerant_survives_any_truncation(tmp_path, fraction):
    path = tmp_path / "m.json"
    _sealed_manifest(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(1, int(len(data) * fraction))])

    with pytest.raises(ConfigError):
        RunManifest.load(path)
    manifest, problems = RunManifest.load_tolerant(path)
    assert problems
    assert manifest.run_id == TORN_RUN_ID
    assert manifest.records == {}


def test_load_tolerant_drops_only_malformed_records(tmp_path):
    path = tmp_path / "m.json"
    _sealed_manifest(path)
    data = json.loads(path.read_text())
    data["records"]["c" * 64] = {"status": "levitating"}
    data["records"]["d" * 64] = "not-a-record"
    path.write_text(json.dumps(data))

    manifest, problems = RunManifest.load_tolerant(path)
    assert len(problems) == 2
    assert set(manifest.records) == {"a" * 64, "b" * 64}
    assert manifest.records["a" * 64]["status"] == "ok"


def test_load_tolerant_clean_file_reports_no_problems(tmp_path):
    path = tmp_path / "m.json"
    _sealed_manifest(path)
    manifest, problems = RunManifest.load_tolerant(path)
    assert problems == []
    assert manifest.run_id == "r"


def test_create_salvages_a_torn_file(tmp_path):
    # Resuming over a torn manifest must not crash and must start from
    # a clean (all-pending) slate with a fresh identity.
    path = tmp_path / "m.json"
    _sealed_manifest(path)
    path.write_bytes(path.read_bytes()[:50])
    with pytest.warns(
        RuntimeWarning, match="resuming past a damaged manifest"
    ):
        manifest = RunManifest.create(path, command="shard")
    assert manifest.run_id != TORN_RUN_ID
    assert manifest.records == {}
    manifest.ensure("e" * 64)
    manifest.save(force=True)
    assert RunManifest.load(path).records["e" * 64]["status"] == "pending"
