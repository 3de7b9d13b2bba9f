"""Shard run + merge equals a single-host serial run, byte for byte.

The shard fabric's headline guarantee: partition a grid into K shards,
execute them independently (in any order, on any host, with crashes in
between), merge, and the rendered report is **byte-identical** to
``run_many`` executing the whole grid serially on one machine. These
tests drive the library API; the ``sweep-shards`` CI job proves the
same property through the CLI across real GitHub Actions matrix legs.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigError
from repro.experiments import artifacts, table1
from repro.pipeline import shards
from repro.pipeline.manifest import RunManifest, lease_state
from repro.pipeline.parallel import run_many
from repro.pipeline.shards import build_plan

GRID = {"ratios": [0.3, 0.2], "seeds": [1, 2]}


def _serial_reference(fmt: str) -> str:
    batch, _spans = table1.plan_batch(ratios=(0.3, 0.2), seeds=(1, 2))
    results = run_many(batch, workers=1, cache=None)
    return artifacts.render(
        artifacts.payload_of("table1", GRID, batch, results), fmt
    )


def _run_and_merge(plan, tmp_path, indices=None):
    for index in indices if indices is not None else range(plan.shards):
        shards.run_shard(plan, index, tmp_path / "shards", workers=2)
    dirs = [
        shards.shard_dir(tmp_path / "shards", index)
        for index in range(plan.shards)
    ]
    return shards.merge_shards(plan, dirs, tmp_path / "merged")


def test_three_shards_merge_byte_identical_to_serial(tmp_path):
    plan = build_plan("table1", GRID, 3)
    assert len(plan.hashes) == 8
    cache, manifest, summary = _run_and_merge(plan, tmp_path)
    assert summary.ok == 8
    assert summary.quarantined == 0
    assert manifest.status == "complete"
    for fmt in ("table", "json", "csv"):
        merged_text, quarantined = shards.render_merged(
            plan, cache, manifest, fmt
        )
        assert quarantined == 0
        assert merged_text == _serial_reference(fmt)


def test_interrupted_shard_resumes_and_merge_still_identical(tmp_path):
    plan = build_plan("table1", GRID, 3)
    base = tmp_path / "shards"
    # Run every shard, then simulate shard 1 having been SIGKILLed
    # mid-run: drop one finished cell from its cache and wind its
    # manifest record back to running (what an interrupted process
    # leaves behind).
    for index in range(plan.shards):
        shards.run_shard(plan, index, base, workers=2)
    victim_dir = shards.shard_dir(base, 1)
    victim_hash = plan.hashes[plan.cell_indices(1)[-1]]
    (victim_dir / "cache" / f"{victim_hash}.json").unlink()
    manifest = RunManifest.load(victim_dir / "manifest.json")
    manifest.records[victim_hash]["status"] = "running"
    manifest.save(force=True)

    # Re-invoking the shard resumes it: finished cells come from the
    # shard cache, only the torn cell re-executes.
    resumed = RunManifest.create(victim_dir / "manifest.json")
    assert resumed.records[victim_hash]["status"] == "pending"
    shards.run_shard(plan, 1, base, workers=2)

    dirs = [shards.shard_dir(base, index) for index in range(plan.shards)]
    cache, merged_manifest, summary = shards.merge_shards(
        plan, dirs, tmp_path / "merged"
    )
    assert summary.ok == 8
    merged_text, _ = shards.render_merged(
        plan, cache, merged_manifest, "json"
    )
    assert merged_text == _serial_reference("json")


def test_rerun_past_a_torn_manifest_merge_identical(tmp_path):
    plan = build_plan("table1", GRID, 3)
    base = tmp_path / "shards"
    for index in range(plan.shards):
        shards.run_shard(plan, index, base, workers=2)

    # Shard 1 was SIGKILLed mid-write on a filesystem without atomic
    # rename: its last cell loses its cache entry and the manifest is
    # torn at an arbitrary byte offset. Re-running the shard salvages
    # the manifest, re-executes only the lost cell and still merges
    # byte-identically.
    victim_dir = shards.shard_dir(base, 1)
    victim_cells = plan.cell_indices(1)
    lost_hash = plan.hashes[victim_cells[-1]]
    (victim_dir / "cache" / f"{lost_hash}.json").unlink()
    manifest_file = victim_dir / "manifest.json"
    manifest_file.write_bytes(manifest_file.read_bytes()[:97])
    with pytest.warns(RuntimeWarning, match="damaged manifest"):
        _results, splan = shards.run_shard(plan, 1, base, workers=2)
    assert splan.stats.cached == len(victim_cells) - 1
    assert splan.stats.executed == 1

    dirs = [shards.shard_dir(base, index) for index in range(plan.shards)]
    cache, merged_manifest, summary = shards.merge_shards(
        plan, dirs, tmp_path / "merged"
    )
    assert summary.ok == 8
    assert summary.quarantined == 0
    merged_text, _ = shards.render_merged(
        plan, cache, merged_manifest, "json"
    )
    assert merged_text == _serial_reference("json")


def test_merged_cache_is_a_valid_warm_cache(tmp_path):
    plan = build_plan("table1", GRID, 2)
    cache, _manifest, _summary = _run_and_merge(plan, tmp_path)
    # Every grid config must be served from the merged cache with a
    # bit-identical payload (to_dict round trip is lossless by
    # contract), so a future run of the same grid does zero work.
    serial = run_many(plan.configs(), workers=1, cache=None)
    for config, fresh in zip(plan.configs(), serial):
        hit = cache.get(config)
        assert hit is not None
        assert json.dumps(hit.to_dict(), sort_keys=True) == json.dumps(
            fresh.to_dict(), sort_keys=True
        )


def test_shard_execution_order_is_irrelevant(tmp_path):
    plan = build_plan("table1", GRID, 3)
    cache, manifest, _summary = _run_and_merge(
        plan, tmp_path, indices=[2, 0, 1]
    )
    merged_text, _ = shards.render_merged(plan, cache, manifest, "csv")
    assert merged_text == _serial_reference("csv")


# ----------------------------------------------------------------------
# A re-run refuses a shard whose lease a live process holds
# ----------------------------------------------------------------------
def _reaped_child_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


@pytest.mark.parametrize(
    "holder",
    ["own-pid", "reaped-child", "other-host-fresh", "other-host-expired"],
)
def test_rerun_refuses_a_live_lease(tmp_path, holder):
    refused = holder in ("own-pid", "other-host-fresh")
    plan = build_plan("table1", {"ratios": [0.3], "seeds": [1]}, 2)
    base = tmp_path / "shards"
    manifest_file = shards.shard_dir(base, 0) / "manifest.json"
    host, pid, age = {
        "own-pid": (socket.gethostname(), os.getpid(), 0.0),
        "reaped-child": (socket.gethostname(), _reaped_child_pid(), 0.0),
        "other-host-fresh": ("other-host.invalid", os.getpid(), 0.0),
        "other-host-expired": ("other-host.invalid", os.getpid(), 31.0),
    }[holder]
    held = RunManifest(manifest_file, run_id="held", command="shard")
    held.lease = {
        "owner": "held",
        "host": host,
        "pid": pid,
        "ttl": 30.0,
        "renewed": time.time() - age,
    }
    manifest_file.parent.mkdir(parents=True)
    manifest_file.write_text(json.dumps(held.to_dict()))
    before = manifest_file.read_bytes()

    if refused:
        with pytest.raises(ConfigError, match="still running") as info:
            shards.run_shard(plan, 0, base)
        assert f"{host!r}, pid {pid}, renewed" in str(info.value)
        assert " s ago" in str(info.value)
        assert manifest_file.read_bytes() == before
        assert not (manifest_file.parent / "cache").exists()
    else:
        results, _splan = shards.run_shard(plan, 0, base)
        assert len(results) == len(plan.cell_indices(0))
        sealed = RunManifest.load(manifest_file)
        assert sealed.status == "complete"
        assert lease_state(sealed.lease) == "none"
