"""Run-id uniqueness and prefix-based manifest lookup."""

from __future__ import annotations

import re
import socket

import pytest

from repro.errors import ConfigError
from repro.pipeline.manifest import (
    RunManifest,
    find_manifest,
    host_tag,
    new_run_id,
)

RUN_ID_RE = re.compile(
    r"^\d{8}-\d{6}-[a-z0-9][a-z0-9-]{0,11}-[0-9a-f]{8}$"
)


def test_run_id_format():
    assert RUN_ID_RE.match(new_run_id(["repro-rtc", "experiments"]))
    assert RUN_ID_RE.match(new_run_id(None))


def test_run_ids_unique_within_one_second():
    # Two manifests minted back-to-back share the timestamp; the
    # entropy digest must still keep them distinct.
    ids = {new_run_id(["x"]) for _ in range(64)}
    assert len(ids) == 64


def test_run_ids_unique_for_identical_argv():
    assert new_run_id(["repro-rtc"]) != new_run_id(["repro-rtc"])


def test_host_tag_is_filename_safe(monkeypatch):
    monkeypatch.setattr(
        socket, "gethostname", lambda: "CI Runner #07.example.org"
    )
    tag = host_tag()
    assert re.match(r"^[a-z0-9][a-z0-9-]{0,11}$", tag)
    assert tag == "ci-runner-07"


def test_host_tag_distinguishes_hosts(monkeypatch):
    monkeypatch.setattr(socket, "gethostname", lambda: "host-a")
    id_a = new_run_id(["x"])
    monkeypatch.setattr(socket, "gethostname", lambda: "host-b")
    id_b = new_run_id(["x"])
    assert "-host-a-" in id_a
    assert "-host-b-" in id_b


def test_host_tag_fallback(monkeypatch):
    monkeypatch.setattr(socket, "gethostname", lambda: "###")
    assert host_tag() == "host"


def _seal(path, run_id):
    manifest = RunManifest(path, run_id=run_id, command="test")
    manifest.finish("complete", {})
    return manifest


def test_find_manifest_by_exact_id(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
    run_id = new_run_id(["x"])
    _seal(tmp_path / f"{run_id}.json", run_id)
    assert find_manifest(run_id) == tmp_path / f"{run_id}.json"


def test_find_manifest_by_path(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "unused"))
    target = tmp_path / "elsewhere" / "manifest.json"
    target.parent.mkdir()
    _seal(target, "whatever")
    assert find_manifest(str(target)) == target


def test_find_manifest_by_unique_prefix(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
    _seal(tmp_path / "20260808-010101-vm-aaaaaaaa.json", "a")
    _seal(tmp_path / "20260808-020202-vm-bbbbbbbb.json", "b")
    found = find_manifest("20260808-01")
    assert found.name == "20260808-010101-vm-aaaaaaaa.json"


def test_find_manifest_ambiguous_prefix_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
    _seal(tmp_path / "20260808-010101-vm-aaaaaaaa.json", "a")
    _seal(tmp_path / "20260808-010101-vm-bbbbbbbb.json", "b")
    with pytest.raises(ConfigError, match="ambiguous"):
        find_manifest("20260808-010101")


def test_find_manifest_missing_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
    with pytest.raises(ConfigError, match="no run manifest"):
        find_manifest("20990101-000000")


def test_find_manifest_prefix_with_glob_metachars(tmp_path, monkeypatch):
    # A hostile or typo'd prefix containing glob syntax must be taken
    # literally, not expanded.
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
    _seal(tmp_path / "20260808-010101-vm-aaaaaaaa.json", "a")
    with pytest.raises(ConfigError, match="no run manifest"):
        find_manifest("[2]0260808")


def test_created_manifest_resumes_in_place(tmp_path):
    path = tmp_path / "manifest.json"
    first = RunManifest.create(path, argv=["x"], command="shard")
    first.ensure("a" * 64)
    first.mark_running("a" * 64)
    first.save(force=True)
    second = RunManifest.create(path, argv=["y"], command="shard")
    assert second.run_id == first.run_id
    assert second.records["a" * 64]["status"] == "pending"
