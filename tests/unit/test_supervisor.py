"""Retry policy, error taxonomy, failure placeholders, run manifests."""

from __future__ import annotations

import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import (
    ConfigError,
    ErrorClass,
    SessionTimeoutError,
    SimulationError,
    TransientError,
    WorkerCrashError,
    classify_error,
)
from repro.pipeline.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    find_manifest,
    manifest_dir,
)
from repro.pipeline import supervisor
from repro.pipeline.supervisor import (
    FailedSession,
    SupervisorPolicy,
    failure_label,
    retry_delay,
    split_failures,
)
from repro.pipeline.results import SessionResult


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class TestClassifyError:
    def test_transient(self):
        assert classify_error(TransientError("x")) is ErrorClass.TRANSIENT
        assert (
            classify_error(SessionTimeoutError("x"))
            is ErrorClass.TRANSIENT
        )
        assert classify_error(TimeoutError()) is ErrorClass.TRANSIENT

    def test_infrastructure(self):
        assert (
            classify_error(WorkerCrashError("x"))
            is ErrorClass.INFRASTRUCTURE
        )
        assert (
            classify_error(BrokenProcessPool("x"))
            is ErrorClass.INFRASTRUCTURE
        )
        assert classify_error(MemoryError()) is ErrorClass.INFRASTRUCTURE
        assert classify_error(OSError()) is ErrorClass.INFRASTRUCTURE

    def test_everything_else_is_deterministic(self):
        assert (
            classify_error(SimulationError("x"))
            is ErrorClass.DETERMINISTIC
        )
        assert classify_error(ValueError("x")) is ErrorClass.DETERMINISTIC
        assert (
            classify_error(ZeroDivisionError())
            is ErrorClass.DETERMINISTIC
        )


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_schedule_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 1.0)
        monkeypatch.setattr(supervisor, "BACKOFF_MULTIPLIER", 2.0)
        monkeypatch.setattr(supervisor, "BACKOFF_CAP", 5.0)
        monkeypatch.setattr(supervisor, "JITTER", 0.0)
        delays = [retry_delay("k", n) for n in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_bounds(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 1.0)
        monkeypatch.setattr(supervisor, "BACKOFF_MULTIPLIER", 1.0)
        monkeypatch.setattr(supervisor, "JITTER", 0.5)
        for n in range(1, 20):
            delay = retry_delay("cell", n)
            assert 1.0 <= delay < 1.5

    def test_jitter_is_deterministic_per_key_and_attempt(self):
        assert retry_delay("a", 1) == retry_delay("a", 1)
        assert retry_delay("a", 1) != retry_delay("b", 1)
        assert retry_delay("a", 1) != retry_delay("a", 2)

    def test_allows_respects_budget(self):
        policy = SupervisorPolicy(max_retries=2)
        assert policy.allows(ErrorClass.TRANSIENT, 1)
        assert policy.allows(ErrorClass.TRANSIENT, 2)
        assert not policy.allows(ErrorClass.TRANSIENT, 3)
        assert policy.allows(ErrorClass.INFRASTRUCTURE, 2)
        assert not policy.allows(ErrorClass.INFRASTRUCTURE, 3)

    def test_deterministic_failures_never_retry(self):
        policy = SupervisorPolicy(max_retries=5)
        assert not policy.allows(ErrorClass.DETERMINISTIC, 1)

    def test_zero_retries_quarantines_first_failure(self):
        policy = SupervisorPolicy(max_retries=0)
        assert not policy.allows(ErrorClass.TRANSIENT, 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SupervisorPolicy(max_retries=-1).validate()
        SupervisorPolicy().validate()

    def test_policy_timeout_validation(self):
        with pytest.raises(ConfigError):
            SupervisorPolicy(session_timeout=0.0).validate()
        with pytest.raises(ConfigError):
            SupervisorPolicy(session_timeout=-1.0).validate()
        SupervisorPolicy(session_timeout=10.0).validate()
        SupervisorPolicy().validate()


# ----------------------------------------------------------------------
# Failure placeholders
# ----------------------------------------------------------------------
def _failed(error_type="ValueError", message="boom", **kw):
    defaults = dict(
        config_hash="abc123",
        error_class=ErrorClass.DETERMINISTIC,
        error_type=error_type,
        message=message,
        attempts=1,
    )
    defaults.update(kw)
    return FailedSession(**defaults)


class TestFailedSession:
    def test_timeout_reason(self):
        failed = _failed(error_type="SessionTimeoutError", message="x")
        assert failed.reason == "timeout"
        assert failed.marker == "FAILED(timeout)"

    def test_crash_reason(self):
        failed = _failed(error_type="WorkerCrashError", message="x")
        assert failed.reason == "worker-crash"

    def test_generic_reason_truncates_long_messages(self):
        failed = _failed(message="y" * 200)
        assert failed.reason.startswith("ValueError: ")
        assert failed.reason.endswith("...")
        assert len(failed.reason) <= 60 + len("ValueError: ")

    def test_failure_label_dedupes_and_sorts(self):
        label = failure_label(
            [
                _failed(error_type="WorkerCrashError"),
                _failed(error_type="SessionTimeoutError"),
                _failed(error_type="WorkerCrashError"),
            ]
        )
        assert label == "FAILED(timeout; worker-crash)"

    def test_split_failures_partitions(self):
        ok = SessionResult(policy="adaptive", seed=1, fps=30.0)
        failed = _failed()
        good, bad = split_failures([ok, failed, ok])
        assert good == [ok, ok]
        assert bad == [failed]


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
class TestRunManifest:
    def _manifest(self, tmp_path, **kw):
        defaults = dict(
            argv=["table1", "--seeds", "2"],
            command="table1",
            workers=2,
            session_timeout=30.0,
            max_retries=1,
        )
        defaults.update(kw)
        return RunManifest.create(tmp_path / "run.json", **defaults)

    def test_round_trip(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.ensure("aaa", {"seed": 1})
        manifest.mark_running("aaa")
        manifest.mark_ok("aaa")
        manifest.ensure("bbb")
        manifest.save(force=True)

        loaded = RunManifest.load(tmp_path / "run.json")
        assert loaded.run_id == manifest.run_id
        assert loaded.argv == ["table1", "--seeds", "2"]
        assert loaded.command == "table1"
        assert loaded.session_timeout == 30.0
        assert loaded.records["aaa"]["status"] == "ok"
        assert loaded.records["aaa"]["wall_s"] is not None
        assert loaded.records["aaa"]["config"] == {"seed": 1}
        assert loaded.records["bbb"]["status"] == "pending"

    def test_create_resumes_in_place(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.ensure("done")
        manifest.mark_ok("done")
        manifest.ensure("mid")
        manifest.mark_running("mid")
        manifest.finish("interrupted", {"supervisor.ok": 1})

        resumed = self._manifest(tmp_path)
        assert resumed.run_id == manifest.run_id
        assert resumed.status == "running"
        assert resumed.records["done"]["status"] == "ok"
        # A record caught mid-flight is rewound so it re-executes.
        assert resumed.records["mid"]["status"] == "pending"

    def test_retry_and_quarantine_charge_attempts(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.ensure("cell")
        manifest.mark_running("cell")
        manifest.mark_retry("cell", "transient", "TransientError: x")
        record = manifest.records["cell"]
        assert record["status"] == "pending"
        assert record["attempts"] == 1
        assert record["error_class"] == "transient"
        manifest.mark_running("cell")
        manifest.mark_quarantined(
            "cell", "deterministic", "SimulationError: y"
        )
        assert record["status"] == "quarantined"
        assert record["attempts"] == 2

    def test_requeue_does_not_charge_an_attempt(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.ensure("cell")
        manifest.mark_running("cell")
        manifest.requeue("cell")
        record = manifest.records["cell"]
        assert record["status"] == "pending"
        assert record["attempts"] == 0

    def test_counts_and_unfinished(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.ensure("a")
        manifest.mark_ok("a")
        manifest.ensure("b")
        manifest.ensure("c")
        manifest.mark_quarantined("c", "deterministic", "x")
        assert manifest.counts() == {
            "ok": 1,
            "pending": 1,
            "quarantined": 1,
        }

    def test_save_is_throttled_unless_forced(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.save(force=True)
        manifest.ensure("late")
        manifest.save()  # throttled: within SAVE_INTERVAL of the force
        on_disk = json.loads(
            (tmp_path / "run.json").read_text(encoding="utf-8")
        )
        assert "late" not in on_disk["records"]
        manifest.save(force=True)
        on_disk = json.loads(
            (tmp_path / "run.json").read_text(encoding="utf-8")
        )
        assert "late" in on_disk["records"]

    def test_finish_seals_status_and_stats(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.finish("complete", {"supervisor.ok": 3})
        loaded = RunManifest.load(tmp_path / "run.json")
        assert loaded.status == "complete"
        assert loaded.stats == {"supervisor.ok": 3}

    def test_load_rejects_garbage_and_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            RunManifest.load(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(
            json.dumps({"schema": MANIFEST_SCHEMA_VERSION + 1}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError):
            RunManifest.load(wrong)

    def test_failed_atomic_write_keeps_target_and_leaves_no_temp(
        self, tmp_path, monkeypatch
    ):
        from repro.pipeline import manifest as manifest_module

        target = tmp_path / "state.json"
        target.write_text("old", encoding="utf-8")

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(manifest_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="no space"):
            manifest_module.atomic_write(target, "new", prefix=".t-")
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "old"
        assert [path.name for path in tmp_path.iterdir()] == ["state.json"]
        manifest_module.atomic_write(target, b"new", prefix=".t-")
        assert target.read_bytes() == b"new"
        assert [path.name for path in tmp_path.iterdir()] == ["state.json"]

    def test_find_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        assert manifest_dir() == tmp_path
        manifest = RunManifest.create(tmp_path / "20990101-abc.json")
        manifest.save(force=True)
        assert (
            find_manifest("20990101-abc") == tmp_path / "20990101-abc.json"
        )
        assert (
            find_manifest(str(tmp_path / "20990101-abc.json"))
            == tmp_path / "20990101-abc.json"
        )
        with pytest.raises(ConfigError):
            find_manifest("no-such-run")
