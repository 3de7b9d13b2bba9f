"""Supervised execution under sabotage: kill, hang, fail, interrupt.

The self-chaos harness (:mod:`repro.pipeline.chaosharness`) sabotages
workers through environment-driven rules, and these tests assert the
supervisor's headline guarantees:

* a SIGKILLed worker is retried and the batch output stays
  **bit-identical** to a clean serial run;
* a hung worker trips the session timeout, the pool respawns, and the
  retry succeeds;
* a deterministically-failing config is quarantined without retries
  while its siblings finish;
* ``resume`` re-executes **only** the unfinished cells;
* Ctrl-C flushes the manifest and propagates.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import EXIT_PARTIAL, ErrorClass
from repro.experiments import ARTIFACTS, artifacts, scenarios
from repro.pipeline import chaosharness, supervisor
from repro.pipeline.config import PolicyName
from repro.pipeline.manifest import RunManifest
from repro.pipeline.parallel import (
    ResultCache,
    config_hash,
    configure,
    run_many,
)
from repro.pipeline.supervisor import (
    FailedSession,
    SupervisorPlan,
    SupervisorPolicy,
    split_failures,
)


def _configs(count=2, duration=2.0):
    out = []
    for seed in range(1, count + 1):
        config = scenarios.step_drop_config(0.3, seed=seed)
        out.append(
            dataclasses.replace(
                config, policy=PolicyName.WEBRTC, duration=duration
            )
        )
    return out


def _fingerprints(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def _chaos(monkeypatch, tmp_path, rules):
    state = tmp_path / "chaos-state"
    state.mkdir(exist_ok=True)
    monkeypatch.setenv(chaosharness.ENV_RULES, json.dumps(rules))
    monkeypatch.setenv(chaosharness.ENV_STATE, str(state))
    return state


@pytest.fixture(autouse=True)
def _short_backoff(monkeypatch):
    monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.05)
    monkeypatch.setattr(supervisor, "BACKOFF_CAP", 0.2)


def _plan(timeout=None, max_retries=2, manifest=None):
    return SupervisorPlan(
        policy=SupervisorPolicy(
            session_timeout=timeout, max_retries=max_retries
        ),
        manifest=manifest,
    )


def test_clean_path_bit_identical_to_serial():
    configs = _configs()
    serial = run_many(configs, workers=1, cache=None)
    plan = _plan()
    supervised = run_many(
        configs, workers=2, cache=None, plan=plan
    )
    assert _fingerprints(supervised) == _fingerprints(serial)
    assert plan.stats.ok == len(configs)
    assert plan.stats.quarantined == 0
    assert plan.stats.retries == 0


def test_sigkilled_worker_is_retried_to_completion(
    monkeypatch, tmp_path
):
    configs = _configs()
    target = config_hash(configs[0])
    _chaos(
        monkeypatch,
        tmp_path,
        [{"action": "kill", "match": target[:16], "times": 1}],
    )
    serial = run_many(configs, workers=1, cache=None)

    plan = _plan()
    supervised = run_many(
        configs, workers=2, cache=None, plan=plan
    )
    assert _fingerprints(supervised) == _fingerprints(serial)
    assert plan.stats.crashes >= 1
    assert plan.stats.retries >= 1
    assert plan.stats.pool_restarts >= 1
    assert plan.stats.quarantined == 0


def test_hung_worker_times_out_and_retry_succeeds(
    monkeypatch, tmp_path
):
    configs = _configs(count=1)
    target = config_hash(configs[0])
    _chaos(
        monkeypatch,
        tmp_path,
        [
            {
                "action": "hang",
                "match": target[:16],
                "times": 1,
                "hang_seconds": 120,
            }
        ],
    )
    serial = run_many(configs, workers=1, cache=None)

    plan = _plan(timeout=3.0)
    supervised = run_many(
        configs, workers=1, cache=None, plan=plan
    )
    assert _fingerprints(supervised) == _fingerprints(serial)
    assert plan.stats.timeouts == 1
    assert plan.stats.retries == 1
    assert plan.stats.pool_restarts >= 1


def test_deterministic_failure_quarantines_without_retry(
    monkeypatch, tmp_path
):
    configs = _configs()
    target = config_hash(configs[0])
    _chaos(
        monkeypatch,
        tmp_path,
        [
            {
                "action": "raise-deterministic",
                "match": target[:16],
                "times": -1,
            }
        ],
    )
    plan = _plan(max_retries=3)
    results = run_many(
        configs, workers=2, cache=None, plan=plan
    )
    ok, failed = split_failures(results)
    assert len(failed) == 1 and len(ok) == 1
    [placeholder] = failed
    assert isinstance(placeholder, FailedSession)
    assert placeholder.error_class is ErrorClass.DETERMINISTIC
    assert placeholder.attempts == 1  # no retries were spent
    assert placeholder.marker.startswith("FAILED(SimulationError")
    assert plan.stats.retries == 0
    assert plan.stats.quarantined == 1
    # The sibling config still produced its normal result.
    assert results[1].seed == configs[1].seed


def test_transient_failure_retries_then_succeeds(
    monkeypatch, tmp_path
):
    configs = _configs(count=1)
    target = config_hash(configs[0])
    _chaos(
        monkeypatch,
        tmp_path,
        [
            {
                "action": "raise-transient",
                "match": target[:16],
                "times": 2,
            }
        ],
    )
    serial = run_many(configs, workers=1, cache=None)
    plan = _plan(max_retries=2)
    supervised = run_many(
        configs, workers=1, cache=None, plan=plan
    )
    assert _fingerprints(supervised) == _fingerprints(serial)
    assert plan.stats.retries == 2
    assert plan.stats.quarantined == 0


def test_resume_executes_only_unfinished_cells(
    monkeypatch, tmp_path
):
    configs = _configs(count=3)
    state = _chaos(monkeypatch, tmp_path, [])
    cache = ResultCache(tmp_path / "cache")
    manifest_path = tmp_path / "run.json"

    # First (interrupted) pass: only the first two cells finish.
    manifest = RunManifest.create(manifest_path, argv=["x"], workers=1)
    run_many(
        configs[:2], workers=1, cache=cache, plan=_plan(manifest=manifest)
    )
    first_pass = chaosharness.executions(state)
    assert len(first_pass) == 2

    # Resume: the full batch goes through, cache serves finished cells.
    manifest = RunManifest.create(manifest_path, argv=["x"], workers=1)
    plan = _plan(manifest=manifest)
    results = run_many(
        configs, workers=1, cache=cache, plan=plan
    )
    second_pass = chaosharness.executions(state)[len(first_pass):]
    assert len(second_pass) == 1  # only the third cell executed
    assert second_pass[0] == config_hash(configs[2])
    assert plan.stats.cached == 2

    # And the resumed output equals a clean serial run of all three.
    serial = run_many(configs, workers=1, cache=None)
    assert _fingerprints(results) == _fingerprints(serial)
    assert manifest.status == "complete"


def test_keyboard_interrupt_flushes_manifest(monkeypatch, tmp_path):
    def interrupting_wait(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(supervisor, "_wait", interrupting_wait)
    configs = _configs()
    manifest = RunManifest.create(
        tmp_path / "run.json", argv=["x"], workers=1
    )
    with pytest.raises(KeyboardInterrupt):
        run_many(
            configs,
            workers=1,
            cache=None,
            plan=_plan(manifest=manifest),
        )
    loaded = RunManifest.load(tmp_path / "run.json")
    assert loaded.status == "interrupted"
    # Every cell was rewound to pending — nothing is stuck "running".
    statuses = {r["status"] for r in loaded.records.values()}
    assert statuses == {"pending"}


def test_cli_partial_failure_renders_markers_and_exit_code(
    monkeypatch, tmp_path, capsys
):
    from repro.cli import main

    _chaos(
        monkeypatch,
        tmp_path,
        [{"action": "raise-deterministic", "match": "", "times": -1}],
    )
    out_path = tmp_path / "table.csv"
    code = main(
        [
            "--cache-dir",
            str(tmp_path / "cache"),
            "table1",
            "--seeds",
            "1",
            "--max-retries",
            "0",
            "--manifest",
            str(tmp_path / "run.json"),
            "--format",
            "csv",
            "-o",
            str(out_path),
        ]
    )
    assert code == EXIT_PARTIAL
    text = out_path.read_text(encoding="utf-8")
    assert "FAILED(SimulationError" in text
    err = capsys.readouterr().err
    assert "quarantined" in err
    manifest = RunManifest.load(tmp_path / "run.json")
    assert manifest.status == "partial"
    assert all(
        record["status"] == "quarantined"
        for record in manifest.records.values()
    )


#: The label fields of each artifact's rows in the failed-row test
#: (``variant`` where not listed).
_LABELS = {
    "table1": ("drop_ratio", "label"),
    "comparison_mild": ("policy",),
    "extension_i_audio": ("policy",),
    "extension_j_fairness": ("pairing",),
    "chaos": ("scenario", "fault", "policy"),
    "fleet": ("scenario", "seed"),
}

#: Small params for the non-extension artifacts of the failed-row test
#: (each extension runs on seed 1).
_SMALL_PARAMS = {
    "table1": {"ratios": [0.3, 0.2], "seeds": [1]},
    "ablation_a_detector": {"seeds": [1]},
    "comparison_mild": {"seeds": [1]},
    "chaos": {
        "scenarios": ["steady"],
        "faults": ["feedback_blackout", "capacity_outage"],
        "policies": ["adaptive"],
        "seeds": [1],
        "duration": 10.0,
        "fault_at": 4.0,
    },
    "fleet": {
        "scenarios": ["steady", "churn"],
        "subscribers": 4,
        "duration": 3.0,
    },
}


@pytest.mark.parametrize(
    "name",
    [
        *_SMALL_PARAMS,
        *(name for name in ARTIFACTS if name.startswith("extension_")),
    ],
)
def test_extension_folds_a_quarantined_session_into_a_failed_row(
    name, monkeypatch, tmp_path
):
    # The one failed-row rule: the row of the quarantined (last) cell
    # keeps its labels, holds None for every metric and carries the
    # marker; every other row carries failed=None.
    params = artifacts.resolve(name, _SMALL_PARAMS.get(name, {"seeds": [1]}))
    target = config_hash(ARTIFACTS[name].plan(**params)[-1])
    _chaos(
        monkeypatch,
        tmp_path,
        [{"action": "raise-deterministic", "match": target, "times": -1}],
    )
    context = configure()
    monkeypatch.setattr(context, "workers", 2)
    monkeypatch.setattr(context, "cache", None)
    monkeypatch.setattr(context, "supervisor", _plan(max_retries=0))
    payload = artifacts.produce(name, **params)
    *others, failed = payload["rows"]
    marker = failed["failed"]
    assert marker.startswith("FAILED(SimulationError")
    assert others and all(row["failed"] is None for row in others)
    assert list(failed) == list(others[0])
    labels = _LABELS.get(name, ("variant",))
    assert [key for key, value in failed.items() if value is not None] == [
        *labels, "failed"
    ]
    metrics = len(failed) - len(labels) - 1
    assert metrics > 0
    # The table shows the row's labels, then the marker.
    [line] = [
        line
        for line in artifacts.render(payload).splitlines()
        if "FAILED(" in line
    ]
    assert line.endswith(marker)
    shown = line[: -len(marker)]
    for key in labels:
        shown = shown.replace(str(failed[key]), "", 1)
    assert shown.strip() == ""
    # In CSV every null metric is an empty cell.
    cells = [
        repr(failed[key]) if isinstance(failed[key], float)
        else str(failed[key])
        for key in labels
    ]
    assert artifacts.render(payload, "csv").splitlines()[-1] == ",".join(
        [*cells, *[""] * metrics, marker]
    )


def test_figure_prints_the_marker_of_a_quarantined_series(
    monkeypatch, tmp_path
):
    params = artifacts.resolve("figure2", {})
    target = config_hash(ARTIFACTS["figure2"].plan(**params)[-1])
    _chaos(
        monkeypatch,
        tmp_path,
        [{"action": "raise-deterministic", "match": target, "times": -1}],
    )
    context = configure()
    monkeypatch.setattr(context, "workers", 2)
    monkeypatch.setattr(context, "cache", None)
    monkeypatch.setattr(context, "supervisor", _plan(max_retries=0))
    payload = artifacts.produce("figure2")
    baseline, adaptive = payload["rows"]
    assert baseline["failed"] is None and baseline["x"]
    assert adaptive["failed"].startswith("FAILED(SimulationError")
    assert adaptive["x"] == adaptive["y"] == []
    # The empty series' block ends in its marker.
    header = f"{'x':>12} {'y':>14}"
    assert artifacts.render(payload).endswith(
        f"adaptive\n{header}\n{adaptive['failed']}\n"
    )


# ----------------------------------------------------------------------
# A SIGKILLed parent takes its pool down
# ----------------------------------------------------------------------
#: Runs ``_configs(3)`` on a two-worker pool with the cache at argv[1].
_POOL_SCRIPT = """
import dataclasses, sys
from repro.experiments import scenarios
from repro.pipeline.config import PolicyName
from repro.pipeline.parallel import ResultCache, run_many

configs = [
    dataclasses.replace(
        scenarios.step_drop_config(0.3, seed=seed),
        policy=PolicyName.WEBRTC,
        duration=2.0,
    )
    for seed in (1, 2, 3)
]
run_many(configs, workers=2, cache=ResultCache(sys.argv[1]))
"""


def _proc_state(pid):
    """``(state, ppid)`` of a process from ``/proc``, or ``None``."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # "pid (comm) state ppid ...": comm may itself hold spaces.
    state, ppid = text[text.rindex(")") + 2:].split()[:2]
    return state, int(ppid)


def _live_descendants(root):
    """Pids of ``root``'s non-zombie descendants, read from ``/proc``."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            info = _proc_state(int(entry.name))
            if info is not None and info[0] != "Z":
                parents[int(entry.name)] = info[1]
    found, frontier = set(), {root}
    while frontier:
        frontier = {
            pid for pid, ppid in parents.items() if ppid in frontier
        } - found
        found |= frontier
    return found


def _wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)
def test_sigkilled_parent_takes_its_pool_workers_down(tmp_path):
    import repro

    configs = _configs(count=3)
    hang = [
        {"action": "hang", "match": config_hash(c), "hang_seconds": 60}
        for c in configs[1:]
    ]
    env = dict(os.environ)
    env[chaosharness.ENV_RULES] = json.dumps(hang)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    cache = ResultCache(tmp_path / "cache")
    proc = subprocess.Popen(
        [sys.executable, "-c", _POOL_SCRIPT, str(cache.root)], env=env
    )
    workers: set[int] = set()
    try:
        # Cell 1 lands in the cache while both workers hang on 2 and 3.
        assert _wait_for(lambda: len(cache) > 0, 60), "no cell finished"
        assert _wait_for(
            lambda: len(_live_descendants(proc.pid)) >= 2, 10
        ), "the pool never started two workers"
        workers = _live_descendants(proc.pid)
        proc.kill()
        proc.wait(timeout=10)

        def gone():
            return all(
                (_proc_state(pid) or ("Z",))[0] == "Z" for pid in workers
            )

        assert _wait_for(gone, 5), "pool workers outlived their parent"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
