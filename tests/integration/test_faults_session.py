"""End-to-end fault injection through sessions and the chaos matrix.

The contracts under test:

* every fault kind runs through a full session deterministically;
* a session with ``faults=None`` (or an empty schedule) is bit-identical
  to one built before the faults subsystem existed;
* the robustness matrix report is byte-identical across repeat runs and
  across worker counts.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import artifacts, robustness
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.pipeline.config import (
    NetworkConfig,
    PolicyName,
    SessionConfig,
)
from repro.pipeline.runner import run_session
from repro.pipeline.session import RtcSession
from repro.telemetry import Telemetry
from repro.traces.bandwidth import BandwidthTrace

DURATION = 6.0
FAULT_AT = 2.0


def _config(
    faults: FaultSchedule | None = None, **overrides
) -> SessionConfig:
    base = SessionConfig(
        network=NetworkConfig(
            capacity=BandwidthTrace.constant(2e6), queue_bytes=140_000
        ),
        policy=PolicyName.ADAPTIVE,
        duration=DURATION,
        seed=1,
        faults=faults,
    )
    return dataclasses.replace(base, **overrides)


def _fingerprint(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Every fault kind, end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", robustness.FAULT_NAMES)
def test_each_fault_kind_runs_and_is_deterministic(name):
    schedule = robustness.fault_suite(FAULT_AT)[name]
    config = _config(faults=schedule)
    first = run_session(config)
    second = run_session(config)
    assert len(first.frames) > int(DURATION * 25)
    assert _fingerprint(first) == _fingerprint(second)


def test_fault_session_differs_from_clean_session():
    schedule = FaultSchedule.of(
        FaultSpec(FaultKind.CAPACITY_OUTAGE, FAULT_AT, 1.0, rate_bps=0.0)
    )
    clean = run_session(_config())
    faulted = run_session(_config(faults=schedule))
    assert _fingerprint(clean) != _fingerprint(faulted)
    window = (FAULT_AT, DURATION)
    assert faulted.peak_latency(*window) > clean.peak_latency(*window)


def test_faults_none_and_empty_schedule_bit_identical():
    none_result = run_session(_config(faults=None))
    empty_result = run_session(_config(faults=FaultSchedule()))
    assert _fingerprint(none_result) == _fingerprint(empty_result)


def test_injector_marks_windows_and_counts_feedback_drops():
    schedule = FaultSchedule.of(
        FaultSpec(FaultKind.FEEDBACK_BLACKOUT, FAULT_AT, 1.0)
    )
    session = RtcSession(
        _config(faults=schedule), telemetry=Telemetry()
    )
    result = session.run()
    injector = session.fault_injector
    assert injector is not None
    assert injector.events == [
        (FAULT_AT, "feedback_blackout@2s", True),
        (FAULT_AT + 1.0, "feedback_blackout@2s", False),
    ]
    assert result.traces is not None
    counters = result.traces.counters
    assert counters["faults.applied"] == 1
    assert counters["faults.revoked"] == 1
    assert counters["faults.feedback_dropped"] > 0


def test_telemetry_does_not_change_faulted_outcomes():
    schedule = robustness.fault_suite(FAULT_AT)["blackout_plus_outage"]
    plain = run_session(_config(faults=schedule))
    with_telemetry = run_session(
        _config(faults=schedule, enable_telemetry=True)
    )
    recorded = with_telemetry.to_dict()
    recorded["traces"] = None
    assert json.dumps(recorded, sort_keys=True) == _fingerprint(plain)


# ----------------------------------------------------------------------
# The robustness matrix
# ----------------------------------------------------------------------
def _small_matrix(workers: int = 1) -> dict:
    from repro.pipeline.parallel import run_many

    params = artifacts.resolve(
        "chaos",
        {
            "scenarios": ["steady"],
            "faults": ["feedback_blackout", "capacity_outage"],
            "policies": ["adaptive"],
            "seeds": [1],
            "duration": 10.0,
            "fault_at": 4.0,
        },
    )
    batch = artifacts.ARTIFACTS["chaos"].plan(**params)
    results = run_many(batch, workers=workers, cache=None)
    return artifacts.payload_of("chaos", params, batch, results)


def test_matrix_report_byte_identical_across_runs_and_workers():
    serial_a = artifacts.render(_small_matrix(), "json")
    serial_b = artifacts.render(_small_matrix(), "json")
    parallel = artifacts.render(_small_matrix(workers=2), "json")
    assert serial_a == serial_b
    assert serial_a == parallel


def test_matrix_report_shape_and_encodings():
    payload = _small_matrix()
    rows = payload["rows"]
    assert [row["fault"] for row in rows] == [
        "feedback_blackout",
        "capacity_outage",
    ]
    outage = rows[1]
    assert outage["delta_p95_ms"] > 50.0
    assert outage["delta_freeze"] > 0.0
    assert outage["recovery_s"] is None or outage["recovery_s"] >= 0.0
    assert json.loads(artifacts.render(payload, "json")) == payload
    csv = artifacts.render(payload, "csv")
    lines = csv.strip().split("\n")
    assert lines[0].startswith("scenario,fault,policy,")
    assert len(lines) == 3
    table = artifacts.render(payload)
    assert "scenario: steady" in table
    assert "capacity_outage" in table


def test_matrix_rejects_unknown_names():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        artifacts.produce("chaos", scenarios=["nope"])
    with pytest.raises(ConfigError):
        artifacts.produce("chaos", faults=["nope"])
    with pytest.raises(ConfigError):
        artifacts.produce("chaos", seeds=[])
    with pytest.raises(ConfigError):
        artifacts.produce("chaos", duration=5.0, fault_at=8.0)
