"""Telemetry recorder, null recorder, serialization, and exporters."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    csv_lines,
    export_text,
    jsonl_lines,
)


def make_recorder() -> Telemetry:
    t = Telemetry()
    t.count("frames")
    t.count("frames", 2)
    t.gauge("depth", 7.0)
    t.probe("qp", 0.0, 30.0)
    t.probe("qp", 0.033, 31.5)
    t.probe("rate", 0.0, 1_500_000.0)
    return t


def test_counters_accumulate():
    t = make_recorder()
    assert t.counters["frames"] == 3


def test_gauge_overwrites():
    t = make_recorder()
    t.gauge("depth", 9.0)
    assert t.gauges["depth"] == 9.0


def test_probe_series_access():
    t = make_recorder()
    qp = t.series("qp")
    assert list(qp) == [(0.0, 30.0), (0.033, 31.5)]
    assert qp.last() == 31.5
    assert len(qp) == 2
    assert t.series_names() == ["qp", "rate"]


def test_unknown_series_raises():
    with pytest.raises(ReproError):
        make_recorder().series("nope")


def test_enabled_flag():
    assert Telemetry().enabled
    assert not NullTelemetry().enabled
    assert not NULL_TELEMETRY.enabled


def test_null_recorder_records_nothing():
    null = NullTelemetry()
    null.count("frames")
    null.gauge("depth", 1.0)
    null.probe("qp", 0.0, 30.0)
    assert null.counters == {}
    assert null.gauges == {}
    assert null.series_names() == []


def test_to_dict_from_dict_round_trip():
    t = make_recorder()
    payload = json.loads(json.dumps(t.to_dict()))
    back = Telemetry.from_dict(payload)
    assert back.counters == t.counters
    assert back.gauges == t.gauges
    assert back.series_names() == t.series_names()
    for name in t.series_names():
        assert list(back.series(name)) == list(t.series(name))
    # And the round-trip is a fixed point.
    assert back.to_dict() == t.to_dict()


def test_jsonl_export_contents():
    t = make_recorder()
    records = [json.loads(line) for line in jsonl_lines(t)]
    counters = {
        r["name"]: r["value"] for r in records if r["type"] == "counter"
    }
    samples = [r for r in records if r["type"] == "sample"]
    assert counters["frames"] == 3
    assert {"series": "qp", "time": 0.033, "value": 31.5} == {
        k: samples[1][k] for k in ("series", "time", "value")
    }


def test_csv_export_contents():
    t = make_recorder()
    lines = list(csv_lines(t))
    assert lines[0] == "series,time,value"
    assert "qp,0.0,30.0" in lines[1]


def test_csv_export_survives_the_dict_round_trip():
    # A result that crossed the cache or the worker pool carries its
    # recorder through to_dict/from_dict, which stores every sample as a
    # float: integer samples must export the same either way.
    t = Telemetry()
    t.probe("encoder.frame_bytes", 0, 35049)
    t.probe("encoder.frame_bytes", 0.5, 1200)
    back = Telemetry.from_dict(json.loads(json.dumps(t.to_dict())))
    assert list(csv_lines(back)) == list(csv_lines(t))
    assert "encoder.frame_bytes,0.0,35049.0" in list(csv_lines(t))


def test_export_series_filter():
    t = make_recorder()
    text = export_text(t, fmt="csv", series=["rate"])
    assert "rate" in text
    assert "qp" not in text


def test_export_unknown_series_raises():
    with pytest.raises(ReproError):
        export_text(make_recorder(), fmt="jsonl", series=["nope"])
