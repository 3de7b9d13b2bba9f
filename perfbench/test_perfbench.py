"""Tests of the benchmark's own code: metric catalogue, output checks,
span accounting. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from perfbench import catalog
from perfbench.run import ROOT, Bench
from perfbench.tracer import Tracer
from perfbench.workloads import Table1, Workload, _session_cell
from repro.experiments import scenarios
from repro.pipeline.parallel import ResultCache


def short_cell(seed: int = 3):
    config = dataclasses.replace(
        scenarios.step_drop_config(0.3, seed=seed), duration=3.0
    )
    return _session_cell(f"short/seed{seed}", config)


class Short(Workload):
    """Short cells in one seed group, run inline like ``impaired``."""

    def __init__(self, cells):
        self.groups = [cells]


class Cached(Short):
    """Short cells run through ``run_many`` like ``table1``."""

    via_cache = True
    run_cold = Table1.run_cold


def test_every_metric_is_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, metrics in (
        ("end_to_end", catalog.END_TO_END),
        ("per_layer", catalog.PER_LAYER),
    ):
        declared = {m["name"]: m for m in spec[section]}
        assert set(declared) == {m.name for m in metrics}
        for metric in metrics:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric.name)
            assert declared[metric.name]["unit"] == metric.unit
            assert declared[metric.name]["better"] == metric.better
            assert set(metric.moves) <= {m.name for m in catalog.END_TO_END}
    assert [w["name"] for w in spec["workloads"]] == list(catalog.ALL)


@pytest.mark.parametrize("workload_cls", [Short, Cached])
def test_altered_warm_entry_fails_the_cell(
    tmp_path, monkeypatch, capsys, workload_cls
):
    put = ResultCache.put

    def put_then_alter(self, config, result):
        path = put(self, config, result)
        entry = json.loads(path.read_text())
        frame = next(
            f for f in entry["result"]["frames"] if f["display_time"] is not None
        )
        frame["display_time"] += 0.001
        path.write_text(json.dumps(entry))
        return path

    monkeypatch.setattr(ResultCache, "put", put_then_alter)
    bench = Bench(workload_cls([short_cell()]), tmp_path)
    bench.run_pass(0, replay_window=0.0)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "warm-replayed result differs" in capsys.readouterr().err


def test_clean_pass_and_traced_pass_agree(tmp_path):
    bench = Bench(Short([short_cell()]), tmp_path)
    bench.run_pass(0, replay_window=0.0)
    tracer = Tracer()
    with tracer.installed():
        bench.run_pass(0, tracer)
    assert (bench.attempted, bench.failed) == (2, 0)


def test_traced_self_times_fit_in_the_cell(tmp_path):
    cells = [short_cell(3), short_cell(4)]
    bench = Bench(Cached(cells), tmp_path)
    tracer = Tracer()
    with tracer.installed():
        bench.run_pass(0, tracer)
    assert bench.failed == 0
    assert set(tracer.cells) == {cell.key for cell in cells}
    for record in tracer.cells.values():
        spans = record["spans"]
        assert {"simcore", "codec", "cc", "rtp", "pipeline.put"} <= set(spans)
        assert all(own >= 0 for _count, _total, own in spans.values())
        assert sum(own for _count, _total, own in spans.values()) <= record["wall_ns"]
        assert record["hits"] == 1
        assert record["events"] > 0
        assert 0 <= record["lane_events"] <= record["events"]


def test_tracer_restores_the_entry_points():
    from repro.pipeline import parallel
    from repro.baselines.webrtc_like import WebrtcLikePolicy

    before = (parallel.config_hash, ResultCache.get)
    with Tracer().installed():
        assert parallel.config_hash is not before[0]
        assert "after_frame" in vars(WebrtcLikePolicy)
    assert (parallel.config_hash, ResultCache.get) == before
    assert "after_frame" not in vars(WebrtcLikePolicy)
