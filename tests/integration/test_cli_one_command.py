"""One command per job: ``experiments NAME`` prints an artifact and
``run`` a session, with the same bytes by every route (shard merge,
resume, the result cache, the worker pool)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.pipeline.parallel import ResultCache

#: Small param flags per artifact, the same for both commands.
FLAGS = {
    "table1": ["--ratio", "0.3", "--ratio", "0.2", "--seeds", "1"],
    "chaos": [
        "--scenario", "steady", "--fault", "feedback_blackout",
        "--fault", "capacity_outage", "--policy", "adaptive",
        "--seeds", "1", "--duration", "10", "--fault-at", "4",
    ],
    "fleet": [
        "--scenario", "steady", "--scenario", "churn", "--seeds", "1",
        "--subscribers", "4", "--duration", "3",
    ],
}


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_experiments_prints_what_its_merged_shard_plan_renders(
    name, tmp_path, capsys
):
    flags = FLAGS[name]
    plan = tmp_path / "plan.json"
    shards = tmp_path / "shards"
    merged = tmp_path / "merged.json"
    assert main(
        ["--no-cache", "shard", "plan", "--grid", name, "--shards", "2",
         *flags, "-o", str(plan)]
    ) == 0
    for index in ("0", "1"):
        assert main(
            ["--no-cache", "shard", "run", str(plan), "--index", index,
             "--out", str(shards)]
        ) == 0
    assert main(
        ["--no-cache", "shard", "merge", str(plan), "--dir", str(shards),
         "--out", str(tmp_path / "merged"), "--format", "json",
         "-o", str(merged)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["--no-cache", "experiments", name, *flags, "--format", "json"]
    ) == 0
    printed = capsys.readouterr().out
    planned = json.loads(plan.read_text(encoding="utf-8"))["grid"]
    assert planned["params"] == json.loads(printed)["params"]
    assert printed == merged.read_text(encoding="utf-8")


def test_resume_rewrites_the_supervised_output_file(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    out = tmp_path / "table1.json"
    argv = [
        "--cache-dir", str(tmp_path / "cache"), "experiments", "table1",
        "--seeds", "1", "--manifest", str(manifest), "--format", "json",
        "-o", str(out),
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    assert recorded["argv"] == argv
    assert recorded["command"] == "experiments"
    out.unlink()
    assert main(["resume", str(manifest)]) == 0
    assert out.read_bytes() == first
    assert "wrote table1 (5 rows)" in capsys.readouterr().err


def test_a_second_run_is_a_cache_hit_with_the_same_report(tmp_path, capsys):
    argv = [
        "--cache-dir", str(tmp_path / "cache"), "run", "--duration", "6",
        "--audio",
    ]
    assert main(argv) == 0
    fresh = capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    cached = capsys.readouterr().out.splitlines()
    assert len(ResultCache(tmp_path / "cache")) == 1
    # Only a fresh run has a perf line (a 6 s run has no drop window).
    assert fresh[-1].startswith("perf              : ")
    assert fresh[:-2] == cached
    assert "audio mean latency" in cached[-2]


def test_trace_csv_is_the_same_by_every_route(tmp_path, capsys):
    trace = ["trace", "--duration", "6", "--format", "csv"]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    routes = [
        cache,  # cold: the recorder of this process
        cache,  # warm: the recorder read back from the cache
        ["--workers", "2", "--cache-dir", str(tmp_path / "pool")],
        ["--no-cache"],
    ]
    outputs = []
    for route in routes:
        assert main([*route, *trace]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(ResultCache(tmp_path / "cache")) == 1
    assert outputs[0].splitlines()[0] == "series,time,value"
    assert all(output == outputs[0] for output in outputs)
