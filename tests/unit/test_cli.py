"""CLI parsing and the fast subcommands."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import ARTIFACTS

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_run_defaults():
    parser = build_parser()
    args = parser.parse_args(["run"])
    assert args.policy == "adaptive"
    assert args.drop_ratio == 0.2
    assert not args.nack and not args.audio


def test_run_subcommand_executes(capsys):
    code = main(
        ["run", "--policy", "webrtc", "--duration", "6", "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Session report — policy=webrtc seed=2" in out
    assert "Latency (capture → display)" in out


def test_invalid_policy_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--policy", "bogus"])


def test_figure_choices(capsys):
    parser = build_parser()
    args = parser.parse_args(["experiments", "figure2"])
    assert args.names == ["figure2"]
    assert parser.parse_args(["experiments"]).names == []
    # An unknown name is a usage error that lists every artifact, and
    # nothing runs (figure2 comes first and is not printed).
    assert main(["--no-cache", "experiments", "figure2", "figure9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "figure9" in captured.err
    assert all(name in captured.err for name in ARTIFACTS)


def test_run_prints_the_session_report(capsys):
    code = main(
        ["--no-cache", "run", "--policy", "adaptive", "--duration", "25",
         "--seed", "2", "--nack", "--audio"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # The report, its audio lines, the drop-window lines, and last the
    # perf line of a fresh run.
    marks = [
        "Session report — policy=adaptive seed=2",
        "Latency (capture → display)",
        "Quality",
        "audio mean latency",
        "drop-window mean",
        "drop-window p95",
        "perf              : ",
    ]
    positions = [out.index(mark) for mark in marks]
    assert positions == sorted(positions)
    assert out.splitlines()[-1].startswith(marks[-1])


def test_report_flags_parsed():
    parser = build_parser()
    args = parser.parse_args(["run", "--nack", "--audio"])
    assert args.nack and args.audio
    for command in ("trace", "profile"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--nack"])


def test_extensions_flag_parsed():
    parser = build_parser()
    args = parser.parse_args(
        ["experiments", "extension_e_estimators", "--out", "results"]
    )
    assert args.names == ["extension_e_estimators"]
    assert args.out == "results"
    assert parser.parse_args(["experiments"]).out is None
    # The param flags parse for any name; resolving them is the check.
    args = parser.parse_args(["experiments", "--seeds", "2"])
    assert args.seeds == 2 and args.names == []


def test_experiments_prints_and_writes_the_committed_artifact(
    tmp_path, capsys
):
    assert main(["--no-cache", "experiments", "figure2"]) == 0
    printed = capsys.readouterr().out
    assert printed == (RESULTS_DIR / "figure2.txt").read_text("utf-8")
    out = tmp_path / "results"
    assert main(
        ["--cache-dir", str(tmp_path / "cache"), "--workers", "2",
         "experiments", "figure2", "--out", str(out)]
    ) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["figure2.json", "figure2.txt"]
    for name in names:
        assert (out / name).read_bytes() == (RESULTS_DIR / name).read_bytes()


def test_unwritable_cache_dir_is_clean_error(tmp_path, capsys):
    # A path nested under a regular file can never be created, even
    # when the tests run as root (where chmod-based setups are moot).
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(
        ["--cache-dir", str(blocker / "cache"), "run", "--duration", "6"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "not writable" in err
    assert "--no-cache" in err


def test_no_cache_skips_writability_probe(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(
        ["--no-cache", "--cache-dir", str(blocker / "cache"),
         "run", "--duration", "6", "--seed", "2"]
    )
    assert code == 0
    assert "Session report" in capsys.readouterr().out


def test_chaos_flags_parsed():
    parser = build_parser()
    args = parser.parse_args(
        ["experiments", "chaos", "--scenario", "steady", "--fault",
         "link_flap", "--policy", "adaptive", "--seeds", "1",
         "--fault-at", "4", "--format", "csv", "-o", "out.csv"]
    )
    assert args.names == ["chaos"]
    assert args.scenarios == ["steady"]
    assert args.faults == ["link_flap"]
    assert args.policies == ["adaptive"]
    assert args.fault_at == 4.0
    assert args.format == "csv"
    assert args.output == "out.csv"
    with pytest.raises(SystemExit):
        parser.parse_args(["experiments", "chaos", "--fault", "bogus"])
    with pytest.raises(SystemExit):
        parser.parse_args(["experiments", "chaos", "--scenario", "bogus"])
    # The chaos and fleet subcommands went: `experiments NAME` prints
    # their artifacts.
    for command in ("table1", "chaos", "fleet", "report"):
        with pytest.raises(SystemExit):
            parser.parse_args([command])


def test_docs_list_every_fault_schedule_and_fleet_scenario():
    from repro.experiments import fleet, robustness

    docs = RESULTS_DIR.parents[1] / "docs"
    faults = (docs / "robustness.md").read_text(encoding="utf-8")
    for name in robustness.FAULT_NAMES:
        assert f"| `{name}` |" in faults
    scenarios = (docs / "fleet.md").read_text(encoding="utf-8")
    for name in fleet.SCENARIOS:
        assert f"| `{name}` |" in scenarios


#: The flags of a small chaos grid: the steady scenario, two faults,
#: the adaptive policy, one seed.
SMALL_CHAOS = [
    "--scenario", "steady", "--fault", "feedback_blackout",
    "--fault", "capacity_outage", "--policy", "adaptive", "--seeds", "1",
    "--duration", "14",
]


def test_chaos_json_report_goes_to_the_output_file(tmp_path, capsys):
    out_path = tmp_path / "degradation.json"
    code = main(
        ["--no-cache", "experiments", "chaos", *SMALL_CHAOS,
         "--format", "json", "-o", str(out_path)]
    )
    assert code == 0
    import json

    payload = json.loads(out_path.read_text())
    assert payload["artifact"] == "chaos"
    assert payload["params"]["scenarios"] == ["steady"]
    assert payload["params"]["policies"] == ["adaptive"]
    assert len(payload["rows"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"wrote chaos (2 rows) to {out_path}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiments", "table1", "--seeds", "0"],
        ["shard", "plan", "--grid", "figure4", "--shards", "1",
         "--seeds", "0"],
        ["shard", "plan", "--grid", "table1", "--shards", "1",
         "--seeds", "0"],
    ],
)
def test_zero_seeds_is_usage_error(argv, capsys):
    assert main(["--no-cache", *argv]) == 2
    assert "at least one" in capsys.readouterr().err


def test_flag_the_artifact_does_not_take_is_usage_error(
    tmp_path, capsys, monkeypatch
):
    from repro.experiments import artifacts

    def ran(*args, **kwargs):
        raise AssertionError("a session ran")

    monkeypatch.setattr(artifacts, "run_many", ran)
    plan_path = tmp_path / "plan.json"
    code = main(
        ["--no-cache", "shard", "plan", "--grid", "figure2",
         "--shards", "1", "--seeds", "2", "-o", str(plan_path)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "figure2 takes no seeds param" in captured.err
    assert captured.out == ""
    assert not plan_path.exists()
    # Every name's params resolve before any batch runs: table1 takes
    # seeds, figure2 does not, and nothing is printed or written.
    out_path = tmp_path / "out.txt"
    code = main(
        ["--no-cache", "experiments", "table1", "figure2", "--seeds", "1",
         "-o", str(out_path)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "figure2 takes no seeds param" in captured.err
    assert captured.out == ""
    assert not out_path.exists()
    # The compare subcommand went with its grid.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare"])


def test_table1_format_flags_parsed():
    parser = build_parser()
    args = parser.parse_args(
        ["experiments", "table1", "--seeds", "2", "--ratio", "0.3",
         "--format", "csv", "-o", "t.csv"]
    )
    assert args.seeds == 2
    assert args.ratios == [0.3]
    assert args.format == "csv"
    assert args.output == "t.csv"
    args = parser.parse_args(["experiments", "table1"])
    assert args.format == "table"
    assert args.seeds is None and args.ratios is None
    with pytest.raises(SystemExit):
        parser.parse_args(["experiments", "table1", "--format", "xml"])


def test_out_takes_no_format_or_output_file(tmp_path, capsys):
    for extra in (["--format", "json"], ["-o", str(tmp_path / "t.txt")]):
        code = main(
            ["--no-cache", "experiments", "figure2",
             "--out", str(tmp_path / "results"), *extra]
        )
        assert code == 2
        assert "--out writes NAME.json and NAME.txt" in (
            capsys.readouterr().err
        )
    assert not (tmp_path / "results").exists()


def test_supervision_flags_parsed():
    parser = build_parser()
    for command in (["run"], ["experiments", "table1"]):
        args = parser.parse_args(
            [*command, "--session-timeout", "30", "--max-retries", "1",
             "--manifest", "m.json"]
        )
        assert args.session_timeout == 30.0
        assert args.max_retries == 1
        assert args.manifest == "m.json"
        args = parser.parse_args(command)
        assert args.session_timeout is None
        assert args.max_retries is None
        assert args.manifest is None


def test_bad_session_timeout_is_clean_usage_error(capsys):
    code = main(
        ["--no-cache", "run", "--session-timeout", "0", "--duration", "6"]
    )
    assert code == 2
    assert "session timeout" in capsys.readouterr().err


def test_bad_max_retries_is_clean_usage_error(capsys):
    code = main(
        ["--no-cache", "run", "--max-retries", "-1", "--duration", "6"]
    )
    assert code == 2
    assert "max_retries" in capsys.readouterr().err


def test_resume_unknown_run_is_clean_usage_error(capsys):
    code = main(["resume", "no-such-run-id"])
    assert code == 2
    assert "no run manifest" in capsys.readouterr().err


def test_resume_refuses_recursive_manifest(tmp_path, capsys):
    import json

    manifest = {
        "schema": 1,
        "run_id": "r",
        "created": 0.0,
        "argv": ["resume", "other"],
        "command": "resume",
        "workers": 1,
        "session_timeout": None,
        "max_retries": 2,
        "status": "interrupted",
        "stats": {},
        "records": {},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    code = main(["resume", str(path)])
    assert code == 2
    assert "refusing to recurse" in capsys.readouterr().err


def test_supervised_run_writes_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "run.json"
    code = main(
        ["--cache-dir", str(tmp_path / "cache"),
         "run", "--duration", "6", "--seed", "3",
         "--manifest", str(manifest_path)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "Session report" in captured.out
    assert "resume with" in captured.err
    import json

    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert payload["status"] == "complete"
    assert all(
        record["status"] == "ok"
        for record in payload["records"].values()
    )


def test_interrupt_exits_130_and_seals_manifest(
    tmp_path, capsys, monkeypatch
):
    from repro.experiments import artifacts

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(artifacts, "run_many", interrupted)
    manifest_path = tmp_path / "run.json"
    code = main(
        ["--no-cache", "experiments", "chaos", *SMALL_CHAOS,
         "--manifest", str(manifest_path)]
    )
    assert code == 130
    assert "interrupted" in capsys.readouterr().err
    import json

    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert payload["status"] == "interrupted"


def test_shard_flags_parsed():
    parser = build_parser()
    args = parser.parse_args(["shard", "plan", "--shards", "3"])
    assert args.grid == "table1"
    assert args.shards == 3
    args = parser.parse_args(
        ["shard", "run", "plan.json", "--index", "1",
         "--session-timeout", "30"]
    )
    assert args.plan == "plan.json"
    assert args.index == 1
    assert args.out == "shards"
    assert args.session_timeout == 30.0
    args = parser.parse_args(["shard", "merge", "plan.json"])
    assert args.dir == "shards"
    assert args.out == "merged"
    assert args.format == "table"
    with pytest.raises(SystemExit):
        parser.parse_args(["shard"])
    with pytest.raises(SystemExit):
        parser.parse_args(["shard", "plan", "--shards", "2",
                           "--grid", "bogus"])
    with pytest.raises(SystemExit):
        parser.parse_args(["shard", "run", "plan.json"])


def test_shard_plan_writes_deterministic_file(tmp_path, capsys):
    plan_args = [
        "--no-cache", "shard", "plan", "--grid", "comparison_severe",
        "--shards", "2", "--seeds", "1",
    ]
    code = main([*plan_args, "-o", str(tmp_path / "a.json")])
    assert code == 0
    assert "5 cells of grid 'comparison_severe' over 2 shards" in (
        capsys.readouterr().err
    )
    code = main([*plan_args, "-o", str(tmp_path / "b.json")])
    assert code == 0
    assert (tmp_path / "a.json").read_bytes() == (
        tmp_path / "b.json"
    ).read_bytes()


def test_shard_plan_defaults_to_stdout(capsys):
    code = main(
        ["--no-cache", "shard", "plan", "--grid", "comparison_severe",
         "--shards", "1", "--seeds", "1"]
    )
    assert code == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["shards"] == 1
    assert payload["grid"]["kind"] == "comparison_severe"


def test_shard_run_and_merge_end_to_end(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    code = main(
        ["--no-cache", "shard", "plan", "--grid", "comparison_severe",
         "--shards", "5", "--seeds", "1", "-o", str(plan_path)]
    )
    assert code == 0
    shard_base = tmp_path / "shards"
    for index in ("0", "1", "2", "3", "4"):
        code = main(
            ["--no-cache", "shard", "run", str(plan_path),
             "--index", index, "--out", str(shard_base)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert f"shard {index}/5" in err
        assert "1 ok, 0 from cache, 0 quarantined" in err
    report = tmp_path / "report.txt"
    code = main(
        ["--no-cache", "shard", "merge", str(plan_path),
         "--dir", str(shard_base), "--out", str(tmp_path / "merged"),
         "-o", str(report)]
    )
    assert code == 0
    assert "5 cells, 5 ok, 0 quarantined" in capsys.readouterr().err
    text = report.read_text()
    assert "webrtc" in text and "adaptive" in text


def test_shard_run_bad_index_is_clean_usage_error(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(
        ["--no-cache", "shard", "plan", "--grid", "comparison_severe",
         "--shards", "2", "--seeds", "1", "-o", str(plan_path)]
    ) == 0
    capsys.readouterr()
    code = main(
        ["--no-cache", "shard", "run", str(plan_path),
         "--index", "5", "--out", str(tmp_path / "shards")]
    )
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_shard_merge_without_shard_dirs_is_clean_usage_error(
    tmp_path, capsys
):
    plan_path = tmp_path / "plan.json"
    assert main(
        ["--no-cache", "shard", "plan", "--grid", "comparison_severe",
         "--shards", "2", "--seeds", "1", "-o", str(plan_path)]
    ) == 0
    capsys.readouterr()
    code = main(
        ["--no-cache", "shard", "merge", str(plan_path),
         "--dir", str(tmp_path / "empty")]
    )
    assert code == 2
    assert "no shard directories" in capsys.readouterr().err


def test_shard_merge_with_quarantined_cell_exits_partial(
    tmp_path, capsys
):
    from repro.pipeline import shards
    from repro.pipeline.manifest import RunManifest

    # One cell per shard: shards 0-3 run, shard 4 is sick.
    plan = shards.build_plan("comparison_severe", {"seeds": [1]}, 5)
    plan_path = tmp_path / "plan.json"
    plan.save(plan_path)
    base = tmp_path / "shards"
    for index in range(4):
        shards.run_shard(plan, index, base, workers=1)
    sick_dir = shards.shard_dir(base, 4)
    manifest = RunManifest(
        sick_dir / "manifest.json", run_id="sick", command="shard"
    )
    digest = plan.hashes[plan.cell_indices(4)[0]]
    manifest.ensure(digest)
    manifest.mark_quarantined(
        digest, "deterministic", "SimulationError: boom"
    )
    manifest.finish("partial", {})

    report = tmp_path / "report.txt"
    code = main(
        ["--no-cache", "shard", "merge", str(plan_path),
         "--dir", str(base), "--out", str(tmp_path / "merged"),
         "-o", str(report)]
    )
    assert code == 3
    assert "1 cell(s) quarantined" in capsys.readouterr().err
    assert "FAILED(SimulationError: boom)" in report.read_text()


def _leased_shard(tmp_path, renewed_ago: float):
    """A 2-shard comparison_severe plan whose shard 0 manifest holds a
    lease of this process, renewed ``renewed_ago`` seconds ago, with no
    cell finished."""
    import json
    import os
    import socket
    import time

    from repro.pipeline import shards
    from repro.pipeline.manifest import RunManifest

    plan = shards.build_plan("comparison_severe", {"seeds": [1]}, 2)
    plan_path = tmp_path / "plan.json"
    plan.save(plan_path)
    base = tmp_path / "shards"
    manifest_file = shards.shard_dir(base, 0) / "manifest.json"
    argv = ["--no-cache", "shard", "run", str(plan_path),
            "--index", "0", "--out", str(base)]
    held = RunManifest(
        manifest_file, run_id="held", argv=argv, command="shard"
    )
    held.ensure(plan.hashes[plan.cell_indices(0)[0]])
    held.lease = {
        "owner": "held",
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "ttl": 30.0,
        "renewed": time.time() - renewed_ago,
    }
    manifest_file.parent.mkdir(parents=True)
    manifest_file.write_text(json.dumps(held.to_dict()))
    return plan_path, base, manifest_file, argv


def test_shard_rerun_refuses_a_live_lease(tmp_path, capsys):
    _plan_path, _base, manifest_file, argv = _leased_shard(tmp_path, 0.0)
    before = manifest_file.read_bytes()
    for command in (argv, ["resume", str(manifest_file)]):
        assert main(command) == 2
        errors = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("repro-rtc: error:")
        ]
        assert len(errors) == 1
        assert "shard 0 is still running" in errors[0]
    assert manifest_file.read_bytes() == before


def test_shard_status_prints_the_rerun_command(tmp_path, capsys):
    plan_path, base, _manifest_file, _argv = _leased_shard(
        tmp_path, 60.0
    )
    code = main(
        ["--no-cache", "shard", "status", str(plan_path),
         "--dir", str(base)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert (
        "shard 0 holds an expired lease with unfinished cells — re-run "
        f"it with: repro-rtc shard run {plan_path} --index 0 --out {base}"
    ) in out
    assert "shard 1 holds" not in out


def test_trace_flags_parsed():
    parser = build_parser()
    args = parser.parse_args(
        ["trace", "--format", "csv", "--series", "encoder.qp",
         "--series", "cc.target_bps", "-o", "out.csv"]
    )
    assert args.format == "csv"
    assert args.series == ["encoder.qp", "cc.target_bps"]
    assert args.output == "out.csv"
    with pytest.raises(SystemExit):
        parser.parse_args(["trace", "--format", "xml"])
