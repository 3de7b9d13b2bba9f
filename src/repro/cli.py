"""Command-line interface: ``repro-rtc``.

Subcommands:

* ``run`` — one session (policy, drop ratio, duration, seed): its
  session report (frames, latency and its episodes, quality, drop
  events, congestion-control target), then its drop-window latency and,
  on a fresh run, the simulator's wall time.
* ``experiments`` — print the evaluation's artifacts (Table 1, the
  figures, ablations, comparisons, extensions, the chaos matrix and
  the fleet report) as a table, JSON or CSV, or write each as
  ``<name>.json`` plus the ``<name>.txt`` rendered from it (see
  :mod:`repro.experiments.artifacts`). Param flags (``--seeds``,
  ``--ratio``, ``--scenario`` ...) override an artifact's own params.
* ``trace`` — run one telemetry-enabled session and export its probe
  series as JSONL or CSV (see ``docs/telemetry.md``).
* ``profile`` — run one pinned session under cProfile and print the
  top-N hotspots as text or JSON (see ``docs/running-fast.md``).
* ``resume`` — replay an interrupted supervised batch from its run
  manifest; finished cells come from the result cache.
* ``shard`` — the distributed sweep fabric (see
  ``docs/running-fast.md``): ``shard plan`` partitions any artifact's
  batch into K deterministic shards, with the same param flags as
  ``experiments``; ``shard run`` executes one shard anywhere with the
  supervised executor (per-shard manifest + cache + heartbeat lease; a
  re-run, or ``repro-rtc resume``, finishes a dead shard and refuses
  one whose lease is live), ``shard status`` reports per-shard progress
  and lease health, and ``shard merge`` folds shard outputs into one
  report byte-identical to ``experiments`` on one host.
* ``cache`` — inspect or clear the persistent result cache.

Global execution options (before the subcommand): ``--workers N`` fans
the batch's sessions out over N processes; results are reused from the
persistent cache unless ``--no-cache`` is given. Parallel and cached
results are bit-identical to serial fresh runs.

Supervision options (on ``run``/``experiments``/``shard run``):
``--session-timeout``, ``--max-retries``, and ``--manifest`` enable the
supervised executor — per-session wall-clock timeouts, bounded retries,
worker-crash recovery, quarantine with ``FAILED(...)`` markers, and a
persistent run manifest for ``resume`` (see ``docs/robustness.md``).
Exit codes: 0 ok, 1 error, 2 usage, 3 partial (quarantined sessions in
the output), 130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .analysis import session_report
from .errors import (
    EXIT_INTERRUPT,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    ConfigError,
    ReproError,
)
from .experiments import artifacts, fleet, robustness, scenarios
from .pipeline.config import PolicyName, SessionConfig
from .pipeline.manifest import (
    RunManifest,
    find_manifest,
    manifest_dir,
    new_run_id,
)
from .pipeline import shards
from .pipeline.parallel import ResultCache, configure, run_many
from .pipeline.supervisor import (
    FailedSession,
    SupervisorPlan,
    SupervisorPolicy,
)
from .telemetry import export_text


def _session_config(args: argparse.Namespace, **fields) -> SessionConfig:
    """The step-drop session the session flags ask for, with ``fields``
    set on top."""
    config = scenarios.step_drop_config(args.drop_ratio, seed=args.seed)
    return dataclasses.replace(
        config,
        policy=PolicyName(args.policy),
        duration=args.duration,
        **fields,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    [result] = run_many(
        [_session_config(args, enable_nack=args.nack, enable_audio=args.audio)]
    )
    if isinstance(result, FailedSession):
        print(f"policy            : {args.policy}")
        print(f"result            : {result.marker}")
        return EXIT_OK
    print(session_report(result))
    if args.audio:
        print()
        print(f"audio mean latency : "
              f"{result.mean_audio_latency() * 1e3:.1f} ms")
        print(f"audio loss         : {result.audio_loss_fraction():.3%}")
    tail = []
    start, end = scenarios.DROP_WINDOW
    if end <= args.duration:
        tail.append(
            f"drop-window mean  : {result.mean_latency(start, end) * 1e3:.1f} ms"
        )
        tail.append(
            f"drop-window p95   : "
            f"{result.percentile_latency(95, start, end) * 1e3:.1f} ms"
        )
    if result.perf is not None:  # a fresh run; a cached result has none
        tail.append(
            f"perf              : {result.perf.wall_seconds:.3f} s wall, "
            f"{result.perf.events_fired} events "
            f"({result.perf.events_per_sec:,.0f}/s)"
        )
    if tail:
        print()
        print("\n".join(tail))
    return EXIT_OK


#: Flags (argparse dests) that are artifact params under the same name.
_PARAM_FLAGS = (
    "ratios", "policies", "scenarios", "subscribers", "duration",
    "faults", "fault_at",
)


def _params(args: argparse.Namespace) -> dict:
    """The artifact params the given flags ask for.

    Param flags default to ``None`` and are left out when unset, so each
    :data:`~repro.experiments.ARTIFACTS` entry is the one place its
    defaults live. ``--seeds N`` means seeds ``1..N``.
    """
    params = {
        key: getattr(args, key)
        for key in _PARAM_FLAGS
        if getattr(args, key) is not None
    }
    if args.seeds is not None:
        params["seeds"] = list(range(1, args.seeds + 1))
    return params


def _write_output(text: str, output: str | None, what: str | None) -> None:
    """Write ``text`` to stdout, or to the ``-o`` file with a note.

    The note, ``wrote <what> to <file>``, goes to stderr; ``what=None``
    writes none.
    """
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text)
    if what is not None:
        print(f"wrote {what} to {output}", file=sys.stderr)


def _cmd_experiments(args: argparse.Namespace) -> int:
    """Print the named artifacts (default: all) in ``--format``,
    blank-line separated, or write each one's ``.json`` and ``.txt``
    under ``--out``.

    A quarantined cell does not change the return code here: ``main``
    turns the supervision plan's quarantine count into
    ``EXIT_PARTIAL``.

    Raises:
        ConfigError: an unknown name, a param flag a named artifact does
            not take, or ``--out`` with ``--format``/``-o`` (all before
            anything runs).
    """
    if args.out is not None and (
        args.format != "table" or args.output is not None
    ):
        raise ConfigError(
            "--out writes NAME.json and NAME.txt; it takes no --format or -o"
        )
    names = args.names or list(artifacts.ARTIFACTS)
    given = _params(args)
    params = {name: artifacts.resolve(name, given) for name in names}
    payloads = []
    for name in names:
        payload = artifacts.produce(name, **params[name])
        if args.out is not None:
            json_path, txt_path = artifacts.write(payload, args.out)
            print(f"wrote {json_path} and {txt_path}", file=sys.stderr)
        payloads.append(payload)
    if args.out is None:
        _write_output(
            "\n".join(
                artifacts.render(payload, args.format) for payload in payloads
            ),
            args.output,
            ", ".join(
                f"{payload['artifact']} ({len(payload['rows'])} rows)"
                for payload in payloads
            ),
        )
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    [result] = run_many([_session_config(args, enable_telemetry=True)])
    assert result.traces is not None
    if args.list:
        for name in result.traces.series_names():
            print(f"{name}  ({len(result.traces.series(name))} samples)")
        return 0
    try:
        text = export_text(
            result.traces, fmt=args.format, series=args.series or None
        )
    except ReproError as exc:  # unknown --series name
        print(f"repro-rtc: error: {exc}", file=sys.stderr)
        return 2
    _write_output(
        text, args.output, f"{len(result.traces.series_names())} series"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profiling import profile_session

    report = profile_session(
        policy=args.policy,
        drop_ratio=args.drop_ratio,
        duration=args.duration,
        seed=args.seed,
        top=args.top,
        sort=args.sort,
    )
    if args.format == "json":
        text = report.to_json() + "\n"
    else:
        text = report.format_text()
    _write_output(text, args.output, f"{len(report.hotspots)} hotspots")
    return 0


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    plan = shards.build_plan(args.grid, _params(args), args.shards)
    if args.output is None or args.output == "-":
        import json

        sys.stdout.write(
            json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    else:
        plan.save(args.output)
    print(
        f"repro-rtc: plan {plan.plan_id}: {len(plan.hashes)} cells of "
        f"grid '{plan.kind}' over {plan.shards} shards",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_shard_run(args: argparse.Namespace) -> int:
    plan = shards.ShardPlan.load(args.plan)
    policy = _supervisor_policy(args)
    manifest_path = (
        Path(args.manifest)
        if args.manifest is not None
        else shards.shard_dir(args.out, args.index) / "manifest.json"
    )
    try:
        results, splan = shards.run_shard(
            plan,
            args.index,
            args.out,
            workers=max(1, args.workers),
            policy=policy,
            argv=getattr(args, "raw_argv", None),
            manifest_path=manifest_path,
        )
    except KeyboardInterrupt:
        print(
            f"repro-rtc: shard {args.index} interrupted; resume with: "
            f"repro-rtc resume {manifest_path}",
            file=sys.stderr,
        )
        raise
    quarantined = [r for r in results if isinstance(r, FailedSession)]
    print(
        f"repro-rtc: shard {args.index}/{plan.shards} of plan "
        f"{plan.plan_id}: {len(results)} cells, "
        f"{len(results) - len(quarantined)} ok, "
        f"{splan.stats.cached} from cache, "
        f"{len(quarantined)} quarantined "
        f"(manifest: {splan.manifest.path})",
        file=sys.stderr,
    )
    if quarantined:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    plan = shards.ShardPlan.load(args.plan)
    base = Path(args.dir)
    shard_dirs = [
        shards.shard_dir(base, index)
        for index in range(plan.shards)
        if shards.shard_dir(base, index).is_dir()
    ]
    if not shard_dirs:
        raise ConfigError(
            f"no shard directories under {base} (expected "
            f"{shards.SHARD_DIR_FORMAT.format(index=0)} .. "
            f"{shards.SHARD_DIR_FORMAT.format(index=plan.shards - 1)})"
        )
    cache, manifest, summary = shards.merge_shards(
        plan, shard_dirs, args.out
    )
    text, quarantined = shards.render_merged(
        plan, cache, manifest, args.format
    )
    _write_output(text, args.output, None)
    print(
        f"repro-rtc: merged {summary.shards_seen} shard dir(s) of plan "
        f"{plan.plan_id}: {summary.cells} cells, {summary.ok} ok, "
        f"{summary.quarantined} quarantined "
        f"(merged cache: {cache.root})",
        file=sys.stderr,
    )
    if quarantined:
        print(
            f"repro-rtc: {quarantined} cell(s) quarantined; report "
            "contains FAILED(...) markers",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_shard_status(args: argparse.Namespace) -> int:
    plan = shards.ShardPlan.load(args.plan)
    statuses = shards.shard_status(
        plan, Path(args.dir), strict=args.strict
    )
    for status in statuses:
        for problem in status.problems:
            print(f"repro-rtc: warning: {problem}", file=sys.stderr)
    header = (
        f"{'shard':>5} {'cells':>5} {'pending':>7} {'running':>7} "
        f"{'ok':>5} {'quar':>5} {'lease':>7}  state"
    )
    print(header)
    print("-" * len(header))
    for status in statuses:
        counts = status.counts
        if not status.started:
            state = "not started"
        elif status.done() == status.cells:
            state = "done"
        elif status.problems:
            state = "damaged manifest"
        else:
            state = "in progress"
        print(
            f"{status.index:>5} {status.cells:>5} "
            f"{counts['pending']:>7} {counts['running']:>7} "
            f"{counts['ok']:>5} {counts['quarantined']:>5} "
            f"{status.lease:>7}  {state}"
        )
    total = len(plan.hashes)
    done = sum(status.done() for status in statuses)
    ok = sum(status.counts["ok"] for status in statuses)
    quarantined = sum(
        status.counts["quarantined"] for status in statuses
    )
    started = sum(1 for status in statuses if status.started)
    pct = 100.0 * done / total if total else 0.0
    print(
        f"plan {plan.plan_id}: {done}/{total} cells done "
        f"({pct:.1f}%), {ok} ok, {quarantined} quarantined; "
        f"{started}/{plan.shards} shard(s) started"
    )
    for status in statuses:
        if status.lease == "expired" and status.done() < status.cells:
            print(
                f"shard {status.index} holds an expired lease with "
                f"unfinished cells — re-run it with: repro-rtc shard run "
                f"{args.plan} --index {status.index} --out {args.dir}"
            )
    return EXIT_OK


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir or ResultCache.default_dir())
    if args.cache_action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
    else:
        print(f"cache dir : {cache.root}")
        print(f"entries   : {len(cache)}")
    return 0


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    """The one step-drop session's flags, shared by run/trace/profile."""
    parser.add_argument(
        "--policy",
        choices=[p.value for p in PolicyName],
        default="adaptive",
    )
    parser.add_argument("--drop-ratio", type=float, default=0.2)
    parser.add_argument("--duration", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    """Artifact-param flags, shared by ``experiments`` and ``shard plan``.

    Each defaults to ``None``, which keeps the artifact's own value.
    """
    group = parser.add_argument_group(
        "artifact params",
        "override an artifact's own params (default: its own); a flag "
        "for a param that a named artifact does not take is an error",
    )
    group.add_argument(
        "--seeds",
        type=int,
        metavar="N",
        help="seeds 1..N per point",
    )
    group.add_argument(
        "--ratio",
        dest="ratios",
        action="append",
        type=float,
        metavar="R",
        help="table1/figure4: drop ratio to include (repeatable)",
    )
    group.add_argument(
        "--policy",
        dest="policies",
        action="append",
        choices=[p.value for p in PolicyName],
        help="chaos: policy to include (repeatable)",
    )
    group.add_argument(
        "--scenario",
        dest="scenarios",
        action="append",
        choices=sorted(set(fleet.SCENARIOS) | set(robustness.SCENARIOS)),
        help="chaos/fleet: scenario to include (repeatable; see "
        "docs/robustness.md and docs/fleet.md)",
    )
    group.add_argument(
        "--subscribers",
        type=int,
        help="fleet: total subscriber population, split across the two "
        "regions",
    )
    group.add_argument(
        "--duration",
        type=float,
        help="chaos/fleet: capture duration in seconds",
    )
    group.add_argument(
        "--fault",
        dest="faults",
        action="append",
        choices=list(robustness.FAULT_NAMES),
        help="chaos: fault schedule to include (repeatable)",
    )
    group.add_argument(
        "--fault-at",
        type=float,
        help="chaos: when fault windows open, in seconds",
    )


def _add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    """Supervised-execution knobs shared by run/experiments/shard run."""
    group = parser.add_argument_group(
        "supervision",
        "passing any of these enables the supervised executor "
        "(timeouts, retries, quarantine, run manifest; see "
        "docs/robustness.md)",
    )
    group.add_argument(
        "--session-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-session wall-clock limit; a hung session is killed, "
        "retried, and quarantined if it never finishes",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry budget per session for transient/infrastructure "
        "failures (default: 2)",
    )
    group.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="run-manifest file (default: auto under "
        "$REPRO_MANIFEST_DIR or <cache dir>/runs); pass to "
        "'repro-rtc resume' to continue an interrupted batch",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro-rtc",
        description=(
            "Adaptive video encoder for network bandwidth drops — "
            "simulation and reproduction harness."
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for experiment batches (default: 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-rtc)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run one session and print its report"
    )
    _add_session_flags(run_p)
    run_p.add_argument(
        "--nack", action="store_true", help="recover losses with NACK"
    )
    run_p.add_argument(
        "--audio", action="store_true", help="add an audio stream"
    )
    _add_supervision_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    exp_p = sub.add_parser(
        "experiments",
        help="print or write the evaluation's artifacts "
        "(Table 1, figures, ablations, comparisons, extensions, "
        "chaos, fleet)",
    )
    exp_p.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="artifacts to produce (default: all): "
        + ", ".join(artifacts.ARTIFACTS),
    )
    exp_p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write DIR/NAME.json and DIR/NAME.txt instead of printing",
    )
    exp_p.add_argument(
        "--format",
        choices=list(artifacts.FORMATS),
        default="table",
        help="output format (default: table; json prints NAME.json)",
    )
    exp_p.add_argument(
        "--output",
        "-o",
        default=None,
        help="output file (default or '-': stdout)",
    )
    _add_param_flags(exp_p)
    _add_supervision_flags(exp_p)
    exp_p.set_defaults(func=_cmd_experiments)

    trace_p = sub.add_parser(
        "trace",
        help="run one telemetry-enabled session and export its traces",
    )
    _add_session_flags(trace_p)
    trace_p.add_argument(
        "--format",
        choices=["jsonl", "csv"],
        default="jsonl",
        help="export format (default: jsonl)",
    )
    trace_p.add_argument(
        "--series",
        action="append",
        metavar="NAME",
        help="export only this probe series (repeatable; default: all)",
    )
    trace_p.add_argument(
        "--output",
        "-o",
        default=None,
        help="output file (default or '-': stdout)",
    )
    trace_p.add_argument(
        "--list",
        action="store_true",
        help="list recorded series names instead of exporting",
    )
    trace_p.set_defaults(func=_cmd_trace)

    prof_p = sub.add_parser(
        "profile",
        help="profile one pinned session and print the top hotspots",
    )
    _add_session_flags(prof_p)
    prof_p.add_argument(
        "--top",
        type=int,
        default=20,
        help="hotspot rows to report (default: 20)",
    )
    prof_p.add_argument(
        "--sort",
        choices=["tottime", "cumtime"],
        default="tottime",
        help="ranking key (default: tottime)",
    )
    prof_p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    prof_p.add_argument(
        "--output",
        "-o",
        default=None,
        help="output file (default or '-': stdout)",
    )
    prof_p.set_defaults(func=_cmd_profile)

    resume_p = sub.add_parser(
        "resume",
        help="continue an interrupted supervised batch from its "
        "run manifest",
    )
    resume_p.add_argument(
        "run_id",
        metavar="RUN_ID_OR_PATH",
        help="run id (under the manifest dir) or manifest file path",
    )
    resume_p.set_defaults(func=None)

    shard_p = sub.add_parser(
        "shard",
        help="plan, execute, and merge sharded sweeps "
        "(see docs/running-fast.md)",
    )
    shard_sub = shard_p.add_subparsers(dest="shard_command", required=True)

    splan_p = shard_sub.add_parser(
        "plan",
        help="partition an artifact's batch into K deterministic "
        "manifest shards",
    )
    splan_p.add_argument(
        "--grid",
        choices=list(artifacts.ARTIFACTS),
        default="table1",
        metavar="NAME",
        help="which artifact to shard (default: table1): "
        + ", ".join(artifacts.ARTIFACTS),
    )
    splan_p.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="K",
        help="number of shards to stripe the batch over",
    )
    _add_param_flags(splan_p)
    splan_p.add_argument(
        "--output",
        "-o",
        default=None,
        help="plan file (default or '-': stdout)",
    )
    splan_p.set_defaults(func=_cmd_shard_plan)

    srun_p = shard_sub.add_parser(
        "run",
        help="execute one shard of a plan with the supervised executor",
    )
    srun_p.add_argument("plan", metavar="PLAN", help="plan file")
    srun_p.add_argument(
        "--index",
        type=int,
        required=True,
        metavar="I",
        help="which shard to execute (0-based)",
    )
    srun_p.add_argument(
        "--out",
        default="shards",
        metavar="DIR",
        help="shard base directory; this shard writes "
        "DIR/shard-NNN/{manifest.json,cache} (default: shards)",
    )
    _add_supervision_flags(srun_p)
    srun_p.set_defaults(func=_cmd_shard_run)

    smerge_p = shard_sub.add_parser(
        "merge",
        help="merge shard manifests/caches into one byte-stable report",
    )
    smerge_p.add_argument("plan", metavar="PLAN", help="plan file")
    smerge_p.add_argument(
        "--dir",
        default="shards",
        metavar="DIR",
        help="shard base directory to merge from (default: shards)",
    )
    smerge_p.add_argument(
        "--out",
        default="merged",
        metavar="DIR",
        help="merged cache + manifest directory (default: merged)",
    )
    smerge_p.add_argument(
        "--format",
        choices=["table", "json", "csv"],
        default="table",
        help="report format (default: table)",
    )
    smerge_p.add_argument(
        "--output",
        "-o",
        default=None,
        help="report file (default or '-': stdout)",
    )
    smerge_p.set_defaults(func=_cmd_shard_merge)

    sstatus_p = shard_sub.add_parser(
        "status",
        help="show per-shard and overall progress of a plan",
    )
    sstatus_p.add_argument("plan", metavar="PLAN", help="plan file")
    sstatus_p.add_argument(
        "--dir",
        default="shards",
        metavar="DIR",
        help="shard base directory to inspect (default: shards)",
    )
    sstatus_p.add_argument(
        "--strict",
        action="store_true",
        help="fail on a corrupt/truncated manifest instead of "
        "reporting its lost cells as pending",
    )
    sstatus_p.set_defaults(func=_cmd_shard_status)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    cache_p.add_argument(
        "cache_action",
        choices=["info", "clear"],
        nargs="?",
        default="info",
    )
    cache_p.set_defaults(func=_cmd_cache)

    return parser


def _supervisor_policy(args: argparse.Namespace) -> SupervisorPolicy:
    """The policy ``--session-timeout``/``--max-retries`` ask for.

    Raises:
        ConfigError: on an invalid value.
    """
    policy = SupervisorPolicy(
        session_timeout=getattr(args, "session_timeout", None)
    )
    retries = getattr(args, "max_retries", None)
    if retries is not None:
        policy = dataclasses.replace(policy, max_retries=retries)
    policy.validate()
    return policy


def _build_supervision(
    args: argparse.Namespace, raw_argv: list[str]
) -> tuple[SupervisorPlan | None, RunManifest | None]:
    """A :class:`SupervisorPlan` when any supervision flag is present.

    Raises:
        ConfigError: on invalid ``--session-timeout``/``--max-retries``.
    """
    manifest_arg = getattr(args, "manifest", None)
    if (
        getattr(args, "session_timeout", None) is None
        and getattr(args, "max_retries", None) is None
        and manifest_arg is None
    ):
        return None, None
    policy = _supervisor_policy(args)
    knobs = dict(
        argv=raw_argv,
        command=args.command,
        workers=max(1, args.workers),
        session_timeout=policy.session_timeout,
        max_retries=policy.max_retries,
    )
    if manifest_arg is not None:
        manifest = RunManifest.create(Path(manifest_arg), **knobs)
    else:
        run_id = new_run_id(raw_argv)
        manifest = RunManifest(
            manifest_dir() / f"{run_id}.json", run_id=run_id, **knobs
        )
    manifest.save(force=True)
    print(
        f"repro-rtc: run {manifest.run_id} "
        f"(manifest: {manifest.path})",
        file=sys.stderr,
    )
    print(
        f"repro-rtc: resume with: repro-rtc resume {manifest.path}",
        file=sys.stderr,
    )
    return SupervisorPlan(policy=policy, manifest=manifest), manifest


def _resume(run_id_or_path: str) -> int:
    """Replay the command line recorded in a run manifest.

    Finished cells are served by the result cache; only unfinished
    cells re-execute. Raises :class:`ConfigError` when the manifest is
    missing, unreadable, or itself records a ``resume`` invocation.
    """
    path = find_manifest(run_id_or_path)
    manifest = RunManifest.load(path)
    argv = list(manifest.argv)
    if not argv:
        raise ConfigError(
            f"run manifest {path} records no command line to replay"
        )
    if "resume" in argv:
        raise ConfigError(
            f"run manifest {path} records a 'resume' invocation; "
            "refusing to recurse"
        )
    if "--manifest" not in argv:
        argv += ["--manifest", str(path)]
    counts = manifest.counts()
    done = counts.get("ok", 0)
    total = len(manifest.records)
    print(
        f"repro-rtc: resuming run {manifest.run_id} "
        f"({done}/{total} cells finished)",
        file=sys.stderr,
    )
    return main(argv)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(raw_argv)
    if args.command == "resume":
        try:
            return _resume(args.run_id)
        except ConfigError as exc:
            print(f"repro-rtc: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or ResultCache.default_dir())
        try:
            cache.ensure_writable()
        except ConfigError as exc:
            print(f"repro-rtc: error: {exc}", file=sys.stderr)
            print(
                "repro-rtc: hint: pass --cache-dir WRITABLE_PATH or "
                "--no-cache",
                file=sys.stderr,
            )
            return EXIT_USAGE
    try:
        if args.command == "shard":
            # Shard runs own their supervision: the manifest and cache
            # live in the shard directory (the plan decides where), so
            # the generic flag handling must not mint a second
            # manifest. ``shard run`` reads the supervision flags
            # itself; the recorded argv makes ``resume`` replay work.
            args.raw_argv = raw_argv
            plan, manifest = None, None
        else:
            plan, manifest = _build_supervision(args, raw_argv)
    except ConfigError as exc:
        print(f"repro-rtc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    configure(workers=max(1, args.workers), cache=cache, supervisor=plan)
    try:
        code = args.func(args)
    except KeyboardInterrupt:
        # The supervisor already sealed the manifest mid-batch; this
        # covers interrupts that land outside a batch.
        if manifest is not None:
            if manifest.status == "running":
                manifest.finish(
                    "interrupted",
                    plan.stats.to_counters() if plan else {},
                )
            print(
                f"repro-rtc: interrupted; resume with: "
                f"repro-rtc resume {manifest.path}",
                file=sys.stderr,
            )
        else:
            print("repro-rtc: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except ConfigError as exc:
        print(f"repro-rtc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        configure(supervisor=None)
    if code == EXIT_OK and plan is not None and plan.stats.quarantined:
        for name, value in sorted(plan.stats.to_counters().items()):
            print(f"repro-rtc: {name} = {value}", file=sys.stderr)
        print(
            f"repro-rtc: {plan.stats.quarantined} session(s) "
            "quarantined; output contains FAILED(...) markers",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return code


if __name__ == "__main__":
    sys.exit(main())
