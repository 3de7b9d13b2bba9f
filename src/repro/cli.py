"""Command-line interface: ``repro-rtc``.

Subcommands:

* ``run`` — one session (policy, drop ratio, duration, seed) with a
  summary printout.
* ``table1`` — regenerate the headline table.
* ``figure`` — print one figure's data series.
* ``compare`` — all policies on one scenario.
* ``trace`` — run one telemetry-enabled session and export its probe
  series as JSONL or CSV (see ``docs/telemetry.md``).
* ``profile`` — run one pinned session under cProfile and print the
  top-N hotspots as text or JSON (see ``docs/running-fast.md``).
* ``chaos`` — run the fault-injection robustness matrix and export the
  degradation report as a table, JSON, or CSV (see
  ``docs/robustness.md``).
* ``fleet`` — run city-scale SFU fleet population scenarios (churn,
  flash crowds, regional degradation) and export the population QoE
  report (see ``docs/fleet.md``).
* ``resume`` — replay an interrupted supervised batch from its run
  manifest; finished cells come from the result cache.
* ``shard`` — the distributed sweep fabric (see
  ``docs/running-fast.md``): ``shard plan`` partitions a grid into K
  deterministic shards, ``shard run`` executes one shard anywhere with
  the supervised executor (per-shard manifest + cache + heartbeat
  lease, resumable via ``repro-rtc resume``), ``shard steal`` (or
  ``shard run --steal``) reclaims dead shards' unfinished cells,
  ``shard status`` reports per-shard progress and lease health,
  and ``shard merge`` folds shard outputs into one report
  byte-identical to a single-host serial run.
* ``cache`` — inspect or clear the persistent result cache.

Global execution options (before the subcommand): ``--workers N`` fans
the experiment's sessions out over N processes; results are reused from
the persistent cache unless ``--no-cache`` is given. Parallel and cached
results are bit-identical to serial fresh runs.

Supervision options (on ``run``/``table1``/``chaos``/``fleet``):
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

from .errors import (
    EXIT_INTERRUPT,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    ConfigError,
    ReproError,
)
from .experiments import (
    ablations,
    comparison,
    figures,
    fleet,
    robustness,
    scenarios,
    table1,
)
from .metrics.summary import format_series
from .pipeline.config import PolicyName
from .pipeline.manifest import (
    RunManifest,
    find_manifest,
    manifest_dir,
    new_run_id,
)
from .pipeline import shards
from .pipeline.parallel import ResultCache, configure, run_many
from .pipeline.runner import run_session
from .pipeline.supervisor import (
    FailedSession,
    RetryPolicy,
    SupervisorPlan,
    SupervisorPolicy,
)
from .telemetry import export_text


def _cmd_run(args: argparse.Namespace) -> int:
    config = scenarios.step_drop_config(args.drop_ratio, seed=args.seed)
    config = dataclasses.replace(
        config,
        policy=PolicyName(args.policy),
        duration=args.duration,
    )
    [result] = run_many([config])
    if isinstance(result, FailedSession):
        print(f"policy            : {args.policy}")
        print(f"result            : {result.marker}")
        return 0
    start, end = scenarios.DROP_WINDOW
    print(f"policy            : {result.policy}")
    print(f"frames            : {len(result.frames)}")
    print(f"mean latency      : {result.mean_latency() * 1e3:.1f} ms")
    if end <= args.duration:
        print(
            f"drop-window mean  : {result.mean_latency(start, end) * 1e3:.1f} ms"
        )
        print(
            f"drop-window p95   : "
            f"{result.percentile_latency(95, start, end) * 1e3:.1f} ms"
        )
    print(f"displayed SSIM    : {result.mean_displayed_ssim():.4f}")
    print(f"freeze fraction   : {result.freeze_fraction():.3f}")
    print(f"PLI count         : {result.pli_count}")
    if result.perf is not None:
        print(
            f"perf              : {result.perf.wall_seconds:.3f} s wall, "
            f"{result.perf.events_fired} events "
            f"({result.perf.events_per_sec:,.0f}/s)"
        )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    seeds = tuple(range(1, args.seeds + 1))
    rows = table1.run_table(seeds=seeds)
    text = table1.render(rows, args.format)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {len(rows)} rows to {args.output}", file=sys.stderr
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    producers = {
        1: lambda: figures.figure1(seed=args.seed),
        2: lambda: figures.figure2(seed=args.seed),
        3: lambda: figures.figure3(seed=args.seed),
        4: lambda: figures.figure4(seeds=(args.seed,)),
    }
    series_map = producers[args.number]()
    for name, series in series_map.items():
        print(format_series(name, series.x, series.y, "x", "y"))
        print()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = comparison.run_comparison(
        drop_ratio=args.drop_ratio, seeds=tuple(range(1, args.seeds + 1))
    )
    print(
        comparison.format_comparison(
            rows, comparison.comparison_title(args.drop_ratio)
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import session_report

    config = scenarios.step_drop_config(args.drop_ratio, seed=args.seed)
    config = dataclasses.replace(
        config,
        policy=PolicyName(args.policy),
        duration=args.duration,
        enable_nack=args.nack,
        enable_audio=args.audio,
    )
    result = run_session(config)
    print(session_report(result))
    if args.audio:
        print()
        print(f"audio mean latency : "
              f"{result.mean_audio_latency() * 1e3:.1f} ms")
        print(f"audio loss         : {result.audio_loss_fraction():.3%}")
    return 0


def _cmd_extensions(args: argparse.Namespace) -> int:
    from .experiments import extensions

    seeds = tuple(range(1, args.seeds + 1))
    print(extensions.format_extension_rows(
        extensions.estimator_comparison(seeds=seeds),
        "Abl. E — delay estimators"))
    print()
    print(extensions.format_extension_rows(
        extensions.recovery_mechanism_comparison(seeds=seeds),
        "Ext. F — PLI vs NACK"))
    print()
    print(extensions.format_extension_rows(
        extensions.aqm_comparison(seeds=seeds),
        "Ext. G — drop-tail vs CoDel"))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    seeds = tuple(range(1, args.seeds + 1))
    print(ablations.format_rows(
        ablations.detector_ablation(args.drop_ratio, seeds),
        "Ablation A — detector signals"))
    print()
    print(ablations.format_rows(
        ablations.strategy_ablation(args.drop_ratio, seeds),
        "Ablation B — strategies"))
    print()
    print(ablations.format_rows(
        ablations.rtt_sensitivity(args.drop_ratio, seeds=seeds),
        "Ablation C — RTT sensitivity"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    config = scenarios.step_drop_config(args.drop_ratio, seed=args.seed)
    config = dataclasses.replace(
        config,
        policy=PolicyName(args.policy),
        duration=args.duration,
        enable_telemetry=True,
    )
    result = run_session(config)
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
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {len(result.traces.series_names())} series to "
            f"{args.output}",
            file=sys.stderr,
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
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {len(report.hotspots)} hotspots to {args.output}",
            file=sys.stderr,
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.list_faults:
        for name in robustness.FAULT_NAMES:
            schedule = robustness.fault_suite(args.fault_at)[name]
            labels = ", ".join(spec.label() for spec in schedule)
            print(f"{name:<22} {labels}")
        return 0
    if args.quick:
        scenario_names = ("steady",)
        fault_names = ("feedback_blackout", "capacity_outage")
        policies = (PolicyName.ADAPTIVE,)
        seeds: tuple[int, ...] = (1,)
        duration = 14.0
    else:
        scenario_names = tuple(
            args.scenarios or robustness.DEFAULT_SCENARIOS
        )
        fault_names = tuple(args.faults or robustness.DEFAULT_FAULTS)
        policies = tuple(
            PolicyName(p) for p in (
                args.policies
                or [p.value for p in robustness.DEFAULT_POLICIES]
            )
        )
        seeds = tuple(range(1, args.seeds + 1))
        duration = args.duration
    report = robustness.run_matrix(
        scenario_names=scenario_names,
        fault_names=fault_names,
        policies=policies,
        seeds=seeds,
        duration=duration,
        fault_at=args.fault_at,
    )
    text = robustness.render(report, args.format)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {len(report.cells)} cells to {args.output}",
            file=sys.stderr,
        )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.list_scenarios:
        for name in sorted(fleet.SCENARIOS):
            doc = (fleet.SCENARIOS[name].__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
            print(f"{name:<22} {summary}")
        return 0
    if args.quick:
        scenario_names: tuple[str, ...] = (
            "steady", "regional_degradation"
        )
        seeds: tuple[int, ...] = (1,)
        subscribers = 20
        duration = 8.0
    else:
        scenario_names = tuple(
            args.scenarios or fleet.DEFAULT_SCENARIOS
        )
        seeds = tuple(range(1, args.seeds + 1))
        subscribers = args.subscribers
        duration = args.duration
    report = fleet.run_population(
        scenario_names=scenario_names,
        seeds=seeds,
        subscribers=subscribers,
        duration=duration,
    )
    text = fleet.render(report, args.format)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {len(report.cells)} fleet cells to {args.output}",
            file=sys.stderr,
        )
    if any(cell.failed is not None for cell in report.cells):
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    params: dict = {}
    if args.seeds is not None:
        params["seeds"] = list(range(1, args.seeds + 1))
    if args.ratios:
        params["ratios"] = args.ratios
    if args.baseline is not None:
        params["baseline"] = args.baseline
    if args.drop_ratio is not None:
        params["drop_ratio"] = args.drop_ratio
    if args.policies:
        params["policies"] = args.policies
    if args.scenarios:
        params["scenarios"] = args.scenarios
    if args.subscribers is not None:
        params["subscribers"] = args.subscribers
    if args.duration is not None:
        params["duration"] = args.duration
    if args.faults:
        params["faults"] = args.faults
    if args.fault_at is not None:
        params["fault_at"] = args.fault_at
    plan = shards.build_plan(
        args.grid, params, args.shards, striping=args.striping
    )
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
    retry = (
        RetryPolicy()
        if args.max_retries is None
        else RetryPolicy(max_retries=args.max_retries)
    )
    policy = SupervisorPolicy(
        session_timeout=args.session_timeout, retry=retry
    )
    policy.validate()
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
            lease_ttl=args.lease_ttl,
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
    stolen_quarantined = 0
    if args.steal:
        summary, _steal_plan = shards.steal_shard(
            plan,
            args.index,
            args.out,
            workers=max(1, args.workers),
            policy=policy,
            argv=getattr(args, "raw_argv", None),
            lease_ttl=args.lease_ttl,
        )
        _print_steal_summary(args.index, summary)
        stolen_quarantined = summary.quarantined
    if quarantined or stolen_quarantined:
        return EXIT_PARTIAL
    return EXIT_OK


def _print_steal_summary(
    index: int, summary: "shards.StealSummary"
) -> None:
    for problem in summary.problems:
        print(f"repro-rtc: warning: {problem}", file=sys.stderr)
    if summary.skipped_live:
        live = ", ".join(str(s) for s in summary.skipped_live)
        print(
            f"repro-rtc: shard(s) {live} hold live leases; "
            "left alone",
            file=sys.stderr,
        )
    if summary.claimed == 0:
        print(
            f"repro-rtc: shard {index}: nothing to steal",
            file=sys.stderr,
        )
        return
    victims = ", ".join(str(v) for v in summary.victims)
    print(
        f"repro-rtc: shard {index} stole {summary.claimed} cell(s) "
        f"from shard(s) {victims}: {summary.executed} executed, "
        f"{summary.quarantined} quarantined",
        file=sys.stderr,
    )


def _cmd_shard_steal(args: argparse.Namespace) -> int:
    plan = shards.ShardPlan.load(args.plan)
    retry = (
        RetryPolicy()
        if args.max_retries is None
        else RetryPolicy(max_retries=args.max_retries)
    )
    policy = SupervisorPolicy(
        session_timeout=args.session_timeout, retry=retry
    )
    policy.validate()
    summary, _splan = shards.steal_shard(
        plan,
        args.index,
        args.dir,
        workers=max(1, args.workers),
        policy=policy,
        argv=getattr(args, "raw_argv", None),
        victims=args.victims or None,
        lease_ttl=args.lease_ttl,
        grace=args.grace,
    )
    _print_steal_summary(args.index, summary)
    if summary.quarantined:
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
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
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
    expired = [
        status.index
        for status in statuses
        if status.lease == "expired" and status.done() < status.cells
    ]
    if expired:
        names = ", ".join(str(index) for index in expired)
        print(
            f"shard(s) {names} hold expired leases with unfinished "
            f"cells — reclaim with: repro-rtc shard steal "
            f"{args.plan} --index I --dir {args.dir}"
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


def _add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    """Supervised-execution knobs shared by run/table1/chaos/fleet."""
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

    run_p = sub.add_parser("run", help="run one session")
    run_p.add_argument(
        "--policy",
        choices=[p.value for p in PolicyName],
        default="adaptive",
    )
    run_p.add_argument("--drop-ratio", type=float, default=0.2)
    run_p.add_argument("--duration", type=float, default=25.0)
    run_p.add_argument("--seed", type=int, default=1)
    _add_supervision_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    t1_p = sub.add_parser("table1", help="regenerate the headline table")
    t1_p.add_argument("--seeds", type=int, default=5)
    t1_p.add_argument(
        "--format",
        choices=["table", "json", "csv"],
        default="table",
        help="output format (default: table)",
    )
    t1_p.add_argument(
        "--output",
        "-o",
        default=None,
        help="output file (default or '-': stdout)",
    )
    _add_supervision_flags(t1_p)
    t1_p.set_defaults(func=_cmd_table1)

    fig_p = sub.add_parser("figure", help="print one figure's data")
    fig_p.add_argument("number", type=int, choices=[1, 2, 3, 4])
    fig_p.add_argument("--seed", type=int, default=1)
    fig_p.set_defaults(func=_cmd_figure)

    cmp_p = sub.add_parser("compare", help="compare all policies")
    cmp_p.add_argument("--drop-ratio", type=float, default=0.2)
    cmp_p.add_argument("--seeds", type=int, default=3)
    cmp_p.set_defaults(func=_cmd_compare)

    abl_p = sub.add_parser("ablate", help="run the ablations")
    abl_p.add_argument("--drop-ratio", type=float, default=0.2)
    abl_p.add_argument("--seeds", type=int, default=3)
    abl_p.set_defaults(func=_cmd_ablate)

    rep_p = sub.add_parser(
        "report", help="full analysis report of one session"
    )
    rep_p.add_argument(
        "--policy",
        choices=[p.value for p in PolicyName],
        default="adaptive",
    )
    rep_p.add_argument("--drop-ratio", type=float, default=0.2)
    rep_p.add_argument("--duration", type=float, default=25.0)
    rep_p.add_argument("--seed", type=int, default=1)
    rep_p.add_argument("--nack", action="store_true")
    rep_p.add_argument("--audio", action="store_true")
    rep_p.set_defaults(func=_cmd_report)

    ext_p = sub.add_parser(
        "extensions", help="estimator/NACK/AQM extension experiments"
    )
    ext_p.add_argument("--seeds", type=int, default=3)
    ext_p.set_defaults(func=_cmd_extensions)

    trace_p = sub.add_parser(
        "trace",
        help="run one telemetry-enabled session and export its traces",
    )
    trace_p.add_argument(
        "--policy",
        choices=[p.value for p in PolicyName],
        default="adaptive",
    )
    trace_p.add_argument("--drop-ratio", type=float, default=0.2)
    trace_p.add_argument("--duration", type=float, default=25.0)
    trace_p.add_argument("--seed", type=int, default=1)
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
    prof_p.add_argument(
        "--policy",
        choices=[p.value for p in PolicyName],
        default="adaptive",
    )
    prof_p.add_argument("--drop-ratio", type=float, default=0.2)
    prof_p.add_argument("--duration", type=float, default=25.0)
    prof_p.add_argument("--seed", type=int, default=1)
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

    chaos_p = sub.add_parser(
        "chaos",
        help="run the fault-injection robustness matrix",
    )
    chaos_p.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        choices=sorted(robustness.SCENARIOS),
        help="scenario to include (repeatable; default: "
        f"{', '.join(robustness.DEFAULT_SCENARIOS)})",
    )
    chaos_p.add_argument(
        "--fault",
        action="append",
        dest="faults",
        choices=list(robustness.FAULT_NAMES),
        help="fault schedule to include (repeatable; default: all)",
    )
    chaos_p.add_argument(
        "--policy",
        action="append",
        dest="policies",
        choices=[p.value for p in PolicyName],
        help="policy to include (repeatable; default: "
        f"{', '.join(p.value for p in robustness.DEFAULT_POLICIES)})",
    )
    chaos_p.add_argument("--seeds", type=int, default=2)
    chaos_p.add_argument(
        "--duration", type=float, default=robustness.DURATION
    )
    chaos_p.add_argument(
        "--fault-at",
        type=float,
        default=robustness.FAULT_AT,
        help="when fault windows open (default: "
        f"{robustness.FAULT_AT:g} s)",
    )
    chaos_p.add_argument(
        "--quick",
        action="store_true",
        help="tiny pinned grid (CI smoke): steady scenario, two "
        "faults, adaptive policy, one seed",
    )
    chaos_p.add_argument(
        "--format",
        choices=["table", "json", "csv"],
        default="table",
        help="output format (default: table)",
    )
    chaos_p.add_argument(
        "--output",
        "-o",
        default=None,
        help="output file (default or '-': stdout)",
    )
    chaos_p.add_argument(
        "--list",
        dest="list_faults",
        action="store_true",
        help="list the canonical fault schedules instead of running",
    )
    _add_supervision_flags(chaos_p)
    chaos_p.set_defaults(func=_cmd_chaos)

    fleet_p = sub.add_parser(
        "fleet",
        help="run city-scale SFU fleet population scenarios "
        "(see docs/fleet.md)",
    )
    fleet_p.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        choices=sorted(fleet.SCENARIOS),
        help="population scenario to include (repeatable; default: "
        f"{', '.join(fleet.DEFAULT_SCENARIOS)})",
    )
    fleet_p.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="seeds 1..N per scenario (default: 1)",
    )
    fleet_p.add_argument(
        "--subscribers",
        type=int,
        default=fleet.SUBSCRIBERS,
        help="total subscriber population, split across the two "
        f"regions (default: {fleet.SUBSCRIBERS})",
    )
    fleet_p.add_argument(
        "--duration",
        type=float,
        default=fleet.DURATION,
        help=f"capture duration in seconds (default: {fleet.DURATION:g})",
    )
    fleet_p.add_argument(
        "--quick",
        action="store_true",
        help="tiny pinned grid (CI smoke): steady + "
        "regional_degradation, one seed, 20 subscribers, 8 s",
    )
    fleet_p.add_argument(
        "--format",
        choices=["table", "json", "csv"],
        default="table",
        help="output format (default: table)",
    )
    fleet_p.add_argument(
        "--output",
        "-o",
        default=None,
        help="output file (default or '-': stdout)",
    )
    fleet_p.add_argument(
        "--list",
        dest="list_scenarios",
        action="store_true",
        help="list the population scenarios instead of running",
    )
    _add_supervision_flags(fleet_p)
    fleet_p.set_defaults(func=_cmd_fleet)

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
        help="partition a grid into K deterministic manifest shards",
    )
    splan_p.add_argument(
        "--grid",
        choices=sorted(shards.GRIDS),
        default="table1",
        help="which grid to shard (default: table1)",
    )
    splan_p.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="K",
        help="number of shards to stripe the grid over",
    )
    splan_p.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="seeds 1..N per point (default: the grid's canonical set)",
    )
    splan_p.add_argument(
        "--striping",
        choices=list(shards.STRIPING_MODES),
        default="cost",
        help="cell -> shard policy: cost-weighted LPT or plain "
        "round-robin (default: cost)",
    )
    splan_p.add_argument(
        "--ratio",
        dest="ratios",
        action="append",
        type=float,
        metavar="R",
        help="table1/sweep grids: drop ratio to include (repeatable; "
        "default: the canonical five)",
    )
    splan_p.add_argument(
        "--baseline",
        choices=[p.value for p in PolicyName],
        default=None,
        help="table1 grid: baseline policy (default: webrtc)",
    )
    splan_p.add_argument(
        "--drop-ratio",
        type=float,
        default=None,
        help="compare grid: scenario severity (default: 0.2)",
    )
    splan_p.add_argument(
        "--policy",
        dest="policies",
        action="append",
        choices=[p.value for p in PolicyName],
        help="compare/chaos grids: policy to include (repeatable; "
        "default: all / adaptive+webrtc)",
    )
    splan_p.add_argument(
        "--scenario",
        dest="scenarios",
        action="append",
        choices=sorted(set(fleet.SCENARIOS) | set(robustness.SCENARIOS)),
        help="fleet/chaos grids: scenario to include (repeatable; "
        "default: the grid's canonical set)",
    )
    splan_p.add_argument(
        "--subscribers",
        type=int,
        default=None,
        help="fleet grid: total subscriber population "
        f"(default: {fleet.SUBSCRIBERS})",
    )
    splan_p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="fleet/chaos grids: capture duration in seconds "
        f"(defaults: {fleet.DURATION:g} / {robustness.DURATION:g})",
    )
    splan_p.add_argument(
        "--fault",
        dest="faults",
        action="append",
        choices=sorted(robustness.FAULT_NAMES),
        help="chaos grid: fault to include (repeatable; default: all)",
    )
    splan_p.add_argument(
        "--fault-at",
        type=float,
        default=None,
        help="chaos grid: when fault windows open "
        f"(default: {robustness.FAULT_AT:g})",
    )
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
    srun_p.add_argument(
        "--lease-ttl",
        type=float,
        default=shards.DEFAULT_LEASE_TTL,
        metavar="S",
        help="heartbeat-lease TTL in seconds; a worker silent this "
        "long is presumed dead and its cells become stealable "
        f"(default: {shards.DEFAULT_LEASE_TTL:g})",
    )
    srun_p.add_argument(
        "--steal",
        action="store_true",
        help="after finishing this shard, claim and execute "
        "expired-lease cells from dead shards",
    )
    _add_supervision_flags(srun_p)
    srun_p.set_defaults(func=_cmd_shard_run)

    ssteal_p = shard_sub.add_parser(
        "steal",
        help="claim and execute unfinished cells of dead "
        "(expired-lease) shards",
    )
    ssteal_p.add_argument("plan", metavar="PLAN", help="plan file")
    ssteal_p.add_argument(
        "--index",
        type=int,
        required=True,
        metavar="I",
        help="which shard identity to steal as (its manifest and "
        "cache receive the stolen work)",
    )
    ssteal_p.add_argument(
        "--dir",
        default="shards",
        metavar="DIR",
        help="shard base directory (default: shards)",
    )
    ssteal_p.add_argument(
        "--victim",
        dest="victims",
        action="append",
        type=int,
        metavar="V",
        help="steal only from this shard (repeatable; raises if it "
        "still holds a live lease; default: every reclaimable shard)",
    )
    ssteal_p.add_argument(
        "--lease-ttl",
        type=float,
        default=shards.DEFAULT_LEASE_TTL,
        metavar="S",
        help="heartbeat-lease TTL for the stealer's own manifest "
        f"(default: {shards.DEFAULT_LEASE_TTL:g})",
    )
    ssteal_p.add_argument(
        "--grace",
        type=float,
        default=0.0,
        metavar="S",
        help="extra seconds a lease must be expired before its cells "
        "are considered reclaimable (default: 0)",
    )
    _add_supervision_flags(ssteal_p)
    ssteal_p.set_defaults(func=_cmd_shard_steal)

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


def _build_supervision(
    args: argparse.Namespace, raw_argv: list[str]
) -> tuple[SupervisorPlan | None, RunManifest | None]:
    """A :class:`SupervisorPlan` when any supervision flag is present.

    Raises:
        ConfigError: on invalid ``--session-timeout``/``--max-retries``.
    """
    timeout = getattr(args, "session_timeout", None)
    retries = getattr(args, "max_retries", None)
    manifest_arg = getattr(args, "manifest", None)
    if timeout is None and retries is None and manifest_arg is None:
        return None, None
    retry = (
        RetryPolicy()
        if retries is None
        else RetryPolicy(max_retries=retries)
    )
    policy = SupervisorPolicy(session_timeout=timeout, retry=retry)
    policy.validate()
    if manifest_arg is not None:
        manifest = RunManifest.create(
            Path(manifest_arg),
            argv=raw_argv,
            command=args.command,
            workers=max(1, args.workers),
            session_timeout=timeout,
            max_retries=retry.max_retries,
        )
    else:
        run_id = new_run_id(raw_argv)
        manifest = RunManifest(
            manifest_dir() / f"{run_id}.json",
            run_id=run_id,
            argv=raw_argv,
            command=args.command,
            workers=max(1, args.workers),
            session_timeout=timeout,
            max_retries=retry.max_retries,
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
