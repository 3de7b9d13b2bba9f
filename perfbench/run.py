"""Benchmark: simulator speed and simulated-call QoE, one workload a run.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

The run is a closed loop with one cell in flight (``workers=1``). The
workload seed draws the cell seeds of the workload's seed groups (see
``workloads.py``). Passes cycle through the groups until every group
has run once and ``--seconds`` have gone. A pass runs its group's
cells cold into a fresh result cache, then replays them warm through
``run_many``. Every cell's output is checked (:meth:`Bench.check` and
the replay checks in :meth:`Bench.run_pass`); a failed cell is
reported on stderr and the run goes on.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` pairs each
untraced pass with a traced pass over the same group and prints the
per-layer metrics. Traced passes run with telemetry on and with spans
around each layer's entry points (``tracer.py``); the spans are written
to ``.perfbench-run/trace-<workload>-seed<seed>.json`` at the end.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines above it print the
same metrics for people, plus ``cells_failed_pct`` and the stamp of
what ran (kernel, C extension, Python, CPUs). The exit code is 0 for a
completed run and 2 for a refused one (:func:`refusal`).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench-run"

#: Variables that arm the self-chaos harness's sabotage rules.
REFUSED_ENV = ("REPRO_CHAOS", "REPRO_CHAOS_STATE")

#: Extra fresh-process set-ups; setup_s is the median with the run's own.
SETUP_PROBES = 4

#: Minimum wall time of one pass's warm replay (repeated until reached),
#: so a workload with small cache entries is not timed over milliseconds.
REPLAY_WINDOW_S = 0.3

#: Replay wall time between two runs of the reference loop.
REF_EVERY_S = 0.05

#: Telemetry series the per-layer metrics read.
SERIES = ("net.queue_delay", "pacer.queue_delay", "rtp.playout_delay")


def refusal() -> str | None:
    """Why this environment cannot give a clean run, or ``None``."""
    for name in REFUSED_ENV:
        if name in os.environ:
            return f"{name} is set; its sabotage rules inject failures"
    if not (ROOT / "src" / "repro").is_dir():
        return f"no program source at {ROOT / 'src' / 'repro'}"
    return None


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("table1", "impaired", "fleet")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up only, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def digest(payload) -> str:
    """Content hash of a JSON-ready payload (NaN-safe, unlike ``==``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> tuple[str, str]:
    """``(digest without traces, digest of traces)`` of a result."""
    payload = result.to_dict()
    traces = payload.pop("traces", None)
    return digest(payload), digest(traces)


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) if values else 0.0


@dataclass
class Pass:
    """What one pass over a seed group measured."""

    sim_s: float = 0.0
    #: Wall seconds of the cold runs and of the warm replays.
    cold_s: float = 0.0
    replayed: int = 0
    replay_s: float = 0.0
    #: Wall-to-nominal factors measured next to each (reference.py).
    cold_scale: float = 1.0
    replay_scale: float = 1.0
    #: One per cell; ``None`` where the cell failed.
    results: list = field(default_factory=list)
    telemetries: list = field(default_factory=list)
    #: Sizes of the cache entries of the cells that passed.
    entry_bytes: list = field(default_factory=list)


# ----------------------------------------------------------------------
class Bench:
    """One benchmark run over one workload."""

    def __init__(self, workload, scratch: Path) -> None:
        from repro.pipeline.parallel import ResultCache

        self.workload = workload
        self.scratch = scratch
        self._cache_cls = ResultCache
        self.attempted = 0
        self.failed = 0
        #: cell key -> digest of its first untraced result, traces dropped.
        self.reference: dict[str, str] = {}
        self.next_cache = self.fresh_cache()

    def fresh_cache(self):
        cache = self._cache_cls(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        cache.ensure_writable()
        return cache

    @staticmethod
    def fail(cell, reason: str) -> None:
        print(
            f"FAILED cell {cell.label} [{cell.key[:12]}]: {reason}",
            file=sys.stderr,
            flush=True,
        )

    def check(self, cell, result, traced: bool, seen: tuple[str, str]) -> str | None:
        """Why a cold result with digest ``seen`` is wrong, or ``None``.

        Fails a frame displayed faster than the path's propagation
        delay, and a result that differs (traces aside) from the cell's
        first untraced result: traced vs untraced, or a repeated pass.
        """
        too_fast = self.workload.faster_than_light(cell, result)
        if too_fast:
            return too_fast
        if self.reference.setdefault(cell.key, seen[0]) != seen[0]:
            return (
                "traced result differs from the untraced one"
                if traced
                else "result differs from an earlier pass"
            )
        return None

    def run_pass(
        self, group: int, tracer=None, replay_window: float = REPLAY_WINDOW_S
    ) -> Pass:
        """Cold pass then warm replay over one seed group's cells.

        A traced pass replays once; an untraced one repeats the replay
        until ``replay_window`` seconds have gone, checking the first.
        """
        from perfbench.reference import nominal_scale, reference_seconds
        from repro.pipeline.parallel import run_many

        workload = self.workload
        cells = workload.groups[group]
        traced = tracer is not None
        cache, self.next_cache = self.next_cache, None
        out = Pass()
        cold_ns = 0
        configs = [workload.config_for(cell, traced) for cell in cells]
        bad: set[int] = set()

        def span(cell):
            return tracer.cell(cell.key) if traced else contextlib.nullcontext()

        cold_refs = []
        for index, cell in enumerate(cells):
            self.attempted += 1
            cold_refs.append(reference_seconds())
            try:
                with span(cell):
                    start = time.perf_counter_ns()
                    result, telemetry = workload.run_cold(
                        configs[index], cache, traced
                    )
                    elapsed = time.perf_counter_ns() - start
                    if not workload.via_cache:
                        cache.put(configs[index], result)
            except Exception as exc:  # one bad cell must not end the run
                traceback.print_exc(file=sys.stderr)
                self.fail(cell, f"raised {type(exc).__name__}: {exc}")
                bad.add(index)
                out.results.append(None)
                out.telemetries.append(None)
                continue
            cold_ns += elapsed
            out.sim_s += cell.sim_seconds
            out.results.append(result)
            out.telemetries.append(telemetry)
        cold_refs.append(reference_seconds())

        cold = {}  # index -> (digest of the cold result, entry inode)
        for index, cell in enumerate(cells):
            if index in bad:
                continue
            seen = result_digest(out.results[index])
            why = self.check(cell, out.results[index], traced, seen)
            if why is not None:
                self.fail(cell, why)
                bad.add(index)
                continue
            cold[index] = (seen, os.stat(cache.path_for(configs[index])).st_ino)
        out.entry_bytes = [
            os.path.getsize(cache.path_for(configs[i])) for i in cold
        ]

        replay_ns = 0
        replay_refs = []
        checked = False
        while cold and not (checked and (traced or replay_ns >= replay_window * 1e9)):
            if replay_ns >= len(replay_refs) * REF_EVERY_S * 1e9:
                replay_refs.append(reference_seconds())
            for index in sorted(cold):
                cell = cells[index]
                try:
                    with span(cell):
                        start = time.perf_counter_ns()
                        warm = run_many([configs[index]], workers=1, cache=cache)[0]
                        replay_ns += time.perf_counter_ns() - start
                except Exception as exc:
                    traceback.print_exc(file=sys.stderr)
                    self.fail(cell, f"warm replay raised {type(exc).__name__}: {exc}")
                    bad.add(index)
                    del cold[index]
                    continue
                out.replayed += 1
                if checked:
                    continue
                cold_digest, inode = cold[index]
                if os.stat(cache.path_for(configs[index])).st_ino != inode:
                    why = "warm replay ran the cell instead of reading the cache"
                elif result_digest(warm) != cold_digest:
                    why = "warm-replayed result differs from the cold one"
                else:
                    continue
                self.fail(cell, why)
                bad.add(index)
                del cold[index]
            checked = True

        self.failed += len(bad)
        for index in bad:
            out.results[index] = None
        shutil.rmtree(cache.root, ignore_errors=True)
        self.next_cache = self.fresh_cache()
        out.cold_s = cold_ns / 1e9
        out.replay_s = replay_ns / 1e9
        out.cold_scale = nominal_scale(cold_refs)
        if replay_refs:
            out.replay_scale = nominal_scale(replay_refs)
        return out

    def call_sample(self, results: list) -> dict:
        return self.workload.call_sample([r for r in results if r is not None])


def call_metrics(workload, samples: list[dict]) -> tuple[dict, int]:
    """The ``call_*`` metrics and their frame count (zeros if no frames)."""
    try:
        stats = workload.call_stats(samples)
    except (ValueError, IndexError, ZeroDivisionError):  # nothing displayed
        return dict.fromkeys(
            ("call_p50_ms", "call_p99_ms", "call_freeze_pct", "call_ssim"), 0.0
        ), 0
    return {
        "call_p50_ms": stats.p50_ms,
        "call_p99_ms": stats.p99_ms,
        "call_freeze_pct": stats.freeze_pct,
        "call_ssim": stats.ssim,
    }, stats.frames


# ----------------------------------------------------------------------
def timed_run(
    bench: Bench, seconds: float, seed: int, setup_s: float
) -> tuple[dict, list[str]]:
    """End-to-end metrics; ``setup_s`` is the run's own set-up time."""
    workload = bench.workload
    groups = len(workload.groups)
    # Groups differ in cost (their seeds differ), so a pass's speed
    # depends on its group: time each group by the median of its passes.
    cold: list[list[tuple[float, float]]] = [[] for _ in range(groups)]
    replay_rates: list[float] = []
    wall_speeds: list[float] = []
    scales: list[float] = []
    samples: list[dict] = []
    passes = 0
    start = time.perf_counter()
    while passes < groups or time.perf_counter() - start < seconds:
        done = bench.run_pass(passes % groups)
        if passes < groups:
            samples.append(bench.call_sample(done.results))
        if done.cold_s > 0:
            cold[passes % groups].append(
                (done.cold_s * done.cold_scale, done.sim_s)
            )
            wall_speeds.append(done.sim_s / done.cold_s)
            scales.append(done.cold_scale)
        if done.replay_s > 0:
            replay_rates.append(
                done.replayed / (done.replay_s * done.replay_scale)
            )
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + probe_setups(workload.name, seed)
    calls, frames = call_metrics(workload, samples)
    walls = [statistics.median(wall for wall, _ in runs) for runs in cold if runs]
    sims = [statistics.median(sim for _, sim in runs) for runs in cold if runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_speed_x": sum(sims) / sum(walls) if walls else 0.0,
        "replay_cells_per_s": (
            statistics.median(replay_rates) if replay_rates else 0.0
        ),
        "peak_rss_mb": peak_rss_mb,
        **calls,
    }
    notes = [
        f"passes = {passes} over {groups} seed groups; set-ups = {len(setups)}",
        f"times are nominal seconds; median wall-to-nominal factor "
        f"{statistics.median(scales or [0.0]):.4g}, median wall-clock "
        f"speed {statistics.median(wall_speeds or [0.0]):.6g} sim-s/s",
        f"call frames = {frames}",
        f"cells_failed_pct = {100.0 * bench.failed / bench.attempted:.4g} % "
        f"({bench.failed} of {bench.attempted})",
        f"latency_reduction_pct = "
        f"{workload.latency_reduction_pct(samples):.6g} %",
    ]
    return metrics, notes


def probe_setups(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes running only the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def traced_run(bench: Bench, seconds: float, seed: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced passes, each paired with an
    untraced pass over the same group."""
    from perfbench.tracer import SIMCORE_COVERS, Tracer

    workload = bench.workload
    groups = len(workload.groups)
    untraced_s: list[float] = []
    traced_s: list[float] = []
    partials: list[dict] = []
    spans: list[dict] = []
    samples: list[dict] = []
    entry_bytes: list[int] = []
    start = time.perf_counter()
    while len(partials) < groups or time.perf_counter() - start < seconds:
        group = len(partials) % groups
        plain = bench.run_pass(group, replay_window=0.0)
        tracer = Tracer()
        with tracer.installed():
            traced = bench.run_pass(group, tracer)
        if len(partials) < groups:
            samples.append(bench.call_sample(plain.results))
            entry_bytes += plain.entry_bytes
        untraced_s.append(plain.cold_s)
        traced_s.append(traced.cold_s)
        partials.append(pass_partial(tracer, traced.telemetries, len(workload.groups[group])))
        spans.append(tracer.cells)

    # Counts pool one traced pass per group, so they are exact for the
    # seed; times are noisy, so they take the median pass.
    metrics = layer_metrics(partials[:groups])
    per_pass = [layer_metrics([partial]) for partial in partials]
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics["pipeline.entry_kb"] = (
        statistics.mean(entry_bytes) / 1024.0 if entry_bytes else 0.0
    )
    metrics["latency_reduction_pct"] = workload.latency_reduction_pct(samples)
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(t / u for t, u in zip(traced_s, untraced_s) if u > 0) - 1.0
    )
    out = write_trace(workload, seed, untraced_s, traced_s, spans, SIMCORE_COVERS)
    notes = [
        f"passes = {len(partials)} untraced + {len(partials)} traced "
        f"over {groups} seed groups",
        f"spans written to {out.relative_to(ROOT)}",
    ]
    return metrics, notes


def pass_partial(tracer, telemetries: list, cells: int) -> dict:
    """The sums one traced pass contributes to the per-layer metrics."""
    partial = {
        "cells": cells,
        "spans": {},
        "events": 0,
        "lane_events": 0,
        "hits": 0,
        "counters": {},
        "series": {name: [] for name in SERIES},
    }
    for rec in tracer.cells.values():
        for key in ("events", "lane_events", "hits"):
            partial[key] += rec[key]
        for name, values in rec["spans"].items():
            acc = partial["spans"].setdefault(name, [0, 0, 0])
            for i, value in enumerate(values):
                acc[i] += value
    for telemetry in telemetries:
        if telemetry is None:
            continue
        for name, value in telemetry.counters.items():
            partial["counters"][name] = partial["counters"].get(name, 0.0) + value
        for name in SERIES:
            if name in telemetry.series_names():
                partial["series"][name].extend(telemetry.series(name).values)
    return partial


def layer_metrics(partials: list[dict]) -> dict:
    """Per-layer metrics (per-cell means) pooled over traced passes."""
    cells = sum(p["cells"] for p in partials)
    spans: dict[str, list[int]] = {}
    for p in partials:
        for name, values in p["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            for i, value in enumerate(values):
                acc[i] += value

    def total(key: str) -> float:
        return sum(p[key] for p in partials)

    def counter(name: str) -> float:
        return sum(p["counters"].get(name, 0.0) for p in partials)

    def series(name: str, q: float) -> float:
        return 1e3 * percentile([v for p in partials for v in p["series"][name]], q)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def span(name: str, field: int) -> float:
        return spans.get(name, (0, 0, 0))[field]

    metrics = {
        "simcore.events": total("events") / cells,
        "simcore.lane_share": ratio(total("lane_events"), total("events")),
        "pipeline.hit_ratio": total("hits") / cells,
        "netsim.queue_delay_p95_ms": series("net.queue_delay", 95),
        "rtp.pacer_delay_p95_ms": series("pacer.queue_delay", 95),
        "rtp.playout_delay_p50_ms": series("rtp.playout_delay", 50),
        "core.frames_skipped": counter("policy.frames_skipped") / cells,
        "rtp.retransmissions": counter("sender.retransmissions") / cells,
        "rtp.fec_recovery_ratio": ratio(
            counter("fec.recovered_packets"), counter("fec.parity_packets")
        ),
        "sfu.probe_success": ratio(
            counter("sfu.probes_validated"), counter("sfu.probes_started")
        ),
        "sfu.layer_switches": counter("sfu.layer_switches") / cells,
    }
    for layer in ("simcore", "codec", "cc", "core", "baselines", "rtp", "sfu"):
        metrics[f"{layer}.self_s"] = span(layer, 2) / 1e9 / cells
    for layer in ("codec", "cc", "core", "rtp", "sfu"):
        metrics[f"{layer}.calls"] = span(layer, 0) / cells
    for part in ("hash", "put", "get"):
        metrics[f"pipeline.{part}_s"] = span(f"pipeline.{part}", 1) / 1e9 / cells
    return metrics


def write_trace(workload, seed, untraced_s, traced_s, passes, covers) -> Path:
    """Write every traced pass's spans as one file; returns its path."""
    RUN_DIR.mkdir(exist_ok=True)
    out = RUN_DIR / f"trace-{workload.name}-seed{seed}.json"
    out.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "env": environment(),
                "simcore_self_covers": covers,
                "cells": {cell.key: cell.label for cell in workload.cells},
                "untraced_cold_s": untraced_s,
                "traced_cold_s": traced_s,
                "passes": [
                    {
                        key: {
                            "wall_s": rec["wall_ns"] / 1e9,
                            "events": rec["events"],
                            "lane_events": rec["lane_events"],
                            "cache_hits": rec["hits"],
                            "spans": {
                                name: {
                                    "count": count,
                                    "total_s": total / 1e9,
                                    "self_s": own / 1e9,
                                }
                                for name, (count, total, own) in sorted(
                                    rec["spans"].items()
                                )
                            },
                        }
                        for key, rec in cells.items()
                    }
                    for cells in passes
                ],
            },
            indent=1,
            sort_keys=True,
        )
    )
    return out


def environment() -> dict:
    """What decides which program ran: kernel, C extension, Python, CPUs."""
    from repro import _native
    from repro.simcore.backend import resolve_kernel

    return {
        "kernel": resolve_kernel().value,
        "compiled": _native.status()["enabled"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    args = parse_args(argv)
    why = refusal()
    if why is not None:
        print(f"perfbench: refusing to run: {why}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalog
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    RUN_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_DIR))
    try:
        bench = Bench(workload, scratch)
        setup_s = time.perf_counter() - _START
        from perfbench.reference import nominal_scale, reference_seconds

        setup_s *= nominal_scale([reference_seconds() for _ in range(5)])
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            metrics, notes = traced_run(bench, args.seconds, args.seed)
            wanted = catalog.PER_LAYER
        else:
            metrics, notes = timed_run(bench, args.seconds, args.seed, setup_s)
            wanted = catalog.END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in environment().items())
    )
    for note in notes:
        print(note)
    for metric in wanted:
        print(f"{metric.name} = {metrics[metric.name]:.6g} {metric.unit}")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    m.name: {"value": float(metrics[m.name]), "unit": m.unit}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
