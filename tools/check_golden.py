#!/usr/bin/env python
"""Golden-metrics regression gate for the Table-1 reproduction.

Regenerates the headline comparison rows (baseline vs adaptive latency
and SSIM per drop severity) with fixed seeds and compares them against
the committed ``golden_metrics.json``. The simulator is deterministic,
so any drift beyond a small float tolerance means a code change moved
the reproduced numbers — the gate fails and prints a per-row diff.

Usage::

    python tools/check_golden.py                  # check (CI gate)
    python tools/check_golden.py --update         # re-pin the golden file
    python tools/check_golden.py --kernel heap    # gate one backend
    python tools/check_golden.py --compare-kernels  # byte-compare all
    python tools/check_golden.py --workers 4 \
        --table-out table1.txt --trace-out telemetry.jsonl

``--kernel`` pins the event-kernel backend for the regeneration (the
tolerance gate is kernel-independent — all backends are bit-identical,
so this mainly documents which one a CI leg exercised).
``--compare-kernels`` is the stronger check: it reruns every golden
Table-1 session under each backend and byte-compares the full
serialized results (not just the headline metrics), failing on the
first divergence.

Exit codes: 0 = within tolerance, 1 = drift detected, 2 = bad usage /
missing golden file.

Reading a failure: each line names the row (drop severity), the metric,
the golden value, the regenerated value, and the allowed tolerance. If
the change is *intended* (a controller improvement, a calibration
change), rerun with ``--update`` and commit the new golden file with an
explanation; if not, the diff tells you which layer to look at —
latency-reduction drift implicates the adaptation/transport path, SSIM
drift the codec/rate-control path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import scenarios, table1  # noqa: E402
from repro.pipeline.config import PolicyName  # noqa: E402
from repro.pipeline.parallel import configure  # noqa: E402
from repro.pipeline.session import RtcSession  # noqa: E402
from repro.simcore.backend import KERNEL_ENV_VAR  # noqa: E402
from repro.telemetry import export_text  # noqa: E402

#: Default golden file, committed at the repo root.
GOLDEN_PATH = ROOT / "golden_metrics.json"

#: Seeds pinned for the gate (a subset of the full TABLE1_SEEDS keeps
#: the CI job fast while still averaging out per-seed noise).
GOLDEN_SEEDS = (1, 2, 3)

#: (metric, mode, tolerance): absolute in percentage points for the
#: percent metrics, relative for the raw latencies/SSIMs. Deterministic
#: replays land far inside these; real regressions land far outside.
TOLERANCES = (
    ("latency_reduction_pct", "abs", 0.05),
    ("ssim_change_pct", "abs", 0.02),
    ("baseline_latency", "rel", 1e-3),
    ("adaptive_latency", "rel", 1e-3),
    ("baseline_ssim", "rel", 1e-4),
    ("adaptive_ssim", "rel", 1e-4),
)


def regenerate(seeds: tuple[int, ...]) -> list[table1.Table1Row]:
    """Fresh Table-1 rows for the pinned seeds."""
    return table1.run_table(seeds=seeds)


def rows_to_metrics(rows: list[table1.Table1Row]) -> dict:
    """Rows as the JSON structure stored in the golden file."""
    return {
        "seeds": list(GOLDEN_SEEDS),
        "rows": [dataclasses.asdict(row) for row in rows],
    }


def compare(golden: dict, fresh: dict, scale: float = 1.0) -> list[str]:
    """Differences between golden and fresh metrics beyond tolerance.

    Args:
        golden: previously pinned metrics (``rows_to_metrics`` shape).
        fresh: regenerated metrics.
        scale: multiply every tolerance (CLI ``--tolerance-scale``).

    Returns:
        Human-readable failure lines; empty when everything is pinned.
    """
    failures: list[str] = []
    if golden.get("seeds") != fresh.get("seeds"):
        failures.append(
            f"seed set changed: golden {golden.get('seeds')} vs "
            f"fresh {fresh.get('seeds')}"
        )
        return failures
    golden_rows = {row["label"]: row for row in golden["rows"]}
    fresh_rows = {row["label"]: row for row in fresh["rows"]}
    if sorted(golden_rows) != sorted(fresh_rows):
        failures.append(
            f"row set changed: golden {sorted(golden_rows)} vs "
            f"fresh {sorted(fresh_rows)}"
        )
        return failures
    for label, golden_row in golden_rows.items():
        fresh_row = fresh_rows[label]
        for metric, mode, tolerance in TOLERANCES:
            want = golden_row[metric]
            got = fresh_row[metric]
            limit = tolerance * scale
            if mode == "rel":
                limit *= max(abs(want), 1e-12)
            if abs(got - want) > limit:
                failures.append(
                    f"{label}: {metric} drifted — golden {want:.6f}, "
                    f"regenerated {got:.6f} "
                    f"(|Δ|={abs(got - want):.6f} > tol {limit:.6f})"
                )
    return failures


#: Backends covered by ``--compare-kernels``; heap is the reference.
KERNELS = ("heap", "calendar", "batched")


def compare_kernels(seeds: tuple[int, ...]) -> list[str]:
    """Byte-compare full session results across every kernel backend.

    Runs each golden Table-1 session (every ratio x seed x policy)
    once per backend and compares the complete ``to_dict()`` JSON and
    the fired-event count against the heap reference. Returns failure
    lines (empty = bit-identical everywhere).
    """
    failures: list[str] = []
    for ratio in scenarios.TABLE1_DROP_RATIOS:
        for seed in seeds:
            base = scenarios.step_drop_config(ratio, seed=seed)
            for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE):
                config = dataclasses.replace(base, policy=policy)
                reference = None
                ref_events = 0
                for kernel in KERNELS:
                    session = RtcSession(
                        dataclasses.replace(config, kernel=kernel)
                    )
                    result = session.run()
                    payload = json.dumps(result.to_dict(), sort_keys=True)
                    events = session.scheduler.events_fired
                    if reference is None:
                        reference, ref_events = payload, events
                        continue
                    if payload != reference or events != ref_events:
                        failures.append(
                            f"ratio={ratio} seed={seed} "
                            f"policy={policy.value}: kernel "
                            f"'{kernel}' diverged from 'heap' "
                            f"(bytes_equal={payload == reference}, "
                            f"events {events} vs {ref_events})"
                        )
    return failures


def _write_trace(path: Path) -> None:
    """One telemetry-enabled adaptive session, exported as JSONL."""
    config = scenarios.step_drop_config(0.2, seed=GOLDEN_SEEDS[0])
    config = dataclasses.replace(
        config, policy=PolicyName.ADAPTIVE, enable_telemetry=True
    )
    result = RtcSession(config).run()
    assert result.traces is not None
    path.write_text(
        export_text(result.traces, fmt="jsonl"), encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-pin golden_metrics.json from a fresh regeneration",
    )
    parser.add_argument(
        "--golden",
        type=Path,
        default=GOLDEN_PATH,
        help=f"golden file location (default: {GOLDEN_PATH})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the regeneration batch",
    )
    parser.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply every tolerance (default 1.0)",
    )
    parser.add_argument(
        "--table-out",
        type=Path,
        default=None,
        help="also write the formatted Table-1 text here (CI artifact)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="also write a telemetry JSONL trace here (CI artifact)",
    )
    parser.add_argument(
        "--kernel",
        choices=["auto"] + list(KERNELS),
        default="auto",
        help="event-kernel backend for the regeneration (default: auto)",
    )
    parser.add_argument(
        "--compare-kernels",
        action="store_true",
        help="rerun every golden session under each kernel backend and "
        "byte-compare the full results (skips the tolerance gate)",
    )
    args = parser.parse_args(argv)

    if args.kernel != "auto":
        os.environ[KERNEL_ENV_VAR] = args.kernel

    if args.compare_kernels:
        failures = compare_kernels(GOLDEN_SEEDS)
        if failures:
            print("KERNEL DIVERGENCE DETECTED:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        total = (
            len(scenarios.TABLE1_DROP_RATIOS) * len(GOLDEN_SEEDS) * 2
        )
        print(
            f"kernel compare OK: {total} sessions bit-identical "
            f"across {KERNELS}"
        )
        return 0

    if not args.update and not args.golden.is_file():
        print(
            f"error: golden file {args.golden} not found — run with "
            "--update to create it",
            file=sys.stderr,
        )
        return 2

    # The gate must measure the code as it is now — never trust a cache
    # written by some other checkout.
    configure(workers=max(1, args.workers), cache=None)

    rows = regenerate(GOLDEN_SEEDS)
    fresh = rows_to_metrics(rows)

    if args.table_out is not None:
        args.table_out.write_text(
            table1.format_table(rows) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.table_out}")
    if args.trace_out is not None:
        _write_trace(args.trace_out)
        print(f"wrote {args.trace_out}")

    if args.update:
        args.golden.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"pinned {len(fresh['rows'])} rows to {args.golden}")
        return 0

    golden = json.loads(args.golden.read_text(encoding="utf-8"))
    failures = compare(golden, fresh, scale=args.tolerance_scale)
    if failures:
        print("GOLDEN METRICS DRIFT DETECTED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print(
            "\nIf this change is intended, re-pin with: "
            "python tools/check_golden.py --update",
            file=sys.stderr,
        )
        return 1
    print(
        f"golden metrics OK: {len(fresh['rows'])} rows within tolerance"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
