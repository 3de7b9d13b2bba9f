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
    python tools/check_golden.py --workers 4 \
        --table-out table1.txt --trace-out telemetry.jsonl

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
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import scenarios, table1  # noqa: E402
from repro.pipeline.config import PolicyName  # noqa: E402
from repro.pipeline.parallel import configure  # noqa: E402
from repro.pipeline.session import RtcSession  # noqa: E402
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
    args = parser.parse_args(argv)

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
