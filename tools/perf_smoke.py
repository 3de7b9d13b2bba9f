#!/usr/bin/env python
"""Performance smoke gate: the simulator must stay fast.

Runs a pinned 5-session batch (the paper's step-drop scenario, both
policies plus three drop severities) serially, measures end-to-end
sessions/sec, and fails when throughput falls below a floor. The floor
carries ~3x headroom over the optimized hot path measured on a
single-core CI runner (see ``BENCH_hotpath.json``), so it only trips on
a real hot-path regression — an accidental O(n^2) in the packet path,
a dropped ``__slots__``, heap churn — not on runner jitter.

Also writes the ``repro-rtc profile`` JSON report for the first pinned
session, so every CI run leaves a downloadable profile artifact to
compare against when the gate does trip.

Usage::

    python tools/perf_smoke.py                     # gate (CI)
    python tools/perf_smoke.py --min-sessions-per-sec 2.0
    python tools/perf_smoke.py --profile-out profile.json

Exit codes: 0 = fast enough, 1 = below the floor.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import scenarios  # noqa: E402
from repro.pipeline.config import PolicyName  # noqa: E402
from repro.pipeline.session import RtcSession  # noqa: E402
from repro.profiling import profile_session  # noqa: E402

#: The pinned batch runs at ~14 sessions/sec on a 2-vCPU x86-64 host
#: with Python 3.11; 4.0 keeps over 3x headroom for slower CI runners.
DEFAULT_FLOOR = 4.0

#: Pinned batch: (policy, drop_ratio), seed 1, default 25s duration.
PINNED_SESSIONS = (
    (PolicyName.ADAPTIVE, 0.1),
    (PolicyName.ADAPTIVE, 0.2),
    (PolicyName.ADAPTIVE, 0.4),
    (PolicyName.WEBRTC, 0.2),
    (PolicyName.WEBRTC, 0.4),
)


def run_batch() -> tuple[float, int]:
    """Run the pinned batch serially; returns (wall seconds, events)."""
    events = 0
    start = time.perf_counter()
    for policy, drop_ratio in PINNED_SESSIONS:
        config = dataclasses.replace(
            scenarios.step_drop_config(drop_ratio, seed=1),
            policy=policy,
        )
        result = RtcSession(config).run()
        assert result.perf is not None
        events += result.perf.events_fired
    return time.perf_counter() - start, events


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-sessions-per-sec",
        type=float,
        default=DEFAULT_FLOOR,
        help=f"throughput floor (default {DEFAULT_FLOOR})",
    )
    parser.add_argument(
        "--profile-out",
        type=Path,
        default=None,
        help="write a repro-rtc profile JSON report here",
    )
    args = parser.parse_args(argv)

    wall, events = run_batch()
    # Clamp the denominator so a coarse or broken timer can't turn the
    # report into a ZeroDivisionError or an infinite rate.
    wall = max(wall, 1e-6)
    sessions_per_sec = len(PINNED_SESSIONS) / wall
    print(
        f"perf smoke: {len(PINNED_SESSIONS)} sessions in {wall:.2f}s "
        f"({sessions_per_sec:.2f} sessions/s, {events} events, "
        f"{events / wall:,.0f} events/s)"
    )

    if args.profile_out is not None:
        report = profile_session(policy="adaptive", drop_ratio=0.2)
        args.profile_out.write_text(
            report.to_json() + "\n", encoding="utf-8"
        )
        print(f"profile report written to {args.profile_out}")

    if sessions_per_sec < args.min_sessions_per_sec:
        print(
            f"FAIL: {sessions_per_sec:.2f} sessions/s is below the "
            f"floor of {args.min_sessions_per_sec:.2f} — the hot path "
            "regressed (see the profile artifact for where the time "
            "went)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: above the {args.min_sessions_per_sec:.2f} sessions/s floor"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
