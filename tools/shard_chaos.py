#!/usr/bin/env python
"""Self-chaos proof for the crash-surviving shard fabric.

Runs a real sharded Table 1 across worker subprocesses, murders one of them
as soon as its first result reaches its cache (SIGKILL — no cleanup
handlers get to run), tears its manifest at an arbitrary byte offset to
simulate a write interrupted on a non-atomic filesystem, re-runs the
victim's index at once (its holder is dead, so its lease does not
block the re-run, and every result already cached must be served from
there), merges, and **byte-compares** the merged report in every
format against an undisturbed single-process run of the same batch.

Along the way it also proves the observability contract: ``repro-rtc
shard status`` must exit 0 on the torn manifest (reporting the lost
cells as pending) and ``--strict`` must refuse it.

Usage::

    python tools/shard_chaos.py --quick            # CI: 4-cell Table 1
    python tools/shard_chaos.py                    # 12-cell Table 1
    python tools/shard_chaos.py --report chaos.json
    python tools/shard_chaos.py --seed 7           # different tear offset

Exit codes: 0 = every check passed, 1 = a check failed, 2 = the
harness itself could not run the scenario.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import artifacts  # noqa: E402
from repro.pipeline import shards  # noqa: E402
from repro.pipeline.parallel import run_many  # noqa: E402

#: Overall wall-clock budget for the scenario (generous; CI kills us
#: long after this would have fired).
SCENARIO_TIMEOUT = 900.0

#: A result-cache entry's file name.
ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")


def _cache_entries(cache: Path) -> int:
    """How many result entries a shard cache holds."""
    if not cache.is_dir():
        return 0
    return sum(
        1 for path in cache.iterdir() if ENTRY_NAME.fullmatch(path.name)
    )


def _cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *argv]


class Harness:
    """One chaos scenario with a step-by-step report."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        # Absolute: the worker subprocesses run from the repo root.
        self.base = Path(args.out).resolve()
        self.shard_dir = self.base / "shards"
        self.plan_path = self.base / "plan.json"
        self.deadline = time.monotonic() + SCENARIO_TIMEOUT
        self.checks: list[dict] = []
        self.failed = False
        self.kind = "table1"
        if args.quick:
            self.params: dict = {"ratios": [0.3, 0.2], "seeds": [1]}
        else:
            self.params = {"ratios": [0.45, 0.3, 0.2], "seeds": [1, 2]}

    # ------------------------------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": ok, "detail": detail})
        marker = "ok  " if ok else "FAIL"
        print(f"[{marker}] {name}" + (f" — {detail}" if detail else ""))
        if not ok:
            self.failed = True
        return ok

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("chaos scenario exceeded its time budget")
        return left

    def run_cli(self, *argv: str, check: bool = True) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            _cli(*argv),
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=self._remaining(),
        )
        if check and proc.returncode != 0:
            raise RuntimeError(
                f"repro-rtc {' '.join(argv)} exited "
                f"{proc.returncode}:\n{proc.stderr}"
            )
        return proc

    # ------------------------------------------------------------------
    def run(self) -> int:
        self.base.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = (
            str(ROOT / "src") + os.pathsep + self.env.get("PYTHONPATH", "")
        )

        plan = shards.build_plan(self.kind, self.params, self.args.shards)
        plan.save(self.plan_path)
        print(
            f"plan {plan.plan_id}: {len(plan.hashes)} cells of grid "
            f"'{plan.kind}' over {plan.shards} shards"
        )

        # Undisturbed reference: same batch, one process, no shard
        # machinery and no cache — then rendered through the same
        # artifact render path the merge uses.
        configs = plan.configs()
        payload = artifacts.payload_of(
            plan.kind,
            plan.params,
            configs,
            run_many(configs, workers=self.args.workers, cache=None),
        )
        reference = {
            fmt: artifacts.render(payload, fmt)
            for fmt in artifacts.FORMATS
        }

        victim = max(
            range(plan.shards),
            key=lambda i: (len(plan.cell_indices(i)), -i),
        )
        offset = self.chaos_workers(plan, victim)
        self.torn_status_checks(victim, offset)
        self.rerun_victim(victim)
        self.merge_and_compare(plan, reference)

        report = {
            "grid": {"kind": self.kind, "params": self.params},
            "plan_id": plan.plan_id,
            "shards": plan.shards,
            "victim": victim,
            "tear_offset": offset,
            "seed": self.args.seed,
            "checks": self.checks,
            "passed": not self.failed,
        }
        if self.args.report:
            Path(self.args.report).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"report written to {self.args.report}")
        return 1 if self.failed else 0

    # ------------------------------------------------------------------
    def chaos_workers(self, plan: shards.ShardPlan, victim: int) -> int:
        """Run all shards; SIGKILL the victim mid-run; tear its manifest.

        Returns the byte offset the victim's manifest was truncated at.
        """
        procs: dict[int, subprocess.Popen] = {}
        for index in range(plan.shards):
            procs[index] = subprocess.Popen(
                _cli(
                    "--no-cache",
                    "--workers",
                    "1",
                    "shard",
                    "run",
                    str(self.plan_path),
                    "--index",
                    str(index),
                    "--out",
                    str(self.shard_dir),
                ),
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

        victim_dir = shards.shard_dir(self.shard_dir, victim)
        victim_manifest = victim_dir / "manifest.json"
        # Kill as soon as the victim's first result reaches its cache
        # (the trigger CI's sweep-shards crash leg uses): it has
        # finished work to serve on the re-run, and (almost surely)
        # work left to do. ``wait`` reaps it, so its pid is gone.
        killed_mid_run = False
        while time.monotonic() < self.deadline:
            if procs[victim].poll() is not None:
                break  # victim finished before we could murder it
            if _cache_entries(victim_dir / "cache"):
                procs[victim].send_signal(signal.SIGKILL)
                procs[victim].wait(timeout=self._remaining())
                killed_mid_run = True
                break
            time.sleep(0.02)
        self.check(
            "victim SIGKILLed mid-run",
            killed_mid_run,
            f"shard {victim}, pid {procs[victim].pid}",
        )

        for index, proc in procs.items():
            if index == victim:
                continue
            code = proc.wait(timeout=self._remaining())
            self.check(
                f"shard {index} finished cleanly", code == 0,
                f"exit {code}",
            )

        # Tear the victim's manifest at a seeded, arbitrary byte
        # offset — the shape a SIGKILL leaves on a filesystem without
        # atomic rename.
        offset = 0
        if killed_mid_run and victim_manifest.is_file():
            size = victim_manifest.stat().st_size
            rng = random.Random(self.args.seed)
            offset = rng.randrange(1, max(2, size))
            with open(victim_manifest, "r+b") as handle:
                handle.truncate(offset)
            self.check(
                "victim manifest torn",
                True,
                f"truncated to {offset}/{size} bytes",
            )
        else:
            self.check("victim manifest torn", False, "nothing to tear")
        return offset

    # ------------------------------------------------------------------
    def torn_status_checks(self, victim: int, offset: int) -> None:
        proc = self.run_cli(
            "shard",
            "status",
            str(self.plan_path),
            "--dir",
            str(self.shard_dir),
            check=False,
        )
        self.check(
            "shard status exits 0 on the torn manifest",
            proc.returncode == 0,
            f"exit {proc.returncode}",
        )
        self.check(
            "shard status reports the damage",
            "warning" in proc.stderr,
            proc.stderr.strip().splitlines()[0] if proc.stderr else "",
        )
        strict = self.run_cli(
            "shard",
            "status",
            str(self.plan_path),
            "--dir",
            str(self.shard_dir),
            "--strict",
            check=False,
        )
        self.check(
            "shard status --strict refuses the torn manifest",
            strict.returncode != 0,
            f"exit {strict.returncode}",
        )

    # ------------------------------------------------------------------
    def rerun_victim(self, victim: int) -> None:
        # Straight after the tear, with no wait: the killed holder is
        # reaped, so its lease (if the tear left one) reads as expired.
        # Everything in the victim's cache must be served from there.
        cached = _cache_entries(
            shards.shard_dir(self.shard_dir, victim) / "cache"
        )
        rerun = self.run_cli(
            "--no-cache",
            "--workers",
            "1",
            "shard",
            "run",
            str(self.plan_path),
            "--index",
            str(victim),
            "--out",
            str(self.shard_dir),
            check=False,
        )
        summary = (rerun.stderr.strip().splitlines() or [""])[-1]
        served = re.search(r"(\d+) from cache", summary)
        self.check(
            "victim re-run serves its cached cells",
            rerun.returncode == 0
            and cached >= 1
            and served is not None
            and int(served.group(1)) == cached,
            f"{cached} cached before the re-run; {summary}",
        )

    # ------------------------------------------------------------------
    def merge_and_compare(
        self, plan: shards.ShardPlan, reference: dict[str, str]
    ) -> None:
        for fmt, expected in sorted(reference.items()):
            out_file = self.base / f"merged-report.{fmt}"
            merged_dir = self.base / f"merged-{fmt}"
            proc = self.run_cli(
                "shard",
                "merge",
                str(self.plan_path),
                "--dir",
                str(self.shard_dir),
                "--out",
                str(merged_dir),
                "--format",
                fmt,
                "-o",
                str(out_file),
                check=False,
            )
            if not self.check(
                f"merge renders {fmt}", proc.returncode == 0,
                f"exit {proc.returncode}",
            ):
                continue
            merged = out_file.read_text(encoding="utf-8")
            self.check(
                f"merged {fmt} report is byte-identical to the "
                "undisturbed run",
                merged == expected,
                f"{len(merged)} bytes",
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small batch for CI (4 cells over 3 shards)",
    )
    parser.add_argument(
        "--shards", type=int, default=3, help="shard count (default: 3)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="workers for the in-process reference run (default: 2)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="seed for the manifest tear offset (default: 1)",
    )
    parser.add_argument(
        "--out",
        default="chaos-shards",
        metavar="DIR",
        help="scratch directory (default: chaos-shards)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write a JSON report of every check",
    )
    args = parser.parse_args(argv)
    harness = Harness(args)
    try:
        code = harness.run()
    except (TimeoutError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"shard_chaos: scenario failed to run: {exc}", file=sys.stderr)
        return 2
    if code == 0:
        print("shard_chaos: all checks passed")
    else:
        print("shard_chaos: CHECKS FAILED", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
