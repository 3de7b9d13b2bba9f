#!/usr/bin/env python
"""A/B one perfbench workload: a git revision against the working tree.

Usage::

    python tools/perf_ab.py REV --workload table1 --seed 5 --pairs 10

The tool extracts ``git archive REV`` into a temporary directory (the
parent side) and runs ``BENCHMARK.json``'s command alternately there
and in the working tree (the change), ``--pairs`` times each,
alternating which side goes first. Every run lasts ``run_seconds``
from ``BENCHMARK.json`` and runs with ``PYTHONDONTWRITEBYTECODE=1``.
The last JSON line of each run goes to
``.perfbench-run/ab-<workload>-seed<seed>.jsonl`` in the working tree.

It refuses to run (exit 2) when the two trees' ``perfbench/`` or
``BENCHMARK.json`` differ, or when either tree holds a ``__pycache__``
under ``src/`` or ``perfbench/``: a bytecode cache on one side only
reads as a set-up gain. It deletes nothing of either tree.

For each end-to-end metric it prints each side's median and quartiles,
the pairs the change won (ties count for neither side), and two
verdicts (choosing-metrics, section 8):

* the claim: ``claimable`` when the change won at least nine tenths of
  at least ten pairs and its median beats the parent's by more than
  the parent's quartile spread;
* the bound: ``within bound`` when the change's median is no worse
  than the parent's by more than the metric's ``BENCHMARK.json``
  bound, ``worse than bound`` when it is, and ``unresolved`` when
  either side's quartile spread is wider than the bound (relative to
  the parent's median), unless every run of the change beats every
  run of the parent.

Exit codes: 0 = every run completed, 1 = a run failed, 2 = refused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: A gain needs this share of all pairs won, over at least this many.
CLAIM_WINS = (9, 10)
CLAIM_MIN_PAIRS = 10


@dataclass(frozen=True)
class Verdict:
    """One metric over paired runs; quartiles are ``(q1, median, q3)``."""

    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    claimable: bool
    bound: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, interpolated between the closest runs."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> Verdict:
    """Judge one metric; ``parent[i]`` and ``change[i]`` are pair ``i``.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the share by
    which the change's median may be worse than the parent's.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (>= 1) of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    claimable = (
        pairs >= CLAIM_MIN_PAIRS
        and wins * CLAIM_WINS[1] >= pairs * CLAIM_WINS[0]
        and gain > pq[2] - pq[0]
    )
    allowed = bound * abs(pq[1])
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(pq[2] - pq[0], cq[2] - cq[0]) > allowed and not every_run_better:
        judged = "unresolved"
    elif gain >= -allowed:
        judged = "within bound"
    else:
        judged = "worse than bound"
    return Verdict(pq, cq, wins, pairs, claimable, judged)


def tree_digest(root: Path, names: tuple[str, ...]) -> str:
    """Hash of every file under ``names`` in ``root``: paths and bytes."""
    digest = hashlib.sha256()
    for name in names:
        top = root / name
        files = sorted(top.rglob("*")) if top.is_dir() else [top]
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def refusal(parent: Path, change: Path) -> str | None:
    """Why these two trees cannot be compared, or ``None``."""
    for tree in (parent, change):
        for name in ("src", "perfbench"):
            found = next((tree / name).rglob("__pycache__"), None)
            if found is not None:
                return f"{found} exists; remove it so neither side has a bytecode cache"
    benchmark = ("perfbench", "BENCHMARK.json")
    if tree_digest(parent, benchmark) != tree_digest(change, benchmark):
        return "perfbench/ or BENCHMARK.json differ between the two trees"
    return None


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero or printed no JSON line."""


def run_once(tree: Path, command: list[str], args: argparse.Namespace, seconds: float) -> dict:
    """One benchmark run in ``tree``; returns its last JSON line."""
    done = subprocess.run(
        [*command, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds)],
        cwd=tree,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(
            f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(lines[-1])


def report(runs: dict[str, list[dict]], benchmark: dict) -> list[str]:
    """One line per end-to-end metric, plus the failed cells per side."""
    def fmt(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    lines = [
        f"{'metric':<20} {'parent median [q1, q3]':<32} "
        f"{'change median [q1, q3]':<32} {'wins':>6}  verdict"
    ]
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {
            side: [run["metrics"][name]["value"] for run in side_runs]
            for side, side_runs in runs.items()
        }
        judged = verdict(
            values["parent"], values["change"], metric["better"], metric["bound"]
        )
        claim = "claimable, " if judged.claimable else ""
        lines.append(
            f"{name:<20} {fmt(judged.parent):<32} {fmt(judged.change):<32} "
            f"{judged.wins:>3}/{judged.pairs:<2}  {claim}{judged.bound}"
        )
    for side, side_runs in runs.items():
        failed = sum(run["failed"] for run in side_runs)
        attempted = sum(run["attempted"] for run in side_runs)
        lines.append(f"cells failed, {side}: {failed} of {attempted}")
    return lines


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent side: any git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        print(f"perf_ab: no workload {args.workload!r} in BENCHMARK.json", file=sys.stderr)
        return 2
    rev = subprocess.run(
        ["git", "rev-parse", "--short", args.rev],
        cwd=ROOT, capture_output=True, text=True,
    )
    if rev.returncode != 0:
        print(f"perf_ab: {rev.stderr.strip()}", file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    try:
        parent = scratch / "parent"
        parent.mkdir()
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev.stdout.strip()],
            cwd=ROOT, capture_output=True, check=True,
        )
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        why = refusal(parent, ROOT)
        if why is not None:
            print(f"perf_ab: refusing to run: {why}", file=sys.stderr)
            return 2
        trees = {"parent": parent, "change": ROOT}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        (ROOT / ".perfbench-run").mkdir(exist_ok=True)
        log = ROOT / ".perfbench-run" / f"ab-{args.workload}-seed{args.seed}.jsonl"
        print(
            f"perf_ab: {args.workload} seed {args.seed}, {args.pairs} pairs of "
            f"{benchmark['run_seconds']} s runs, {args.rev} ({rev.stdout.strip()}) "
            f"against the working tree; runs kept in {log.relative_to(ROOT)}",
            flush=True,
        )
        with log.open("w") as out:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(
                        trees[side], benchmark["command"], args, benchmark["run_seconds"]
                    )
                    runs[side].append(result)
                    out.write(json.dumps({"pair": pair, "side": side, "result": result}) + "\n")
                    out.flush()
                print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", flush=True)
        print("\n".join(report(runs, benchmark)))
    except RunFailed as exc:
        print(f"perf_ab: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
