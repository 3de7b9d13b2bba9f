"""The perfbench A/B tool: its verdicts on canned runs, and its refusals."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_perf_ab():
    spec = importlib.util.spec_from_file_location(
        "perf_ab", REPO_ROOT / "tools" / "perf_ab.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while building the class.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


perf_ab = _load_perf_ab()

#: Ten parent runs: median 275.5, quartiles 272.25 and 277.75.
PARENT = [270.0, 271.0, 272.0, 273.0, 275.0, 276.0, 277.0, 278.0, 279.0, 280.0]


def test_quartiles_interpolate_between_runs():
    assert perf_ab.quartiles(PARENT) == (272.25, 275.5, 277.75)
    assert perf_ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_ten_wins_and_a_gap_wider_than_the_spread_are_claimable():
    change = [v * 1.035 for v in PARENT]
    judged = perf_ab.verdict(PARENT, change, "higher", 0.25)
    assert judged.wins == 10 and judged.pairs == 10
    assert judged.claimable
    assert judged.bound == "within bound"


def test_nine_of_ten_wins_are_enough_and_eight_are_not():
    change = [v + 10.0 for v in PARENT]
    change[0] = PARENT[0]  # a tie counts for neither side
    assert perf_ab.verdict(PARENT, change, "higher", 0.25).wins == 9
    assert perf_ab.verdict(PARENT, change, "higher", 0.25).claimable
    change[1] = PARENT[1] - 1.0
    judged = perf_ab.verdict(PARENT, change, "higher", 0.25)
    assert judged.wins == 8
    assert not judged.claimable


def test_a_gap_inside_the_parents_spread_is_not_claimable():
    # Every pair won, but the medians differ by 5 < 5.5 (q3 - q1).
    judged = perf_ab.verdict(PARENT, [v + 5.0 for v in PARENT], "higher", 0.25)
    assert judged.wins == 10
    assert not judged.claimable


def test_fewer_than_ten_pairs_never_claim():
    judged = perf_ab.verdict(PARENT[:9], [v * 2 for v in PARENT[:9]], "higher", 0.25)
    assert judged.wins == 9
    assert not judged.claimable


def test_lower_is_better_metrics_win_by_falling():
    rss = [58.0, 58.5, 59.0, 58.2, 58.8, 58.4, 58.6, 58.1, 58.9, 58.3]
    judged = perf_ab.verdict(rss, [v * 0.9 for v in rss], "lower", 0.15)
    assert judged.wins == 10 and judged.claimable
    grown = perf_ab.verdict(rss, [v * 1.03 for v in rss], "lower", 0.15)
    assert grown.wins == 0
    assert grown.bound == "within bound"
    assert perf_ab.verdict(rss, [v * 1.2 for v in rss], "lower", 0.15).bound == (
        "worse than bound"
    )


def test_a_spread_wider_than_the_bound_is_unresolved():
    # Quartiles 72.5 and 127.5 around a median of 100: a 55% spread.
    noisy = [100.0, 50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 100.0]
    assert perf_ab.verdict(noisy, noisy, "higher", 0.25).bound == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    better = perf_ab.verdict(noisy, [v + 101.0 for v in noisy], "higher", 0.25)
    assert better.bound == "within bound"


def test_identical_runs_are_within_bound_and_win_nothing():
    zeros = [0.0] * 10
    judged = perf_ab.verdict(zeros, zeros, "lower", 0.25)
    assert (judged.wins, judged.claimable, judged.bound) == (0, False, "within bound")


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        perf_ab.verdict(PARENT, PARENT[:9], "higher", 0.25)


def _tree(root: Path, bench: str = "print()\n") -> Path:
    (root / "src" / "repro").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(bench)
    (root / "BENCHMARK.json").write_text("{}")
    return root


def test_refuses_a_bytecode_cache_on_either_side(tmp_path):
    parent, change = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert perf_ab.refusal(parent, change) is None
    cache = change / "src" / "repro" / "__pycache__"
    cache.mkdir()
    assert "__pycache__" in perf_ab.refusal(parent, change)
    assert cache.is_dir()  # reported, not deleted


def test_refuses_a_different_benchmark(tmp_path):
    parent = _tree(tmp_path / "a")
    change = _tree(tmp_path / "b", bench="print(1)\n")
    assert "differ" in perf_ab.refusal(parent, change)
    change = _tree(tmp_path / "c")
    (change / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    assert "differ" in perf_ab.refusal(parent, change)
