"""Table 1 (headline): latency reduction and SSIM change per severity.

Paper claim: latency reduced by 28.66%–78.87%, quality +0.8%–3%.
Run with ``pytest benchmarks/bench_table1.py --benchmark-only -s``.
"""

from __future__ import annotations

from repro.experiments import table1
from repro.experiments.scenarios import TABLE1_DROP_RATIOS
from repro.pipeline.parallel import run_many

from conftest import emit


def _run_table() -> list[table1.Table1Row]:
    batch, spans = table1.plan_batch()
    return table1.rows_from_results(run_many(batch), spans)


def test_table1_headline(benchmark, results_dir):
    rows = benchmark.pedantic(_run_table, rounds=1, iterations=1)
    text = table1.format_table(rows)
    emit(results_dir, "table1", text)

    # Reproduction gates: the shape of the paper's claim.
    reductions = [row.latency_reduction_pct for row in rows]
    assert len(rows) == len(TABLE1_DROP_RATIOS)
    # Adaptive always wins on latency, substantially at the severe end.
    assert all(r > 15 for r in reductions)
    assert max(reductions) > 70
    # Monotone (allowing the saturated top pair to tie within noise).
    assert reductions == sorted(reductions) or (
        sorted(reductions[:-1]) == reductions[:-1]
        and reductions[-1] > reductions[-3]
    )
    # Quality: never materially worse, clearly better when the baseline
    # starts dropping packets.
    ssim_changes = [row.ssim_change_pct for row in rows]
    assert all(change > -1.0 for change in ssim_changes)
    assert max(ssim_changes) > 0.8
