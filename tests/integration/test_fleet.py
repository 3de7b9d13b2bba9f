"""Fleet simulation end to end: determinism, blast radius, sharding.

These pin the acceptance contract of the multi-node topology: same
seed ⇒ byte-identical QoE report; a regional capacity fault moves the
tail only for subscribers behind the degraded link; and the fleet grid
shards/merges byte-identically to a single-host run.
"""

from __future__ import annotations

import dataclasses

from repro.experiments import artifacts
from repro.experiments import fleet as fleet_experiment
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.fleet import FleetSession, two_region_fleet
from repro.pipeline import shards
from repro.pipeline.parallel import ResultCache, run_many
from repro.pipeline.shards import build_plan

#: Tiny but non-trivial: 2 regions × 4 subscribers × 2 publishers.
_TINY = dict(
    subscribers_per_region=4, publishers_per_region=2, duration=6.0
)


def test_same_seed_same_fleet_bit_for_bit():
    first = FleetSession(two_region_fleet(**_TINY, seed=7)).run()
    second = FleetSession(two_region_fleet(**_TINY, seed=7)).run()
    third = FleetSession(two_region_fleet(**_TINY, seed=8)).run()
    assert first.to_json() == second.to_json()
    assert first.to_json() != third.to_json()
    assert first.subscribers == 8
    assert first.population["slots"] > 0


def test_shared_downlink_couples_sessions():
    # Tight downlink: the population cannot all hold the top layer, so
    # contention must force layer switches — the cross-session coupling
    # a set of independent single-session sims would never show.
    result = FleetSession(two_region_fleet(**_TINY, seed=3)).run()
    assert result.totals["layer_switches"] > 0
    assert result.totals["forwarded_packets"] > 0


def test_regional_degradation_moves_only_the_faulted_region():
    # Blast-radius contract. Subscribers watch publishers in *both*
    # regions (gid % n_pubs), so region b's keyframe requests reach
    # encoders whose streams region a also consumes — and b's request
    # cadence is fault-dependent (downswitch and probe-upgrade
    # keyframes move with the outage). Region a therefore sees a small
    # encode-quality ripple through the shared publishers, but its
    # *delivery* — every displayed frame, every freeze — must be
    # untouched, and its tail must stay in place while region b's
    # blows up.
    base = two_region_fleet(subscribers_per_region=10, duration=10.0, seed=1)
    low_rate = min(layer.target_bps for layer in base.layers)
    schedule = FaultSchedule.of(
        FaultSpec(
            kind=FaultKind.CAPACITY_OUTAGE,
            start=4.0,
            duration=3.0,
            # Below the all-low-layer aggregate (10 × lo): the fault
            # bites even after the population has downshifted.
            rate_bps=low_rate * 4.0,
        )
    )
    faulted = dataclasses.replace(
        base, faults=schedule, faulted_region="b"
    )
    clean_result = FleetSession(base).run()
    fault_result = FleetSession(faulted).run()
    clean_a = clean_result.per_region["a"]
    fault_a = fault_result.per_region["a"]
    # Region a's delivery is exactly unaffected by region b's fault.
    assert fault_a["sessions"] == clean_a["sessions"]
    assert fault_a["slots"] == clean_a["slots"]
    assert fault_a["displayed"] == clean_a["displayed"]
    assert fault_a["freeze_ratio"] == clean_a["freeze_ratio"]
    # The cross-region keyframe ripple is bounded: quality moves by
    # well under 1% and the tail stays within a quarter of itself...
    assert abs(fault_a["mean_ssim"] - clean_a["mean_ssim"]) < 0.005
    clean_a_p95 = clean_result.region_latency_ms("a")
    fault_a_p95 = fault_result.region_latency_ms("a")
    assert abs(fault_a_p95 - clean_a_p95) <= 0.25 * clean_a_p95
    # ...while region b's tail genuinely degrades (>1.5x here).
    assert fault_result.region_latency_ms("b") > 1.5 * (
        clean_result.region_latency_ms("b")
    )


def test_fleet_cells_round_trip_through_result_cache(tmp_path):
    config = two_region_fleet(**_TINY, seed=11)
    cache = ResultCache(tmp_path / "cache")
    [fresh] = run_many([config], workers=1, cache=cache)
    assert cache.get(config) is not None
    [cached] = run_many([config], workers=1, cache=cache)
    assert cached.to_json() == fresh.to_json()


def test_fleet_grid_shards_merge_byte_identical(tmp_path):
    params = {
        "scenarios": ["steady", "regional_degradation"],
        "seeds": [1, 2],
        "subscribers": 6,
        "duration": 5.0,
    }
    plan = build_plan("fleet", params, 3)
    assert len(plan.hashes) == 4
    for index in range(plan.shards):
        shards.run_shard(plan, index, tmp_path / "shards", workers=2)
    dirs = [
        shards.shard_dir(tmp_path / "shards", index)
        for index in range(plan.shards)
    ]
    cache, manifest, summary = shards.merge_shards(
        plan, dirs, tmp_path / "merged"
    )
    assert summary.ok == 4
    assert summary.quarantined == 0

    batch = fleet_experiment.plan_batch(
        ("steady", "regional_degradation"), (1, 2), 6, 5.0
    )
    payload = artifacts.payload_of(
        "fleet", params, batch, run_many(batch, workers=1, cache=None)
    )
    for fmt in ("table", "json", "csv"):
        reference = artifacts.render(payload, fmt)
        merged_text, quarantined = shards.render_merged(
            plan, cache, manifest, fmt
        )
        assert quarantined == 0
        assert merged_text == reference
