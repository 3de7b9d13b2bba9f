"""The benchmark's workloads: inputs made from the workload seed.

A workload is a list of seed groups of :class:`Cell` s. The program
only ever sees the configs built here; every random choice (the cells'
seeds) comes from the workload seed, so the same seed gives the same
inputs.

* ``table1`` — the paper's Table-1 grid through ``run_many`` and a
  fresh :class:`~repro.pipeline.parallel.ResultCache`.
* ``impaired`` — one drop scenario under every schedule of
  ``robustness.fault_suite()`` with NACK, FEC, playout, CoDel and iid
  loss on, run inline through ``RtcSession``.
* ``fleet`` — the fleet driver's default scenarios, run inline through
  ``FleetSession``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import numpy as np

from repro.experiments import fleet as fleet_exp
from repro.experiments import robustness, scenarios
from repro.experiments import table1 as table1_exp
from repro.fleet.sim import FleetSession
from repro.pipeline.config import PolicyName
from repro.pipeline.parallel import config_hash, run_many
from repro.pipeline.session import RtcSession
from repro.telemetry.recorder import NULL_TELEMETRY, Telemetry

#: iid channel loss on the impaired workload's bottleneck.
IMPAIRED_IID_LOSS = 0.01


@dataclass(frozen=True)
class Cell:
    """One unit of work: a config the program runs to one result.

    Attributes:
        key: the untraced config's hash, the cell's identity in spans.
        label: human-readable name for failure reports.
        config: the ``SessionConfig`` or ``FleetConfig`` to run.
        sim_seconds: simulated time the cell covers.
        propagation_s: shortest one-way propagation delay on the media
            path; no displayed frame can arrive faster.
    """

    key: str
    label: str
    config: object
    sim_seconds: float
    propagation_s: float


@dataclass(frozen=True)
class CallStats:
    """Simulated-call QoE over the frames a workload reports on."""

    p50_ms: float
    p99_ms: float
    freeze_pct: float
    ssim: float
    frames: int


def cell_seeds(seed: int, count: int) -> list[int]:
    """``count`` cell seeds drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _session_cell(label: str, config) -> Cell:
    return Cell(
        key=config_hash(config),
        label=label,
        config=config,
        sim_seconds=config.duration + config.grace_period,
        propagation_s=config.network.propagation_delay,
    )


class Workload:
    """Seed groups of cells, and how to run and score them.

    The workload seed draws :attr:`seed_groups` cell seeds; each gives
    one group of cells (one pass). The call metrics pool every group, so
    they vary little from one workload seed to the next. The defaults
    serve the single-session workloads; :class:`Fleet` overrides them.
    """

    name = ""
    #: Whether the cold pass itself reads and writes the result cache.
    via_cache = False
    seed_groups = 1
    #: Capture window of the frames the call metrics count.
    window = (float("-inf"), float("inf"))

    def __init__(self, seed: int) -> None:
        self.groups = [
            self.build_group(cell_seed)
            for cell_seed in cell_seeds(seed, self.seed_groups)
        ]

    @property
    def cells(self) -> list[Cell]:
        return [cell for group in self.groups for cell in group]

    def build_group(self, cell_seed: int) -> list[Cell]:
        raise NotImplementedError

    def config_for(self, cell: Cell, traced: bool):
        """The config a (traced) run of ``cell`` executes."""
        if traced:
            return dataclasses.replace(cell.config, enable_telemetry=True)
        return cell.config

    def run_cold(self, config, cache, traced: bool):
        """Run one config from scratch; returns ``(result, telemetry)``.

        ``telemetry`` is ``None`` for an untraced run.
        """
        result = RtcSession(config).run()
        return result, result.traces

    def faster_than_light(self, cell: Cell, result) -> str | None:
        """A displayed frame that beat the propagation delay, if any."""
        for frame in result.frames:
            if frame.display_time is None:
                continue
            latency = frame.display_time - frame.capture_time
            if latency < cell.propagation_s:
                return (
                    f"frame {frame.index} displayed {latency * 1e3:.3f} ms "
                    f"after capture, below the path's "
                    f"{cell.propagation_s * 1e3:g} ms propagation delay"
                )
        return None

    def call_sample(self, results: list) -> dict:
        """The adaptive policy's frames in :attr:`window`, compactly."""
        latencies: list[float] = []
        ssims: list[float] = []
        slots = 0
        lo, hi = self.window
        for result in results:
            if result.policy != PolicyName.ADAPTIVE.value:
                continue
            for frame in result.frames:
                if not lo <= frame.capture_time <= hi:
                    continue
                slots += 1
                if frame.display_time is not None:
                    latencies.append(
                        (frame.display_time - frame.capture_time) * 1000.0
                    )
                    ssims.append(frame.encoded_ssim)
        return {"lat": latencies, "ssim": ssims, "slots": slots}

    def call_stats(self, samples: list[dict]) -> CallStats:
        """QoE pooled over the groups' samples."""
        latencies = [x for sample in samples for x in sample["lat"]]
        ssims = [x for sample in samples for x in sample["ssim"]]
        slots = sum(sample["slots"] for sample in samples)
        p50, p99 = np.percentile(np.asarray(latencies), [50.0, 99.0])
        return CallStats(
            p50_ms=float(p50),
            p99_ms=float(p99),
            freeze_pct=100.0 * (slots - len(latencies)) / slots,
            ssim=float(np.mean(ssims)),
            frames=len(latencies),
        )

    def latency_reduction_pct(self, samples: list[dict]) -> float:
        """Adaptive vs webrtc mean latency (0 without that pair)."""
        return 0.0


class Table1(Workload):
    """The paper's Table-1 grid: drop ratios x {webrtc, adaptive}."""

    name = "table1"
    via_cache = True
    seed_groups = 8
    window = scenarios.DROP_WINDOW

    def build_group(self, cell_seed: int) -> list[Cell]:
        # Every group has the same layout, so any group's spans fit all.
        batch, self.spans = table1_exp.plan_batch(seeds=(cell_seed,))
        return [
            _session_cell(
                f"{scenarios.ratio_label(ratio)}/{c.policy.value}/seed{c.seed}",
                c,
            )
            for ratio, lo, hi in self.spans
            for c in batch[lo:hi]
        ]

    def run_cold(self, config, cache, traced: bool):
        result = run_many([config], workers=1, cache=cache)[0]
        return result, result.traces

    def call_sample(self, results: list) -> dict:
        sample = super().call_sample(results)
        if len(results) == sum(hi - lo for _, lo, hi in self.spans):
            sample["rows"] = [
                (row.baseline_latency, row.adaptive_latency)
                for row in table1_exp.rows_from_results(results, self.spans)
            ]
        return sample

    def latency_reduction_pct(self, samples: list[dict]) -> float:
        """Table 1's row math over every group's seed.

        A row's latencies are means over seeds, so averaging the
        one-seed rows of the groups gives the row over all of them.
        """
        if any("rows" not in sample for sample in samples):
            return 0.0
        reductions = []
        for ratio_rows in zip(*(sample["rows"] for sample in samples)):
            baseline = float(np.mean([b for b, _ in ratio_rows]))
            adaptive = float(np.mean([a for _, a in ratio_rows]))
            reductions.append((1.0 - adaptive / baseline) * 100.0)
        return float(np.mean(reductions))


class Impaired(Workload):
    """A 45% drop under each canonical fault schedule, every receiver
    and queue feature on."""

    name = "impaired"
    seed_groups = 7

    def build_group(self, cell_seed: int) -> list[Cell]:
        base = dataclasses.replace(
            scenarios.step_drop_config(0.45, seed=cell_seed),
            duration=robustness.DURATION,
            policy=PolicyName.ADAPTIVE,
            enable_nack=True,
            enable_fec=True,
            enable_playout=True,
        )
        base = dataclasses.replace(
            base,
            network=dataclasses.replace(
                base.network, aqm="codel", iid_loss=IMPAIRED_IID_LOSS
            ),
        )
        return [
            _session_cell(
                f"drop45/{name}/seed{cell_seed}",
                dataclasses.replace(base, faults=schedule),
            )
            for name, schedule in robustness.fault_suite().items()
        ]


class Fleet(Workload):
    """The fleet driver's default scenarios at its default size."""

    name = "fleet"
    seed_groups = 6

    def build_group(self, cell_seed: int) -> list[Cell]:
        configs = fleet_exp.plan_batch(
            fleet_exp.DEFAULT_SCENARIOS, seeds=(cell_seed,)
        )
        return [
            Cell(
                key=config_hash(config),
                label=f"{name}/seed{cell_seed}",
                config=config,
                sim_seconds=config.duration + config.grace_period,
                propagation_s=config.uplink_delay
                + min(region.downlink_delay for region in config.regions),
            )
            for name, config in zip(fleet_exp.DEFAULT_SCENARIOS, configs)
        ]

    def config_for(self, cell: Cell, traced: bool):
        return cell.config  # telemetry is a FleetSession argument

    def run_cold(self, config, cache, traced: bool):
        telemetry = Telemetry() if traced else NULL_TELEMETRY
        result = FleetSession(config, telemetry=telemetry).run()
        return result, telemetry if traced else None

    def faster_than_light(self, cell: Cell, result) -> str | None:
        """Latency percentiles below the shortest path's propagation.

        A ``FleetResult`` keeps percentiles, not per-frame latencies, so
        this checks every percentile it reports.
        """
        floor_ms = cell.propagation_s * 1e3
        slices = [("population", result.population)]
        slices += [(f"region {k}", v) for k, v in result.per_region.items()]
        for name, slice_ in slices:
            for q, value in slice_["latency_ms"].items():
                if value is not None and value < floor_ms:
                    return f"{name} {q} latency {value:.3f} ms < {floor_ms:g} ms"
        for row in result.per_subscriber:
            for q in ("p50_ms", "p95_ms", "p99_ms"):
                value = row[q]
                if value is not None and value < floor_ms:
                    return (
                        f"subscriber {row['id']} {q} {value:.3f} ms "
                        f"< {floor_ms:g} ms"
                    )
        return None

    def call_sample(self, results: list) -> dict:
        return {"cells": [r.population for r in results]}

    def call_stats(self, samples: list[dict]) -> CallStats:
        """Population QoE pooled over the cells.

        A ``FleetResult`` keeps each cell's pooled percentiles, not the
        raw latencies, so p50/p99 are the cells' population
        percentiles weighted by their displayed-frame counts.
        """
        cells = [pop for sample in samples for pop in sample["cells"]]
        frames = sum(pop["displayed"] for pop in cells)
        slots = sum(pop["slots"] for pop in cells)

        def weighted(value) -> float:
            return sum(value(pop) * pop["displayed"] for pop in cells) / frames

        return CallStats(
            p50_ms=weighted(lambda pop: pop["latency_ms"]["p50"]),
            p99_ms=weighted(lambda pop: pop["latency_ms"]["p99"]),
            freeze_pct=100.0 * (slots - frames) / slots,
            ssim=weighted(lambda pop: pop["mean_ssim"]),
            frames=frames,
        )


WORKLOADS = {cls.name: cls for cls in (Table1, Impaired, Fleet)}
