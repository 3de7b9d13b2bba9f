"""Population-level QoE results for a fleet run.

A :class:`FleetResult` is the serialized outcome of one
:class:`~repro.fleet.topology.FleetConfig` cell. Unlike
:class:`~repro.pipeline.results.SessionResult` it does not keep
per-frame rows for every subscriber — a 500-session fleet would dwarf
the cache — it keeps compact per-subscriber rows plus pre-pooled
percentile aggregates. Everything in it is a JSON primitive, so
``to_dict``/``from_dict`` round-trip losslessly and ``to_json`` is
byte-stable across serial, parallel, cached, and sharded execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..floatsum import left_sum

#: Latency percentiles reported for every population slice.
QOE_PERCENTILES = (50.0, 95.0, 99.0)


def percentile_ms(latencies: list[float], q: float) -> float | None:
    if not latencies:
        return None
    return float(np.percentile(np.asarray(latencies, dtype=float), q))


def aggregate_rows(rows: list[dict], latencies: list[float]) -> dict:
    """Aggregate compact rows + pooled raw latencies into one slice."""
    slots = sum(row["slots"] for row in rows)
    displayed = sum(row["displayed"] for row in rows)
    ssim_num = left_sum(row["mean_ssim"] * row["displayed"] for row in rows)
    return {
        "sessions": len(rows),
        "slots": slots,
        "displayed": displayed,
        "freeze_ratio": (
            1.0 - displayed / slots if slots else 0.0
        ),
        "mean_ssim": (ssim_num / displayed if displayed else 0.0),
        "latency_ms": {
            f"p{int(q)}": percentile_ms(latencies, q)
            for q in QOE_PERCENTILES
        },
    }


@dataclass
class FleetResult:
    """Outcome of one fleet simulation.

    Attributes:
        seed / duration: echo of the config identity.
        regions: region names in config order.
        publishers / subscribers: session counts.
        population: fleet-wide QoE aggregate (see
            :func:`_aggregate` shape — sessions, slots, displayed,
            freeze_ratio, mean_ssim, latency_ms{p50,p95,p99}).
        per_region: region name -> the same aggregate shape, so a
            regional fault's blast radius is directly comparable.
        per_subscriber: compact per-session rows (id, region,
            publisher, join/leave, slots, displayed, freeze_ratio,
            mean_ssim, p50/p95/p99_ms, switches, plis).
        totals: fleet-wide control-plane counters (layer switches,
            probe lifecycle, PLIs, forwarded/dropped packets).
    """

    seed: int
    duration: float
    regions: list[str]
    publishers: int
    subscribers: int
    population: dict = field(default_factory=dict)
    per_region: dict = field(default_factory=dict)
    per_subscriber: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless, JSON-serializable representation."""
        return {
            "seed": self.seed,
            "duration": self.duration,
            "regions": list(self.regions),
            "publishers": self.publishers,
            "subscribers": self.subscribers,
            "population": self.population,
            "per_region": self.per_region,
            "per_subscriber": self.per_subscriber,
            "totals": self.totals,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> FleetResult:
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=payload["seed"],
            duration=payload["duration"],
            regions=list(payload["regions"]),
            publishers=payload["publishers"],
            subscribers=payload["subscribers"],
            population=payload["population"],
            per_region=payload["per_region"],
            per_subscriber=payload["per_subscriber"],
            totals=payload["totals"],
        )

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, fixed indent)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # ------------------------------------------------------------------
    def region_latency_ms(self, region: str, q: float = 95.0) -> float | None:
        """Convenience accessor for a region's pooled latency percentile."""
        slice_ = self.per_region.get(region)
        if slice_ is None:
            return None
        return slice_["latency_ms"].get(f"p{int(q)}")
