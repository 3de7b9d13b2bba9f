"""Shard-aware sweep fabric: plan once, execute anywhere, merge byte-stable.

The supervisor layer (:mod:`repro.pipeline.supervisor`) made one host's
batches resumable; this module makes a sweep *divisible across hosts*
with nothing but files and atomic renames as the coordination
substrate — the same shape as a chunked encode fleet: partition a job
list deterministically, let independent workers execute their chunks,
and fold the chunk outputs back together.

Three phases, each a CLI subcommand:

* **plan** — :func:`build_plan` expands a named grid (scenario × seed ×
  policy) into its deterministic config batch, hashes every cell, and
  stripes cells over ``K`` shards (cell ``i`` → shard ``i % K``). The
  resulting :class:`ShardPlan` is a pure function of the grid and
  ``K`` — the same inputs always serialize to byte-identical plan
  files, so every host can regenerate the plan locally instead of
  shipping it around.
* **run** — :func:`run_shard` executes one shard's cells through
  :func:`~repro.pipeline.parallel.run_many` under a supervisor plan,
  writing a per-shard
  :class:`~repro.pipeline.manifest.RunManifest` and
  :class:`~repro.pipeline.parallel.ResultCache` under
  ``<base>/shard-NNN/``. A killed shard resumes from its own manifest
  (``repro-rtc resume <shard>/manifest.json``); cells that failed every
  retry are quarantined, not fatal.
* **merge** — :func:`merge_shards` folds shard caches and manifests
  into one merged cache + manifest, and :func:`render_merged` renders
  the grid's report from them. The report is **byte-identical** to a
  single-host serial run of the same grid (enforced by the
  ``sweep-shards`` CI job), quarantined cells survive as
  ``FAILED(...)`` markers (the CLI exits ``EXIT_PARTIAL``), and the
  merged cache is a valid warm cache for any future run of those
  configs.

Merge order cannot matter: every cell is keyed by its config hash,
cache entries for the same hash are byte-identical wherever they were
produced, and candidate directories are processed in sorted order —
merging shards in any order yields byte-identical output (enforced by
``tests/unit/test_shards.py``).

On top of the three phases sits **crash survival**: every running
shard holds a *heartbeat lease* in its manifest (see
:meth:`~repro.pipeline.manifest.RunManifest.enable_lease`), and
:func:`run_shard` refuses a shard whose lease is still live, so two
processes never run one shard at once. A shard whose worker died is
finished by re-running its index — on any host once the lease has
expired, at once on the host that ran it — and the re-run serves every
cell that reached the shard's cache from there. ``shard status`` names
such shards; ``tools/shard_chaos.py`` and the ``shard-chaos`` CI job
prove that a SIGKILLed shard with a torn manifest, re-run this way,
still merges byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..errors import ConfigError
from ..floatsum import left_sum
from .config import PolicyName, SessionConfig
from .manifest import STATUSES, RunManifest, atomic_write, lease_state
from .parallel import ResultCache, config_hash, estimate_cost, run_many
from .supervisor import (
    FailedSession,
    SupervisorPlan,
    SupervisorPolicy,
    split_failures,
)

#: Plan file layout version. v2 added cost-weighted striping: explicit
#: per-cell shard assignments and cost estimates in the plan file.
PLAN_SCHEMA_VERSION = 2

#: On-disk name of shard ``i`` under a shard base directory.
SHARD_DIR_FORMAT = "shard-{index:03d}"

#: Recognized striping modes for :func:`build_plan`.
STRIPING_MODES = ("cost", "round-robin")


# ----------------------------------------------------------------------
# Grid registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridDef:
    """One grid: normalize params, enumerate, render.

    ``normalize`` fills a default for every param that is missing or
    ``None`` — it is the only place a grid's defaults live — and
    returns a canonical JSON-ready dict (the plan stores exactly this,
    so two plans of the same logical grid are byte-identical).
    ``normalize`` and ``build`` reject bad params with
    :class:`ConfigError`. ``build`` deterministically enumerates the
    session batch. ``render`` folds a full result list (in ``build``
    order, quarantined cells as :class:`FailedSession`) into the
    grid's report text.
    """

    normalize: Callable[[dict], dict]
    build: Callable[[dict], list[object]]
    render: Callable[[dict, list[object], str], str]
    formats: tuple[str, ...]


def _param(params: dict, key: str, default):
    """``params[key]``, or ``default`` when it is missing or ``None``.

    An explicit zero or empty list is a value, not "unset": it reaches
    the grid's checks instead of silently becoming the default.
    """
    value = params.get(key)
    return default if value is None else value


# The grid callables import the experiment drivers lazily: experiments
# import pipeline submodules, so a module-level import here would tie a
# knot through the package __init__s.
def _drop_normalize(
    kind: str, params: dict, default_seeds: tuple[int, ...]
) -> dict:
    """``normalize`` of the table1 and sweep grids: one batch, two
    default seed sets."""
    from ..experiments import scenarios

    ratios = [
        float(r)
        for r in _param(params, "ratios", scenarios.TABLE1_DROP_RATIOS)
    ]
    seeds = [int(s) for s in _param(params, "seeds", default_seeds)]
    baseline = PolicyName(
        _param(params, "baseline", PolicyName.WEBRTC.value)
    ).value
    if not ratios or not seeds:
        raise ConfigError(f"{kind} grid needs at least one ratio and seed")
    return {"baseline": baseline, "ratios": ratios, "seeds": seeds}


def _table1_normalize(params: dict) -> dict:
    from ..experiments import scenarios

    return _drop_normalize("table1", params, scenarios.TABLE1_SEEDS)


def _sweep_normalize(params: dict) -> dict:
    return _drop_normalize("sweep", params, (1, 2, 3))


def _table1_build(params: dict) -> list[SessionConfig]:
    from ..experiments import table1

    batch, _spans = table1.plan_batch(
        ratios=tuple(params["ratios"]),
        seeds=tuple(params["seeds"]),
        baseline=PolicyName(params["baseline"]),
    )
    return batch


def _table1_render(params: dict, results: list, fmt: str) -> str:
    from ..experiments import table1

    _batch, spans = table1.plan_batch(
        ratios=tuple(params["ratios"]),
        seeds=tuple(params["seeds"]),
        baseline=PolicyName(params["baseline"]),
    )
    return table1.render(table1.rows_from_results(results, spans), fmt)


def _compare_normalize(params: dict) -> dict:
    from ..experiments import comparison

    drop_ratio = float(_param(params, "drop_ratio", 0.2))
    seeds = [int(s) for s in _param(params, "seeds", (1, 2, 3))]
    policies = [
        PolicyName(p).value
        for p in _param(
            params, "policies", [p.value for p in comparison.ALL_POLICIES]
        )
    ]
    if not seeds or not policies:
        raise ConfigError("compare grid needs at least one seed and policy")
    return {
        "drop_ratio": drop_ratio,
        "policies": policies,
        "seeds": seeds,
    }


def _compare_build(params: dict) -> list[SessionConfig]:
    from ..experiments import comparison

    return comparison.plan_batch(
        drop_ratio=params["drop_ratio"],
        seeds=tuple(params["seeds"]),
        policies=tuple(PolicyName(p) for p in params["policies"]),
    )


def _compare_render(params: dict, results: list, fmt: str) -> str:
    from ..experiments import comparison

    rows = comparison.rows_from_results(
        results,
        seeds=tuple(params["seeds"]),
        policies=tuple(PolicyName(p) for p in params["policies"]),
    )
    title = comparison.comparison_title(params["drop_ratio"])
    return comparison.format_comparison(rows, title) + "\n"


def _fleet_normalize(params: dict) -> dict:
    # The scenario, seed, subscriber and duration checks live in
    # ``fleet.plan_batch``, which ``build`` calls next.
    from ..experiments import fleet

    return {
        "duration": float(_param(params, "duration", fleet.DURATION)),
        "scenarios": [
            str(name)
            for name in _param(params, "scenarios", fleet.DEFAULT_SCENARIOS)
        ],
        "seeds": [int(s) for s in _param(params, "seeds", (1,))],
        "subscribers": int(
            _param(params, "subscribers", fleet.SUBSCRIBERS)
        ),
    }


def _fleet_build(params: dict) -> list:
    from ..experiments import fleet

    return fleet.plan_batch(
        scenario_names=tuple(params["scenarios"]),
        seeds=tuple(params["seeds"]),
        subscribers=params["subscribers"],
        duration=params["duration"],
    )


def _fleet_render(params: dict, results: list, fmt: str) -> str:
    from ..experiments import fleet

    report = fleet.FleetReport(
        scenarios=tuple(params["scenarios"]),
        seeds=tuple(params["seeds"]),
        subscribers=params["subscribers"],
        duration=params["duration"],
        cells=fleet.rows_from_results(
            results,
            tuple(params["scenarios"]),
            tuple(params["seeds"]),
        ),
    )
    return fleet.render(report, fmt)


def _chaos_normalize(params: dict) -> dict:
    from ..experiments import robustness

    scenario_names = [
        str(name)
        for name in _param(
            params, "scenarios", robustness.DEFAULT_SCENARIOS
        )
    ]
    fault_names = [
        str(name)
        for name in _param(params, "faults", robustness.FAULT_NAMES)
    ]
    policies = [
        PolicyName(p).value
        for p in _param(
            params,
            "policies",
            [p.value for p in robustness.DEFAULT_POLICIES],
        )
    ]
    seeds = [int(s) for s in _param(params, "seeds", (1, 2))]
    duration = float(_param(params, "duration", robustness.DURATION))
    fault_at = float(_param(params, "fault_at", robustness.FAULT_AT))
    if not policies:
        raise ConfigError("chaos grid needs at least one policy")
    robustness.validate_grid(
        tuple(scenario_names),
        tuple(fault_names),
        tuple(seeds),
        duration,
        fault_at,
    )
    return {
        "duration": duration,
        "fault_at": fault_at,
        "faults": fault_names,
        "policies": policies,
        "scenarios": scenario_names,
        "seeds": seeds,
    }


def _chaos_build(params: dict) -> list[SessionConfig]:
    from ..experiments import robustness

    return robustness.plan_batch(
        scenario_names=tuple(params["scenarios"]),
        fault_names=tuple(params["faults"]),
        policies=tuple(PolicyName(p) for p in params["policies"]),
        seeds=tuple(params["seeds"]),
        duration=params["duration"],
        fault_at=params["fault_at"],
    )


def _chaos_render(params: dict, results: list, fmt: str) -> str:
    from ..experiments import robustness

    report = robustness.report_from_results(
        results,
        scenario_names=tuple(params["scenarios"]),
        fault_names=tuple(params["faults"]),
        policies=tuple(PolicyName(p) for p in params["policies"]),
        seeds=tuple(params["seeds"]),
        duration=params["duration"],
        fault_at=params["fault_at"],
    )
    return robustness.render(report, fmt)


def _sweep_render(params: dict, results: list, fmt: str) -> str:
    from . import sweeps

    rows = sweeps.rows_from_drop_sweep(
        results,
        ratios=tuple(params["ratios"]),
        seeds=tuple(params["seeds"]),
    )
    return sweeps.render_drop_sweep(rows, fmt)


#: Every grid by name. A subcommand (``repro-rtc table1`` and so on)
#: and a ``shard`` plan of the same grid both run its ``GridDef``:
#: :func:`run_grid` on one host, :func:`render_merged` after a merge.
#: The ``sweep`` grid runs Table 1's batch, one row per (ratio, seed).
GRIDS: dict[str, GridDef] = {
    "table1": GridDef(
        normalize=_table1_normalize,
        build=_table1_build,
        render=_table1_render,
        formats=("table", "json", "csv"),
    ),
    "compare": GridDef(
        normalize=_compare_normalize,
        build=_compare_build,
        render=_compare_render,
        formats=("table",),
    ),
    "fleet": GridDef(
        normalize=_fleet_normalize,
        build=_fleet_build,
        render=_fleet_render,
        formats=("table", "json", "csv"),
    ),
    "chaos": GridDef(
        normalize=_chaos_normalize,
        build=_chaos_build,
        render=_chaos_render,
        formats=("table", "json", "csv"),
    ),
    "sweep": GridDef(
        normalize=_sweep_normalize,
        build=_table1_build,
        render=_sweep_render,
        formats=("table", "json", "csv"),
    ),
}


def grid_def(kind: str) -> GridDef:
    """Look up a grid by name.

    Raises:
        ConfigError: for an unknown grid kind.
    """
    try:
        return GRIDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown grid {kind!r} (available: {', '.join(sorted(GRIDS))})"
        ) from None


def _renderer(kind: str, fmt: str) -> GridDef:
    """The grid's definition, once it is known to render ``fmt``.

    Raises:
        ConfigError: an unknown grid, or a format it cannot render.
    """
    definition = grid_def(kind)
    if fmt not in definition.formats:
        raise ConfigError(
            f"grid {kind!r} cannot render {fmt!r} "
            f"(formats: {', '.join(definition.formats)})"
        )
    return definition


def _render(
    definition: GridDef, params: dict, results: list[object], fmt: str
) -> tuple[str, int]:
    """A grid's report text and its quarantined-cell count."""
    _ok, failures = split_failures(results)
    return definition.render(params, results, fmt), len(failures)


def run_grid(kind: str, params: dict | None, fmt: str) -> tuple[str, int]:
    """Run one grid on this host and render its report.

    Normalizes ``params``, builds the batch, runs it through
    :func:`~repro.pipeline.parallel.run_many` under the configured
    workers, cache and supervision plan, and renders it exactly as
    :func:`render_merged` renders a merged plan of the same grid.
    Returns the report text and the quarantined-cell count (``> 0``
    only under a supervision plan).

    Raises:
        ConfigError: unknown grid or format, or bad params.
    """
    definition = _renderer(kind, fmt)
    canonical = definition.normalize(dict(params or {}))
    results = run_many(definition.build(canonical))
    return _render(definition, canonical, results, fmt)


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of one grid into ``shards`` shards.

    ``hashes`` holds every cell's config hash in grid-enumeration
    order. ``assignments`` records the shard each cell belongs to —
    computed once at plan time (cost-weighted by default, see
    :func:`build_plan`) and stored in the plan file, so every host and
    every merge sees the identical partition regardless of which
    striping policy produced it. When ``assignments`` is empty (a plan
    constructed by hand) cells fall back to round-robin
    (``i % shards``). ``plan_id`` fingerprints the whole partition, so
    hosts can verify they are executing the same plan.
    """

    kind: str
    params: dict
    shards: int
    hashes: tuple[str, ...]
    costs: tuple[float, ...] = ()
    assignments: tuple[int, ...] = ()
    striping: str = "round-robin"

    @property
    def plan_id(self) -> str:
        """Stable fingerprint of (grid, K, striping, cell → shard)."""
        payload = json.dumps(
            {
                "schema": PLAN_SCHEMA_VERSION,
                "grid": {"kind": self.kind, "params": self.params},
                "shards": self.shards,
                "striping": self.striping,
                "cells": [
                    {
                        "cost": self.cost_of(index),
                        "hash": digest,
                        "shard": self.shard_of(index),
                    }
                    for index, digest in enumerate(self.hashes)
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    # ------------------------------------------------------------------
    def shard_of(self, cell_index: int) -> int:
        """The shard a cell is assigned to."""
        if self.assignments:
            return self.assignments[cell_index]
        return cell_index % self.shards

    def cost_of(self, cell_index: int) -> float:
        """The cell's recorded cost estimate (1.0 when unrecorded)."""
        if self.costs:
            return self.costs[cell_index]
        return 1.0

    def cell_indices(self, shard_index: int) -> list[int]:
        """Global cell indices belonging to one shard (in grid order)."""
        if not 0 <= shard_index < self.shards:
            raise ConfigError(
                f"shard index {shard_index} out of range "
                f"(plan has {self.shards} shards)"
            )
        return [
            index
            for index in range(len(self.hashes))
            if self.shard_of(index) == shard_index
        ]

    def shard_cost(self, shard_index: int) -> float:
        """Total estimated cost assigned to one shard."""
        return left_sum(
            self.cost_of(index)
            for index in self.cell_indices(shard_index)
        )

    def configs(self) -> list[object]:
        """Re-expand the grid and verify it still matches the plan.

        Raises:
            ConfigError: when the expansion hashes differently — the
                plan was built by a different code or cache-schema
                version, and executing it would corrupt the merge.
        """
        batch = grid_def(self.kind).build(self.params)
        hashes = tuple(config_hash(config) for config in batch)
        if hashes != self.hashes:
            raise ConfigError(
                f"plan {self.plan_id} does not match this build: the "
                f"{self.kind} grid expands to different config hashes "
                "(was the plan created by a different code version?)"
            )
        return batch

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload (pure function of the plan's identity)."""
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "plan_id": self.plan_id,
            "grid": {"kind": self.kind, "params": self.params},
            "shards": self.shards,
            "striping": self.striping,
            "cells": [
                {
                    "cost": self.cost_of(index),
                    "hash": digest,
                    "shard": self.shard_of(index),
                }
                for index, digest in enumerate(self.hashes)
            ],
        }

    def save(self, path: Path | str) -> None:
        """Atomically write the plan (byte-stable: sorted keys, no
        timestamps — identical plans are identical files)."""
        atomic_write(
            Path(path),
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            prefix=".plan-",
        )

    @classmethod
    def load(cls, path: Path | str) -> "ShardPlan":
        """Load and integrity-check a plan file.

        Raises:
            ConfigError: unreadable file, wrong schema, or a recorded
                ``plan_id`` that no longer matches the content.
        """
        source = Path(path)
        try:
            data = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot load shard plan {source}: {exc}"
            ) from exc
        if data.get("schema") != PLAN_SCHEMA_VERSION:
            raise ConfigError(
                f"shard plan {source} has schema {data.get('schema')!r}, "
                f"expected {PLAN_SCHEMA_VERSION}"
            )
        grid = data.get("grid") or {}
        try:
            plan = cls(
                kind=grid["kind"],
                params=dict(grid["params"]),
                shards=int(data["shards"]),
                hashes=tuple(cell["hash"] for cell in data["cells"]),
                costs=tuple(
                    float(cell["cost"]) for cell in data["cells"]
                ),
                assignments=tuple(
                    int(cell["shard"]) for cell in data["cells"]
                ),
                striping=str(data["striping"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(
                f"shard plan {source} is malformed: {exc!r}"
            ) from exc
        if data.get("plan_id") != plan.plan_id:
            raise ConfigError(
                f"shard plan {source} failed its integrity check "
                f"(recorded id {data.get('plan_id')!r}, content hashes "
                f"to {plan.plan_id!r})"
            )
        return plan


def _stripe_by_cost(
    hashes: tuple[str, ...],
    costs: tuple[float, ...],
    shards: int,
) -> tuple[int, ...]:
    """LPT greedy: heaviest cells first, each onto the lightest shard.

    Deterministic end to end: cells are ordered by (descending cost,
    hash, index) and load ties break to the lowest shard index, so the
    same grid always stripes identically on every host. With
    ``len(hashes) >= shards`` and strictly positive costs every shard
    receives at least one cell (empty shards stay lightest until
    seeded).
    """
    order = sorted(
        range(len(hashes)),
        key=lambda i: (-costs[i], hashes[i], i),
    )
    loads = [0.0] * shards
    assignments = [0] * len(hashes)
    for index in order:
        target = min(range(shards), key=lambda s: (loads[s], s))
        assignments[index] = target
        loads[target] += costs[index]
    return tuple(assignments)


def build_plan(
    kind: str,
    params: dict | None,
    shards: int,
    striping: str = "cost",
) -> ShardPlan:
    """Partition a grid into ``shards`` deterministic shards.

    ``striping`` picks the cell → shard policy:

    * ``cost`` (default) — LPT greedy over per-cell cost estimates
      (:func:`~repro.pipeline.parallel.estimate_cost`: roughly
      simulated seconds × population × fault windows), so one
      500-subscriber fleet cell does not land next to another while a
      third shard idles;
    * ``round-robin`` — cell ``i`` → shard ``i % shards`` (the v1
      behavior; fine when cells are near-uniform).

    Either way the assignment is recorded in the plan file, so
    execution and merge never re-derive it.

    Raises:
        ConfigError: unknown grid, bad params, unknown striping, or
            ``shards < 1``.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards!r}")
    if striping not in STRIPING_MODES:
        raise ConfigError(
            f"unknown striping {striping!r} "
            f"(available: {', '.join(STRIPING_MODES)})"
        )
    definition = grid_def(kind)
    canonical = definition.normalize(dict(params or {}))
    batch = definition.build(canonical)
    if shards > len(batch):
        raise ConfigError(
            f"cannot split {len(batch)} cells into {shards} shards "
            "(each shard needs at least one cell)"
        )
    hashes = tuple(config_hash(config) for config in batch)
    costs = tuple(estimate_cost(config) for config in batch)
    if striping == "round-robin":
        assignments = tuple(i % shards for i in range(len(batch)))
    else:
        assignments = _stripe_by_cost(hashes, costs, shards)
    return ShardPlan(
        kind=kind,
        params=canonical,
        shards=shards,
        hashes=hashes,
        costs=costs,
        assignments=assignments,
        striping=striping,
    )


# ----------------------------------------------------------------------
# Executing one shard
# ----------------------------------------------------------------------
def shard_dir(base: Path | str, index: int) -> Path:
    """``<base>/shard-NNN`` — one shard's manifest + cache home."""
    return Path(base) / SHARD_DIR_FORMAT.format(index=index)


def run_shard(
    plan: ShardPlan,
    index: int,
    base_dir: Path | str,
    workers: int = 1,
    policy: SupervisorPolicy | None = None,
    argv: list[str] | None = None,
    manifest_path: Path | str | None = None,
) -> tuple[list[object], SupervisorPlan]:
    """Execute one shard through ``run_many`` under a supervisor plan.

    Writes ``<base>/shard-NNN/manifest.json`` and fills
    ``<base>/shard-NNN/cache/``. Re-invoking on an existing shard
    directory *resumes*: the manifest's finished cells are served from
    the shard cache and only unfinished cells execute — which is
    exactly what ``repro-rtc resume <shard>/manifest.json`` replays
    after a crash or SIGKILL.

    While running, the manifest carries a heartbeat lease of
    :data:`~repro.pipeline.manifest.DEFAULT_LEASE_TTL` seconds, renewed
    at least every third of it. A shard whose manifest still holds a
    live lease (see :func:`~repro.pipeline.manifest.lease_state`) is
    refused, so two processes never run one shard at once.

    Returns the shard's results (grid order within the shard;
    quarantined cells as :class:`FailedSession`) and the supervisor
    plan, whose stats drive the CLI's exit code.

    Raises:
        ConfigError: an index outside the plan, a plan this build
            expands differently, or a manifest leased by a live
            process.
    """
    configs = plan.configs()
    batch = [configs[i] for i in plan.cell_indices(index)]
    directory = shard_dir(base_dir, index)
    manifest_path = (
        Path(manifest_path)
        if manifest_path is not None
        else directory / "manifest.json"
    )
    if manifest_path.is_file():
        held, _problems = RunManifest.load_tolerant(manifest_path)
        lease = held.lease
        if lease_state(lease) == "live":
            raise ConfigError(
                f"shard {index} is still running: {manifest_path} is "
                f"leased by host {lease.get('host')!r}, pid "
                f"{lease.get('pid')}, renewed "
                f"{time.time() - float(lease['renewed']):.1f} s ago; "
                "re-run it once that process exits or its "
                f"{float(lease['ttl']):g} s lease expires"
            )
    cache = ResultCache(directory / "cache")
    cache.ensure_writable()
    policy = policy if policy is not None else SupervisorPolicy()
    policy.validate()
    manifest = RunManifest.create(
        manifest_path,
        argv=argv,
        command="shard",
        workers=max(1, workers),
        session_timeout=policy.session_timeout,
        max_retries=policy.max_retries,
    )
    manifest.enable_lease()
    manifest.save(force=True)
    supervisor_plan = SupervisorPlan(policy=policy, manifest=manifest)
    results = run_many(
        batch, workers=max(1, workers), cache=cache, plan=supervisor_plan
    )
    return results, supervisor_plan


# ----------------------------------------------------------------------
# Merging shards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergeSummary:
    """What one merge folded together."""

    cells: int
    ok: int
    quarantined: int
    shards_seen: int


def _copy_entry(source: Path, dest: Path) -> None:
    """Copy one cache entry byte-for-byte via temp file + rename."""
    atomic_write(dest, source.read_bytes(), prefix=".merge-")


def merge_shards(
    plan: ShardPlan,
    shard_dirs: Sequence[Path | str],
    merged_dir: Path | str,
) -> tuple[ResultCache, RunManifest, MergeSummary]:
    """Fold shard caches + manifests into one merged cache + manifest.

    Candidate directories are processed in sorted order, and every
    plan cell lives in exactly one shard, so the outcome is independent
    of the order (or grouping) the shards are presented in.

    Per cell: a cache entry anywhere → the cell is ``ok`` and its
    entry is copied byte-for-byte into the merged cache; otherwise a
    ``quarantined`` manifest record survives the merge as-is; a cell
    with neither is *incomplete* and the merge refuses — run or resume
    the shard it names first.

    Raises:
        ConfigError: no shard data found, or incomplete cells remain.
    """
    ordered = sorted({str(Path(d)) for d in shard_dirs})
    manifests: list[RunManifest] = []
    cache_roots: list[Path] = []
    for name in ordered:
        directory = Path(name)
        manifest_file = directory / "manifest.json"
        if manifest_file.is_file():
            # Tolerant: a victim whose manifest was torn mid-write must
            # not block the merge — its finished cells live in its
            # cache, and anything truly lost shows up as an incomplete
            # cell below with a clear remedy.
            manifest, problems = RunManifest.load_tolerant(manifest_file)
            for problem in problems:
                warnings.warn(
                    f"merging past a damaged manifest: {problem}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            manifests.append(manifest)
        cache_root = directory / "cache"
        if cache_root.is_dir():
            cache_roots.append(cache_root)
    if not manifests and not cache_roots:
        raise ConfigError(
            "no shard manifests or caches found under: "
            + ", ".join(ordered)
        )

    records_by_hash: dict[str, dict] = {}
    for manifest in manifests:
        for digest, record in manifest.records.items():
            known = records_by_hash.get(digest)
            # First manifest (sorted order) wins unless a later one is
            # strictly more final: ok beats everything, quarantined
            # beats pending/running.
            rank = {"ok": 2, "quarantined": 1}
            if known is None or rank.get(record["status"], 0) > rank.get(
                known["status"], 0
            ):
                records_by_hash[digest] = record

    target = Path(merged_dir)
    merged_cache = ResultCache(target / "cache")
    merged_cache.ensure_writable()

    ok = 0
    quarantined = 0
    incomplete: list[tuple[int, str]] = []
    merged_records: dict[str, dict] = {}
    for cell_index, digest in enumerate(plan.hashes):
        entry_name = f"{digest}.json"
        source = next(
            (
                root / entry_name
                for root in cache_roots
                if (root / entry_name).is_file()
            ),
            None,
        )
        record = records_by_hash.get(digest)
        if source is not None:
            dest = merged_cache.path_for_hash(digest)
            if not dest.is_file():
                _copy_entry(source, dest)
            merged = dict(record) if record is not None else {
                "status": "ok",
                "attempts": 0,
                "wall_s": None,
                "error_class": None,
                "error": None,
                "cached": False,
                "config": None,
            }
            merged["status"] = "ok"
            merged_records[digest] = merged
            ok += 1
        elif record is not None and record["status"] == "quarantined":
            merged_records[digest] = dict(record)
            quarantined += 1
        else:
            incomplete.append((cell_index, digest))

    if incomplete:
        shards_needed = sorted(
            {plan.shard_of(index) for index, _digest in incomplete}
        )
        raise ConfigError(
            f"{len(incomplete)} of {len(plan.hashes)} cells have no "
            f"result yet; run or resume shard(s) "
            f"{', '.join(str(s) for s in shards_needed)} before merging"
        )

    manifest = RunManifest(
        target / "manifest.json",
        run_id=f"{plan.plan_id}-merged",
        argv=[],
        command="shard-merge",
        workers=max([1] + [m.workers for m in manifests]),
    )
    manifest.records = merged_records
    manifest.finish(
        "partial" if quarantined else "complete",
        {
            "cells": len(plan.hashes),
            "ok": ok,
            "quarantined": quarantined,
            "shards": len(ordered),
        },
    )
    summary = MergeSummary(
        cells=len(plan.hashes),
        ok=ok,
        quarantined=quarantined,
        shards_seen=len(ordered),
    )
    return merged_cache, manifest, summary


def render_merged(
    plan: ShardPlan,
    cache: ResultCache,
    manifest: RunManifest,
    fmt: str,
) -> tuple[str, int]:
    """Render the grid's report from a merged cache + manifest.

    Every cell is either served by the merged cache (bit-identical to
    a fresh run — the cache round trip is lossless by contract) or
    reconstructed as a :class:`FailedSession` from its quarantined
    record, then rendered exactly as :func:`run_grid` renders a
    single-host run of the grid. Returns the report text and the
    quarantined-cell count (``> 0`` ⇒ the CLI exits ``EXIT_PARTIAL``).

    Raises:
        ConfigError: a cell has neither a cache entry nor a
            quarantined record (torn merge directory).
    """
    definition = _renderer(plan.kind, fmt)
    configs = plan.configs()
    results: list[object] = []
    for config, digest in zip(configs, plan.hashes):
        hit = cache.get(config)
        if hit is not None:
            results.append(hit)
            continue
        record = manifest.records.get(digest)
        if record is not None and record["status"] == "quarantined":
            results.append(FailedSession.from_record(digest, record))
            continue
        raise ConfigError(
            f"merged cache is missing cell {digest[:12]} and its "
            "manifest record is not quarantined — re-run the merge"
        )
    return _render(definition, plan.params, results, fmt)


# ----------------------------------------------------------------------
# Fleet-wide progress
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardStatus:
    """Progress of one shard, read from its on-disk manifest.

    ``counts`` always carries every manifest status key
    (pending/running/ok/quarantined) over the shard's *assigned* cells;
    cells its manifest has not recorded yet — including the whole shard
    when ``started`` is false — count as ``pending``. ``lease`` is the
    shard's own heartbeat-lease state (``none``/``live``/``expired``)
    and ``problems`` lists damage found while reading its manifest
    tolerantly.
    """

    index: int
    cells: int
    started: bool
    counts: dict[str, int]
    lease: str = "none"
    problems: tuple[str, ...] = ()

    def done(self) -> int:
        """Cells with a terminal status (ok or quarantined)."""
        return self.counts["ok"] + self.counts["quarantined"]


def shard_status(
    plan: ShardPlan,
    base_dir: Path | str,
    strict: bool = False,
    now: float | None = None,
) -> list[ShardStatus]:
    """Per-shard progress of a plan under one shard base directory.

    Purely observational: reads each ``shard-NNN/manifest.json`` that
    exists and never writes, so it is safe to run while shards are
    executing elsewhere. A cell whose entry is in its shard's cache is
    ``ok`` (the rule :func:`merge_shards` applies), however far the
    manifest has got; the others are counted from the shard's own
    manifest. Records for cells the plan gives to another shard, or
    not to this plan at all (a foreign run sharing the directory), are
    ignored.

    Manifests are read tolerantly by default: a file truncated at any
    byte offset — a SIGKILLed writer on a non-atomic filesystem —
    reports its unrecoverable cells as ``pending`` (the safe answer:
    unfinished work is re-runnable, finished work still cache-serves)
    with the damage noted in ``problems``. ``strict=True`` restores
    the old raise-on-corruption behavior.

    Raises:
        ConfigError: only with ``strict=True``, on a corrupt manifest.
    """
    if now is None:
        now = time.time()
    statuses: list[ShardStatus] = []
    for index in range(plan.shards):
        cells = plan.cell_indices(index)
        directory = shard_dir(base_dir, index)
        manifest_file = directory / "manifest.json"
        cache = ResultCache(directory / "cache")
        started = manifest_file.is_file()
        records: dict[str, dict] = {}
        lease = "none"
        problems: tuple[str, ...] = ()
        if started:
            if strict:
                manifest = RunManifest.load(manifest_file)
            else:
                manifest, notes = RunManifest.load_tolerant(manifest_file)
                problems = tuple(notes)
            records = manifest.records
            lease = lease_state(manifest.lease, now=now)
        counts = {status: 0 for status in STATUSES}
        for cell in cells:
            digest = plan.hashes[cell]
            if cache.path_for_hash(digest).is_file():
                counts["ok"] += 1
                continue
            record = records.get(digest)
            counts[record["status"] if record else "pending"] += 1
        statuses.append(
            ShardStatus(
                index=index,
                cells=len(cells),
                started=started,
                counts=counts,
                lease=lease,
                problems=problems,
            )
        )
    return statuses
