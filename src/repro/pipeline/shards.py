"""Shard-aware sweep fabric: plan once, execute anywhere, merge byte-stable.

The supervisor layer (:mod:`repro.pipeline.supervisor`) made one host's
batches resumable; this module makes a sweep *divisible across hosts*
with nothing but files and atomic renames as the coordination
substrate — the same shape as a chunked encode fleet: partition a job
list deterministically, let independent workers execute their chunks,
and fold the chunk outputs back together.

Three phases, each a CLI subcommand:

* **plan** — :func:`build_plan` plans the batch of one
  :data:`~repro.experiments.ARTIFACTS` entry (its *grid*), hashes
  every cell, and stripes cells over ``K`` shards by their cost. The
  resulting :class:`ShardPlan` is a pure function of the entry, its
  params and ``K`` — the same inputs always serialize to
  byte-identical plan files, so every host can regenerate the plan
  locally instead of shipping it around.
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
  the artifact's report from them. The report is **byte-identical** to
  a single-host serial run of the same artifact (enforced by the
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
from typing import Sequence

from ..errors import ConfigError
from ..floatsum import left_sum
from .manifest import STATUSES, RunManifest, atomic_write, lease_state
from .parallel import ResultCache, config_hash, estimate_cost, run_many
from .supervisor import (
    FailedSession,
    SupervisorPlan,
    SupervisorPolicy,
    split_failures,
)

#: Plan file layout version. v2 added cost-weighted striping: explicit
#: per-cell shard assignments and cost estimates in the plan file. v3
#: names a :data:`~repro.experiments.ARTIFACTS` entry as the grid and
#: drops the ``striping`` field: every plan stripes by cost.
PLAN_SCHEMA_VERSION = 3

#: On-disk name of shard ``i`` under a shard base directory.
SHARD_DIR_FORMAT = "shard-{index:03d}"


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of one artifact's batch into ``shards``.

    ``kind`` names the :data:`~repro.experiments.ARTIFACTS` entry and
    ``params`` its resolved params. ``hashes`` holds every cell's
    config hash in batch order, ``costs`` its cost estimate, and
    ``assignments`` the shard it belongs to — computed once at plan
    time (see :func:`build_plan`) and stored in the plan file, so every
    host and every merge sees the identical partition. ``plan_id``
    fingerprints the whole partition, so hosts can verify they are
    executing the same plan.
    """

    kind: str
    params: dict
    shards: int
    hashes: tuple[str, ...]
    costs: tuple[float, ...]
    assignments: tuple[int, ...]

    def _cells(self) -> list[dict]:
        return [
            {"cost": cost, "hash": digest, "shard": shard}
            for digest, cost, shard in zip(
                self.hashes, self.costs, self.assignments
            )
        ]

    @property
    def plan_id(self) -> str:
        """Stable fingerprint of (artifact, params, K, cell → shard)."""
        payload = json.dumps(
            {
                "schema": PLAN_SCHEMA_VERSION,
                "grid": {"kind": self.kind, "params": self.params},
                "shards": self.shards,
                "cells": self._cells(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    # ------------------------------------------------------------------
    def cell_indices(self, shard_index: int) -> list[int]:
        """Global cell indices belonging to one shard (in grid order)."""
        if not 0 <= shard_index < self.shards:
            raise ConfigError(
                f"shard index {shard_index} out of range "
                f"(plan has {self.shards} shards)"
            )
        return [
            index
            for index, shard in enumerate(self.assignments)
            if shard == shard_index
        ]

    def shard_cost(self, shard_index: int) -> float:
        """Total estimated cost assigned to one shard."""
        return left_sum(
            self.costs[index] for index in self.cell_indices(shard_index)
        )

    def configs(self) -> list[object]:
        """Re-plan the batch and verify it still matches the plan.

        Raises:
            ConfigError: an artifact or param this build does not know,
                or a batch that hashes differently — the plan was built
                by a different code or cache-schema version, and
                executing it would corrupt the merge.
        """
        from ..experiments import artifacts

        params = artifacts.resolve(self.kind, self.params)
        batch = artifacts.ARTIFACTS[self.kind].plan(**params)
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
            "cells": self._cells(),
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


def build_plan(kind: str, params: dict | None, shards: int) -> ShardPlan:
    """Partition an artifact's batch into ``shards`` deterministic shards.

    Cells are striped by LPT greedy over their cost estimates
    (:func:`~repro.pipeline.parallel.estimate_cost`: roughly simulated
    seconds × population × fault windows), so one 500-subscriber fleet
    cell does not land next to another while a third shard idles. The
    assignment is recorded in the plan file, so execution and merge
    never re-derive it.

    Raises:
        ConfigError: an unknown artifact, bad params, or ``shards`` below
            1 or above the cell count.
    """
    from ..experiments import artifacts

    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards!r}")
    resolved = artifacts.resolve(kind, params)
    batch = artifacts.ARTIFACTS[kind].plan(**resolved)
    if shards > len(batch):
        raise ConfigError(
            f"cannot split {len(batch)} cells into {shards} shards "
            "(each shard needs at least one cell)"
        )
    hashes = tuple(config_hash(config) for config in batch)
    costs = tuple(estimate_cost(config) for config in batch)
    return ShardPlan(
        kind=kind,
        params=resolved,
        shards=shards,
        hashes=hashes,
        costs=costs,
        assignments=_stripe_by_cost(hashes, costs, shards),
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
            {plan.assignments[index] for index, _digest in incomplete}
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
    """Render the artifact's report from a merged cache + manifest.

    Every cell is either served by the merged cache (bit-identical to
    a fresh run — the cache round trip is lossless by contract) or
    reconstructed as a :class:`FailedSession` from its quarantined
    record, then folded and rendered exactly as a single-host run of
    the artifact. Returns the report text and the quarantined-cell
    count (``> 0`` ⇒ the CLI exits ``EXIT_PARTIAL``).

    Raises:
        ConfigError: a format the artifact cannot render, or a cell
            with neither a cache entry nor a quarantined record (torn
            merge directory).
    """
    from ..experiments import artifacts

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
    text = artifacts.render(
        artifacts.payload_of(plan.kind, plan.params, configs, results), fmt
    )
    _ok, failures = split_failures(results)
    return text, len(failures)


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
