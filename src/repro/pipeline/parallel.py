"""Batch session execution with persistent result caching.

Every evaluation artifact in this repo — Table 1, the figures, the
ablations and extensions — is a batch of independent, deterministic
:func:`~repro.pipeline.runner.run_session` calls. This module gives that
shape a first-class API:

* :func:`run_many` maps a batch of :class:`SessionConfig`s to
  :class:`SessionResult`s, inline or through the worker pool of
  :class:`~repro.pipeline.supervisor.Supervisor`;
* :class:`ResultCache` persists results on disk keyed by a stable
  content hash of the config (dataclass → canonical JSON → sha256), so
  re-running an experiment with an unchanged config is a file read.

Determinism is the contract: each session owns its own seeded RNG and
scheduler, so parallel and cached results are **bit-identical** to a
serial fresh run (enforced by ``tests/integration/test_parallel_exec.py``).

Example::

    from repro.pipeline.parallel import ResultCache, run_many

    cache = ResultCache.default()
    results = run_many(configs, workers=8, cache=cache)
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
from typing import Callable, Iterable

import orjson

from ..errors import ConfigError
from ..traces.bandwidth import BandwidthTrace
from .config import SessionConfig
from .manifest import atomic_write
from .results import SessionResult
from .runner import run_session
from .supervisor import FailedSession, Supervisor, SupervisorPlan

#: Bumped whenever the serialized result layout or the simulation's
#: observable outputs change; stale cache entries are simply missed.
#: v3: telemetry's scheduler.queue_depth probe / max_queue_depth gauge
#: now report active (non-cancelled) queue depth.
#: v4: SessionConfig gained the ``faults`` schedule (part of the config
#: hash) and capacity probes report the link's effective trace.
#: v5: SessionConfig gained the ``kernel`` backend selector, excluded
#: from the hash.
#: v6: one event kernel (the binary heap); the ``kernel`` field is
#: gone. Fleet cells with exact-time ties change: the heap fires tied
#: events in scheduling order, where the retired default kernel fired
#: tied lane entries in lane-registration order and after every tied
#: heap event. Traced telemetry's ``scheduler.queue_depth`` probe and
#: ``scheduler.max_queue_depth`` gauge now count link and pacer events,
#: and the scheduler's lane-event counter is gone.
CACHE_SCHEMA_VERSION = 6


# ----------------------------------------------------------------------
# Config-type registry
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ConfigTypeSpec:
    """How the execution fabric handles one config class.

    The batch machinery — :func:`run_many`, :class:`ResultCache`, the
    supervised executor, the shard fabric — is generic over *what* a
    cell runs. Each runnable config class registers how to execute one
    instance and how to rebuild its result from the serialized dict
    that crosses worker and cache boundaries.

    Attributes:
        run: ``config -> result`` (the result must expose a lossless
            ``to_dict``; the round trip is the determinism contract).
        from_dict: ``payload -> result`` inverse of ``to_dict``.
        cost: optional ``config -> float`` estimating relative wall
            cost; the shard fabric's cost-weighted striping balances
            shards by it. Must be a pure function of the config (the
            plan records its output). ``None`` means unit cost.
    """

    run: Callable[[object], object]
    from_dict: Callable[[dict], object]
    cost: Callable[[object], float] | None = None


_CONFIG_TYPES: dict[type, ConfigTypeSpec] = {}


def register_config_type(
    config_cls: type,
    run: Callable[[object], object],
    from_dict: Callable[[dict], object],
    cost: Callable[[object], float] | None = None,
) -> None:
    """Register a runnable config class with the execution fabric.

    Registration lives in the module that defines ``config_cls``, so
    unpickling a config inside a worker process imports that module and
    registers the type before the worker entry point dispatches on it.
    Instances must provide ``validate()``, which raises
    :class:`ConfigError` on a bad config; :func:`run_many` calls it
    before it hashes or looks up a config.
    """
    _CONFIG_TYPES[config_cls] = ConfigTypeSpec(
        run=run,
        from_dict=from_dict,
        cost=cost,
    )


def config_type_spec(config: object) -> ConfigTypeSpec:
    """The registered spec for a config instance.

    Raises:
        ConfigError: for an unregistered config type.
    """
    spec = _CONFIG_TYPES.get(type(config))
    if spec is None:
        raise ConfigError(
            f"no registered runner for config type "
            f"{type(config).__name__!r} (known: "
            f"{', '.join(sorted(c.__name__ for c in _CONFIG_TYPES))})"
        )
    return spec


def run_config(config: object) -> object:
    """Execute one config through its registered runner."""
    return config_type_spec(config).run(config)


def result_from_dict(config: object, payload: dict) -> object:
    """Rebuild a result dict through the config's registered decoder."""
    return config_type_spec(config).from_dict(payload)


def estimate_cost(config: object) -> float:
    """Relative wall-cost estimate of one config (>= a small epsilon).

    Dispatches to the registered type's ``cost`` estimator; types
    without one are unit cost. The floor keeps degenerate estimates
    from producing zero-weight cells that striping cannot order.
    """
    estimator = config_type_spec(config).cost
    if estimator is None:
        return 1.0
    return max(float(estimator(config)), 1e-6)


# ----------------------------------------------------------------------
# Config canonicalization and hashing
# ----------------------------------------------------------------------
#: Types :func:`config_to_dict` returns as they are, before any other test.
_EXACT_SCALARS = frozenset({type(None), bool, int, float, str})

#: Each class :func:`config_to_dict` has met: its field names in
#: ``dataclasses.fields`` order, or ``None`` when it is not a dataclass.
#: A class's fields never change, so each class is reflected on once.
#: Every caller would fill the table alike, and it holds one entry per
#: class, so one table serves the whole process.
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}


def _field_names(cls: type) -> tuple[str, ...] | None:
    """``cls``'s field names, resolved once and kept in the table."""
    names = None
    if dataclasses.is_dataclass(cls):
        names = tuple(f.name for f in dataclasses.fields(cls))
    _FIELD_NAMES[cls] = names
    return names


def config_to_dict(value: object) -> object:
    """Recursively convert a config object to JSON-ready primitives.

    Handles dataclasses, enums, :class:`BandwidthTrace` (encoded as its
    breakpoint list), tuples/lists, and scalars. The output is stable:
    the same config always maps to the same structure, and a
    dataclass's keys come in field order (:meth:`ResultCache.put`
    writes them unsorted).
    """
    cls = type(value)
    if cls in _EXACT_SCALARS:
        return value
    try:
        names = _FIELD_NAMES[cls]
    except KeyError:
        names = _field_names(cls)
    if names is not None:
        return {name: config_to_dict(getattr(value, name)) for name in names}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, BandwidthTrace):
        return {"__bandwidth_trace__": [
            [float(t), float(r)] for t, r in value.breakpoints()
        ]}
    if isinstance(value, (tuple, list)):
        return [config_to_dict(item) for item in value]
    if isinstance(value, (int, float, str)):  # e.g. a numpy.float64
        return value
    raise ConfigError(
        f"cannot canonicalize {type(value).__name__!r} for hashing"
    )


def canonical_json(config: object) -> str:
    """The config as deterministic JSON (sorted keys, no whitespace)."""
    return json.dumps(
        config_to_dict(config),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )


def config_hash(config: object) -> str:
    """Stable sha256 content hash of a session config.

    The hash also covers the cache schema version, so serialized-layout
    changes invalidate old entries automatically.
    """
    payload = f"v{CACHE_SCHEMA_VERSION}:{canonical_json(config)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Persistent result cache
# ----------------------------------------------------------------------
#: An entry's file name. ``*.json`` alone also matches the ``.tmp-*.json``
#: file a ``put`` killed before its rename leaves behind, and whatever
#: else a user keeps in the directory.
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")


def _parse_entry(raw: bytes) -> object:
    """Parse an entry's bytes, as ``json.loads`` would.

    orjson reads every float ``json.dumps`` writes back to the same
    double, several times faster than the stdlib parser. It rejects
    the ``NaN``/``Infinity`` tokens ``json.dumps`` writes for
    non-finite floats, so an entry holding one goes to the stdlib
    parser; a ``ValueError`` from that means the bytes are not JSON.
    orjson reads an integer outside [-2**63, 2**64) as a float; the
    one unbounded integer in a result, its seed, is kept inside that
    range by the configs' ``validate``.
    """
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        return json.loads(raw)


def _entry_bytes(entry: dict) -> bytes:
    """``entry`` as JSON that ``json.loads`` reads back to the same value.

    orjson writes about ten times faster than ``json.dumps``, but it
    writes NaN and ±inf as ``null``, refuses integers beyond 64 bits
    (``TypeError``) and writes non-ASCII text as raw UTF-8. So its
    bytes are kept only when they are ASCII and parse back equal to
    ``entry``; any other entry is written by ``json.dumps``, as every
    earlier build wrote it. Both read back to the same value, and they
    are the same bytes unless a float or a string is formatted
    differently (``1e-05`` as ``0.00001``, ``1e+16`` as ``1e16``, DEL
    unescaped).
    """
    try:
        data = orjson.dumps(entry)
    except TypeError:
        pass
    else:
        if data.isascii() and orjson.loads(data) == entry:
            return data
    # One-shot dumps runs json's C encoder; json.dump into a file
    # handle streams through the pure-Python one instead.
    return json.dumps(entry, separators=(",", ":")).encode()


class ResultCache:
    """On-disk store of :class:`SessionResult`s keyed by config hash.

    Entries are JSON files named ``<sha256>.json`` under ``root``.
    Writes are atomic (temp file + rename) so concurrent workers and
    interrupted runs never leave a torn entry.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    @staticmethod
    def default_dir() -> Path:
        """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-rtc``."""
        env = os.environ.get("REPRO_CACHE_DIR")
        if env:
            return Path(env)
        return Path.home() / ".cache" / "repro-rtc"

    @classmethod
    def default(cls) -> "ResultCache":
        """Cache at the default location."""
        return cls(cls.default_dir())

    # ------------------------------------------------------------------
    def ensure_writable(self) -> None:
        """Create the cache root and probe it with a real write.

        Raises:
            ConfigError: when the root cannot be created or written —
                callers (the CLI) turn this into a clean error message
                instead of a traceback at first ``put``.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, probe = tempfile.mkstemp(
                dir=self.root, prefix=".probe-", suffix=".tmp"
            )
            os.close(fd)
            os.unlink(probe)
        except OSError as exc:
            raise ConfigError(
                f"cache directory {self.root} is not writable: {exc}"
            ) from exc

    def path_for(self, config: object) -> Path:
        """Entry path for a config."""
        return self.root / f"{config_hash(config)}.json"

    def path_for_hash(self, digest: str) -> Path:
        """Entry path for an already-computed config hash.

        The shard fabric moves entries between caches keyed by the
        hashes recorded in shard manifests, without rebuilding configs.
        """
        return self.root / f"{digest}.json"

    def get(self, config: object) -> object | None:
        """Load the cached result for ``config``, or ``None`` on miss.

        Schema-mismatched entries (older builds) are plain misses.
        Corrupt entries — truncated JSON, wrong shape, a result payload
        that no longer deserializes — are also misses, but the bad file
        is quarantined to ``<cache-dir>/corrupt/`` with a warning so a
        torn write can never crash (or permanently wedge) a batch.
        """
        path = self.path_for(config)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            entry = _parse_entry(raw)
        except ValueError:
            self._quarantine(path, "not valid JSON")
            return None
        if not isinstance(entry, dict) or "schema" not in entry:
            self._quarantine(path, "missing schema field")
            return None
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        try:
            return result_from_dict(config, entry["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            self._quarantine(path, "undeserializable result payload")
            return None

    def _quarantine(self, path: Path, why: str) -> None:
        """Move a corrupt entry aside so it is never re-read."""
        dest_dir = self.root / "corrupt"
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / path.name)
            moved = f"; moved to {dest_dir / path.name}"
        except OSError:
            moved = "; could not move it aside"
        warnings.warn(
            f"quarantined corrupt result-cache entry {path.name} "
            f"({why}){moved}",
            RuntimeWarning,
            stacklevel=3,
        )

    def put(self, config: object, result: object) -> Path:
        """Store ``result`` under ``config``'s hash (atomically).

        The entry is compact JSON (``{"schema", "config", "result"}``)
        from :func:`_entry_bytes`: orjson's bytes when they read back
        to the entry, ``json.dumps``'s otherwise. Either way the stdlib
        parser reads the file to the value ``json.dumps`` would have
        written, so a build that wrote every entry with ``json.dumps``
        serves this build's entries, and this build serves its.
        """
        path = self.path_for(config)
        # The entry and its read-back are acyclic and freed before the
        # write, so the cyclic collector could reclaim none of their
        # thousands of containers; left running, it would promote them
        # and set off full collections of the whole heap.
        collecting = gc.isenabled()
        gc.disable()
        try:
            data = _entry_bytes({
                "schema": CACHE_SCHEMA_VERSION,
                "config": config_to_dict(config),
                "result": result.to_dict(),
            })
        finally:
            if collecting:
                gc.enable()
        atomic_write(path, data, prefix=".tmp-", suffix=".json")
        return path

    def clear(self) -> int:
        """Delete all entries and orphaned temp files.

        Returns how many entries were removed; the ``.tmp-*.json`` files
        a ``put`` killed before its rename leaves behind are deleted too
        but not counted. Other files in the directory are left alone.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*.json"):
            entry = _ENTRY_NAME.fullmatch(path.name) is not None
            if not entry and not path.name.startswith(".tmp-"):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += entry
        return removed

    def __len__(self) -> int:
        """Number of entries (``<sha256>.json``), not counting temp files."""
        if not self.root.is_dir():
            return 0
        return sum(
            1 for path in self.root.glob("*.json")
            if _ENTRY_NAME.fullmatch(path.name)
        )


# ----------------------------------------------------------------------
# Batch API and process-wide execution defaults
# ----------------------------------------------------------------------
_UNSET = object()


@dataclasses.dataclass
class ExecutionContext:
    """Process-wide defaults consulted by :func:`run_many`.

    The experiment drivers call :func:`run_many` without execution
    arguments; the CLI (or a script) points these defaults at a worker
    pool, a cache, and optionally a supervision plan once, and every
    layer underneath inherits them.
    """

    workers: int = 1
    cache: ResultCache | None = None
    #: The default ``plan`` of :func:`run_many`: when set, every batch
    #: is supervised (timeouts, retries, quarantine, manifest) — see
    #: :mod:`repro.pipeline.supervisor`. ``None`` (the default) fails
    #: fast.
    supervisor: SupervisorPlan | None = None


_context = ExecutionContext()


def configure(
    workers: int | None = None,
    cache: ResultCache | None | object = _UNSET,
    supervisor: SupervisorPlan | None | object = _UNSET,
) -> ExecutionContext:
    """Set process-wide execution defaults; returns the live context."""
    if workers is not None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers!r}")
        _context.workers = workers
    if cache is not _UNSET:
        _context.cache = cache  # type: ignore[assignment]
    if supervisor is not _UNSET:
        _context.supervisor = supervisor  # type: ignore[assignment]
    return _context


def run_many(
    configs: Iterable[object],
    workers: int | None = None,
    cache: ResultCache | None | object = _UNSET,
    plan: SupervisorPlan | None = None,
) -> list[object]:
    """Run a batch of registered configs; results in input order.

    Cached results are loaded first, and each executed result is stored
    as soon as it finishes, so a batch that fails or is interrupted
    keeps every cell that completed. Misses run inline when
    ``workers <= 1`` and no plan is set; otherwise they go to the
    :class:`~repro.pipeline.supervisor.Supervisor`'s worker pool.
    Without a plan the first failure propagates (in a pool, after the
    pool is killed). Under a plan, failures are retried and quarantined
    per its policy, and every transition lands in its manifest.

    Args:
        configs: session configs to run.
        workers: process count; ``None`` uses the configured default.
        cache: a :class:`ResultCache`, or ``None`` to disable caching;
            leave unset to use the configured default.
        plan: a :class:`~repro.pipeline.supervisor.SupervisorPlan`;
            ``None`` uses the configured default (none, out of the box).

    Returns:
        One :class:`SessionResult` per config, aligned with the input.
        Under a plan, permanently-failing configs come back as
        :class:`~repro.pipeline.supervisor.FailedSession` placeholders
        instead of raising (graceful degradation).
    """
    batch = list(configs)
    for config in batch:
        # Before any hash or cache lookup: an entry an older build wrote
        # for a config this build rejects must not be served.
        config.validate()
    if workers is None:
        workers = _context.workers
    if cache is _UNSET:
        cache = _context.cache
    if plan is None:
        plan = _context.supervisor
    manifest = None if plan is None else plan.manifest
    hashes = None
    if plan is not None:
        hashes = [config_hash(config) for config in batch]
        if manifest is not None:
            for config, digest in zip(batch, hashes):
                manifest.ensure(digest, config_to_dict(config))

    results: list[object] = [None] * len(batch)
    misses: list[int] = []
    for index, config in enumerate(batch):
        hit = None if cache is None else cache.get(config)
        if hit is None:
            misses.append(index)
            continue
        results[index] = hit
        if plan is not None:
            plan.stats.cached += 1
            if manifest is not None:
                manifest.mark_ok(hashes[index], cached=True)
    if manifest is not None:
        # The whole batch and its hits reach disk before any miss runs:
        # the hits' saves above are throttled.
        manifest.save(force=True)

    if plan is None and workers <= 1:
        for index in misses:
            result = run_config(batch[index])
            results[index] = result
            if cache is not None:
                cache.put(batch[index], result)
    elif misses:
        if hashes is None:  # no plan: only the misses need a hash
            hashes = {index: config_hash(batch[index]) for index in misses}
        outcomes = Supervisor(max(1, workers), plan, cache).run(
            [(index, batch[index], hashes[index]) for index in misses]
        )
        for index, outcome in outcomes.items():
            results[index] = outcome

    if manifest is not None:
        failed = any(isinstance(r, FailedSession) for r in results)
        manifest.finish(
            "partial" if failed else "complete", plan.stats.to_counters()
        )

    return results


# ----------------------------------------------------------------------
# Built-in config types
# ----------------------------------------------------------------------
def _session_cost(config: SessionConfig) -> float:
    """Wall cost scales with simulated time and active fault windows.

    Faults add events (capacity rewrites, loss bursts, keyframe
    storms), so a faulted session costs more than its clean twin of
    the same duration.
    """
    faults = 0 if config.faults is None else len(list(config.faults))
    return float(config.duration) * (1.0 + faults)


# Other runnable config types (e.g. ``repro.fleet.FleetConfig``)
# register themselves in their defining modules.
register_config_type(
    SessionConfig,
    run=run_session,
    from_dict=SessionResult.from_dict,
    cost=_session_cost,
)
