"""Parallel session execution with persistent result caching.

Every evaluation artifact in this repo — Table 1, the figures, the
ablations and extensions — is a batch of independent, deterministic
:func:`~repro.pipeline.runner.run_session` calls. This module gives that
shape a first-class API:

* :func:`run_many` maps a batch of :class:`SessionConfig`s to
  :class:`SessionResult`s through a pluggable executor backend
  (:class:`SerialBackend` or a ``ProcessPoolExecutor``-based
  :class:`ProcessBackend`);
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
import hashlib
import json
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

if TYPE_CHECKING:
    from .supervisor import SupervisorPlan

from ..errors import ConfigError
from ..traces.bandwidth import BandwidthTrace
from .config import SessionConfig
from .results import SessionResult
from .session import RtcSession

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
def config_to_dict(value: object) -> object:
    """Recursively convert a config object to JSON-ready primitives.

    Handles dataclasses, enums, :class:`BandwidthTrace` (encoded as its
    breakpoint list), tuples/lists, and scalars. The output is stable:
    the same config always maps to the same structure.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: config_to_dict(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, BandwidthTrace):
        return {"__bandwidth_trace__": [
            [float(t), float(r)] for t, r in value.breakpoints()
        ]}
    if isinstance(value, (tuple, list)):
        return [config_to_dict(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
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
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            return None
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
        """Store ``result`` under ``config``'s hash (atomically)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(config)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "config": config_to_dict(config),
            "result": result.to_dict(),
        }
        # One-shot dumps runs json's C encoder; json.dump into a file
        # handle streams through the pure-Python one instead.
        text = json.dumps(entry, separators=(",", ":"))
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


# ----------------------------------------------------------------------
# Executor backends
# ----------------------------------------------------------------------
def _run_session_to_dict(config: object) -> dict:
    """Worker entry point: run one config, return its serialized form.

    Returning plain dicts (not the result object) keeps the
    parent/worker boundary robust: only JSON-ready primitives cross it,
    and the parent reconstructs through the same ``from_dict`` path the
    cache uses. Dispatch happens through the config-type registry:
    unpickling the config argument imports its defining module, which
    registers the type before this function runs.
    """
    return run_config(config).to_dict()


class Executor(Protocol):
    """Maps a batch of configs to results, preserving input order."""

    def run(self, configs: Sequence[object]) -> list[object]: ...


class SerialBackend:
    """In-process execution, one config at a time."""

    def run(self, configs: Sequence[object]) -> list[object]:
        return [run_config(config) for config in configs]


class ProcessBackend:
    """``ProcessPoolExecutor`` execution across ``workers`` processes.

    Results come back as serialized dicts and are rebuilt in the
    parent, so the output is bit-identical to the cache-hit path and
    to a serial run (sessions are fully deterministic per config).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers

    def run(self, configs: Sequence[object]) -> list[object]:
        if not configs:
            return []
        chunksize = max(1, len(configs) // (self.workers * 4))
        pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            payloads = pool.map(
                _run_session_to_dict, configs, chunksize=chunksize
            )
            results = [
                result_from_dict(config, payload)
                for config, payload in zip(configs, payloads)
            ]
        except KeyboardInterrupt:
            # Ctrl-C: drop pending work and kill the workers instead of
            # unwinding with a pool-internals traceback. The CLI maps
            # the re-raised interrupt to exit code 130.
            from .supervisor import terminate_pool

            terminate_pool(pool)
            raise
        pool.shutdown(wait=True)
        return results


def make_backend(workers: int) -> Executor:
    """Serial backend for ``workers <= 1``, process pool otherwise."""
    if workers <= 1:
        return SerialBackend()
    return ProcessBackend(workers)


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
    #: When set, every batch routes through the supervised executor
    #: (timeouts, retries, quarantine, manifest) — see
    #: :mod:`repro.pipeline.supervisor`. ``None`` (the default) keeps
    #: the original fail-fast behavior bit for bit.
    supervisor: "SupervisorPlan | None" = None


_context = ExecutionContext()


def configure(
    workers: int | None = None,
    cache: ResultCache | None | object = _UNSET,
    supervisor: "SupervisorPlan | None | object" = _UNSET,
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


def execution_context() -> ExecutionContext:
    """The live process-wide defaults (mutable)."""
    return _context


def run_many(
    configs: Iterable[object],
    workers: int | None = None,
    cache: ResultCache | None | object = _UNSET,
    progress: Callable[[int, int], None] | None = None,
) -> list[object]:
    """Run a batch of registered configs; results in input order.

    Cached results are loaded first; only misses are executed (serially
    for ``workers <= 1``, in a process pool otherwise) and then stored
    back. ``workers``/``cache`` default to the process-wide context set
    via :func:`configure` (serial, no cache, out of the box).

    Args:
        configs: session configs to run.
        workers: process count; ``None`` uses the configured default.
        cache: a :class:`ResultCache`, or ``None`` to disable caching;
            leave unset to use the configured default.
        progress: optional ``callback(done, total)`` fired after the
            cache scan and after the execution phase.

    Returns:
        One :class:`SessionResult` per config, aligned with the input.
        Under a configured :class:`~repro.pipeline.supervisor.SupervisorPlan`,
        permanently-failing configs come back as
        :class:`~repro.pipeline.supervisor.FailedSession` placeholders
        instead of raising (graceful degradation).
    """
    batch = list(configs)
    effective_workers = (
        workers if workers is not None else _context.workers
    )
    effective_cache = (
        _context.cache if cache is _UNSET else cache
    )

    if _context.supervisor is not None:
        from .supervisor import supervised_run_many

        return supervised_run_many(
            batch,
            workers=effective_workers,
            cache=effective_cache,
            plan=_context.supervisor,
            progress=progress,
        )

    results: list[object | None] = [None] * len(batch)
    misses: list[int] = []
    if effective_cache is not None:
        for index, config in enumerate(batch):
            hit = effective_cache.get(config)
            if hit is not None:
                results[index] = hit
            else:
                misses.append(index)
    else:
        misses = list(range(len(batch)))

    if progress is not None:
        progress(len(batch) - len(misses), len(batch))

    if misses:
        backend = make_backend(effective_workers)
        fresh = backend.run([batch[i] for i in misses])
        for index, result in zip(misses, fresh):
            results[index] = result
            if effective_cache is not None:
                effective_cache.put(batch[index], result)

    if progress is not None:
        progress(len(batch), len(batch))

    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Built-in config types
# ----------------------------------------------------------------------
def _run_rtc_session(config: SessionConfig) -> SessionResult:
    return RtcSession(config).run()


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
    run=_run_rtc_session,
    from_dict=SessionResult.from_dict,
    cost=_session_cost,
)
