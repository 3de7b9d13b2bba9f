"""The worker pool behind :func:`~repro.pipeline.parallel.run_many`.

``run_many`` runs a batch's cache misses inline when it has one worker
and no :class:`SupervisorPlan`; every other batch comes here. The
:class:`Supervisor` owns the repo's one process pool, whose workers
exit when the process that started them dies, even by SIGKILL.

Without a plan it fails fast: the first failure kills the pool and
propagates. Under a plan it is engineered to **finish** and to tell the
truth about what didn't:

* per-session **wall-clock timeouts** (a hung worker forfeits its cell
  and the pool is respawned);
* **bounded retries** with exponential backoff + deterministic jitter,
  driven by the error taxonomy in :mod:`repro.errors` — transient and
  infrastructure failures retry, deterministic failures do not;
* **BrokenProcessPool recovery**: the pool is respawned and surviving
  in-flight cells are re-queued without being charged an attempt;
* a **quarantine**: a cell that fails every allowed attempt becomes a
  :class:`FailedSession` placeholder in the result list instead of an
  exception, so experiment drivers render ``FAILED(<reason>)`` markers
  and the batch completes;
* a persistent :class:`~repro.pipeline.manifest.RunManifest` updated
  atomically at every transition, enabling ``repro-rtc resume``;
* run-wide counters (retries, timeouts, pool_restarts, …) in
  :class:`SupervisorStats`.

Completed results are written to the :class:`ResultCache` *as they
finish*, so an interrupted batch loses only its in-flight cells. On the
failure-free path the output is bit-identical to an inline run:
results cross the worker boundary through the same
``to_dict``/``from_dict`` serialization the cache uses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import os
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import (
    ConfigError,
    ErrorClass,
    SessionTimeoutError,
    WorkerCrashError,
    classify_error,
)
from . import chaosharness
from .manifest import RunManifest
from .results import SessionResult


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL = 0.5


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent is gone.

    A SIGKILLed parent runs no cleanup, so its workers would wait on
    the call queue forever. The parent's death reparents them, which
    changes ``os.getppid()``; a daemon thread polls for that and exits
    the worker on the spot (workers hold no state worth flushing).
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _supervised_worker(config: object, config_hash: str) -> dict:
    """Run one config in a worker; serialized dict crosses the boundary.

    Returning plain dicts keeps the parent/worker boundary robust: the
    parent rebuilds the result through the same ``from_dict`` path the
    cache uses. The self-chaos harness hook runs first so tests/CI can
    sabotage exactly this execution (kill, hang, raise) — see
    :mod:`repro.pipeline.chaosharness`. Execution dispatches through
    the config-type registry (:mod:`repro.pipeline.parallel`):
    unpickling the config imports its defining module, which registers
    the type.
    """
    from .parallel import run_config

    chaosharness.note_execution(config_hash)
    chaosharness.maybe_sabotage(config_hash)
    return run_config(config).to_dict()


# ----------------------------------------------------------------------
# Policy objects
# ----------------------------------------------------------------------
#: Retry backoff: retry ``n`` of a cell waits ``min(BACKOFF_CAP,
#: BACKOFF_BASE * BACKOFF_MULTIPLIER**(n-1))`` seconds, stretched by up
#: to ``JITTER`` of itself. The stretch comes from a hash of the cell
#: and ``n``: stable across reruns (no wall-clock randomness), different
#: across cells (no thundering herd).
BACKOFF_BASE = 0.5
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP = 30.0
JITTER = 0.5


def retry_delay(key: str, attempt: int) -> float:
    """Backoff before retry number ``attempt`` (1-based) of ``key``."""
    raw = min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_MULTIPLIER ** (attempt - 1))
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64
    return raw * (1.0 + JITTER * unit)


@dataclass(frozen=True)
class SupervisorPolicy:
    """The supervision knobs for one run."""

    session_timeout: float | None = None
    max_retries: int = 2

    def validate(self) -> None:
        """Raise :class:`ConfigError` on bad values."""
        if self.session_timeout is not None and self.session_timeout <= 0:
            raise ConfigError(
                f"session timeout must be positive, got "
                f"{self.session_timeout!r}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )

    def allows(self, error_class: ErrorClass, attempts: int) -> bool:
        """Whether a cell with ``attempts`` failures may try again."""
        if error_class is ErrorClass.DETERMINISTIC:
            # Deterministic failures recur; retrying cannot help.
            return False
        return attempts <= self.max_retries


@dataclass
class SupervisorStats:
    """Counters accumulated across every batch of a supervised run."""

    executed: int = 0
    ok: int = 0
    cached: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_restarts: int = 0
    quarantined: int = 0

    def to_counters(self) -> dict[str, int]:
        """``supervisor.*`` counter view (stderr and manifest ``stats``)."""
        return {
            f"supervisor.{f.name}": getattr(self, f.name)
            for f in dataclasses.fields(self)
        }


@dataclass
class SupervisorPlan:
    """A supervised run: its policy, manifest and stats.

    Pass it to :func:`~repro.pipeline.parallel.run_many` as ``plan``, or
    configure it once on the execution context so that every experiment
    driver underneath inherits it. Stats accumulate across batches.
    """

    policy: SupervisorPolicy = field(default_factory=SupervisorPolicy)
    manifest: RunManifest | None = None
    stats: SupervisorStats = field(default_factory=SupervisorStats)


# ----------------------------------------------------------------------
# Failure placeholder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailedSession:
    """Placeholder result for a quarantined cell.

    Experiment drivers receive these *in place of* a
    :class:`SessionResult` and render :meth:`marker` instead of
    aborting (graceful degradation).
    """

    config_hash: str
    error_class: ErrorClass
    error_type: str
    message: str
    attempts: int

    @property
    def reason(self) -> str:
        """Short deterministic reason string."""
        if self.error_type == "SessionTimeoutError":
            return "timeout"
        if self.error_type == "WorkerCrashError":
            return "worker-crash"
        message = self.message.strip()
        if len(message) > 60:
            message = message[:57] + "..."
        return f"{self.error_type}: {message}" if message else self.error_type

    @property
    def marker(self) -> str:
        """The ``FAILED(<reason>)`` marker used in report output."""
        return f"FAILED({self.reason})"

    @classmethod
    def from_record(cls, config_hash: str, record: dict) -> "FailedSession":
        """Rebuild the placeholder from a manifest's quarantined record.

        Manifests store failures as ``error_class`` plus a single
        ``"<Type>: <message>"`` string; the round trip preserves
        :attr:`reason` exactly, so a report rendered from merged shard
        manifests (:mod:`repro.pipeline.shards`) carries the same
        ``FAILED(...)`` markers the originating host printed.
        """
        error = str(record.get("error") or "")
        error_type, sep, message = error.partition(": ")
        if not sep and not error_type:
            error_type = "UnknownError"
        try:
            error_class = ErrorClass(
                record.get("error_class") or "deterministic"
            )
        except ValueError:
            error_class = ErrorClass.DETERMINISTIC
        return cls(
            config_hash=config_hash,
            error_class=error_class,
            error_type=error_type,
            message=message,
            attempts=int(record.get("attempts") or 0),
        )


def split_failures(
    results: Sequence[object],
) -> tuple[list[SessionResult], list[FailedSession]]:
    """Partition a mixed result list into (ok, failed)."""
    ok = [r for r in results if isinstance(r, SessionResult)]
    failed = [r for r in results if isinstance(r, FailedSession)]
    return ok, failed


def failure_label(failures: Sequence[FailedSession]) -> str:
    """One combined ``FAILED(...)`` marker for a group of failures."""
    reasons = sorted({f.reason for f in failures})
    return "FAILED(" + "; ".join(reasons) + ")"


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class _Cell:
    """Mutable bookkeeping for one config in flight."""

    __slots__ = ("index", "config", "hash", "attempts")

    def __init__(self, index: int, config: object, digest: str):
        self.index = index
        self.config = config
        self.hash = digest
        self.attempts = 0


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: kill workers, drop pending work, don't block.

    ``shutdown(wait=True)`` would block behind a hung worker forever;
    killing the worker processes first guarantees the join returns.
    (``_processes`` is stable CPython plumbing; guarded anyway.)
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, ValueError, AttributeError):
            pass
    pool.shutdown(wait=True, cancel_futures=True)


#: Indirection over ``concurrent.futures.wait`` so tests can inject
#: interrupts at the exact point a real Ctrl-C lands.
_wait = wait

#: Upper bound on one scheduling tick (keeps Ctrl-C responsive).
_MAX_TICK = 0.5


class Supervisor:
    """Drives one batch of cells to completion through a worker pool.

    Without a ``plan`` the first failure kills the pool and propagates
    (no timeout, no retry). With one, its policy times out, retries and
    quarantines cells, its stats count what happened, and every
    transition lands in its manifest.
    """

    def __init__(
        self,
        workers: int,
        plan: SupervisorPlan | None = None,
        cache=None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers!r}")
        self.fail_fast = plan is None
        if plan is None:
            plan = SupervisorPlan()
        plan.policy.validate()
        self.workers = workers
        self.policy = plan.policy
        self.stats = plan.stats
        self.manifest = plan.manifest
        self.cache = cache

    # ------------------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_exit_with_parent
        )

    def _mark_ok(self, cell: _Cell, result: SessionResult) -> None:
        if self.cache is not None:
            self.cache.put(cell.config, result)
        if self.manifest is not None:
            self.manifest.mark_ok(cell.hash)
        self.stats.ok += 1

    def _record_failure(
        self,
        cell: _Cell,
        exc: BaseException,
        now: float,
        waiting: list,
        seq: list[int],
        outcomes: dict[int, object],
    ) -> None:
        """Charge one failed attempt; schedule a retry or quarantine.

        Fail-fast (no plan): re-raise ``exc`` instead.
        """
        if self.fail_fast:
            raise exc
        error_class = classify_error(exc)
        cell.attempts += 1
        if isinstance(exc, SessionTimeoutError):
            self.stats.timeouts += 1
        elif error_class is ErrorClass.INFRASTRUCTURE:
            self.stats.crashes += 1
        message = f"{type(exc).__name__}: {exc}"
        if self.policy.allows(error_class, cell.attempts):
            delay = retry_delay(cell.hash, cell.attempts)
            self.stats.retries += 1
            seq[0] += 1
            heapq.heappush(waiting, (now + delay, seq[0], cell))
            if self.manifest is not None:
                self.manifest.mark_retry(
                    cell.hash, error_class.value, message
                )
        else:
            outcomes[cell.index] = FailedSession(
                config_hash=cell.hash,
                error_class=error_class,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=cell.attempts,
            )
            self.stats.quarantined += 1
            if self.manifest is not None:
                self.manifest.mark_quarantined(
                    cell.hash, error_class.value, message
                )

    def _respawn(
        self,
        pool: ProcessPoolExecutor,
        inflight: dict,
        ready: deque,
    ) -> ProcessPoolExecutor:
        """Kill the pool; re-queue surviving cells without charging them."""
        self.stats.pool_restarts += 1
        for future, (cell, _deadline) in list(inflight.items()):
            ready.appendleft(cell)
            if self.manifest is not None:
                self.manifest.requeue(cell.hash)
        inflight.clear()
        terminate_pool(pool)
        return self._new_pool()

    # ------------------------------------------------------------------
    def run(
        self, cells: list[tuple[int, object, str]]
    ) -> dict[int, object]:
        """Execute cells; returns index → SessionResult | FailedSession.

        Any exception that leaves this method kills the pool first. On
        :class:`KeyboardInterrupt` the manifest is also flushed with
        status ``interrupted`` (the CLI maps the interrupt to exit code
        130).
        """
        outcomes: dict[int, object] = {}
        ready: deque[_Cell] = deque(
            _Cell(index, config, digest) for index, config, digest in cells
        )
        waiting: list[tuple[float, int, _Cell]] = []
        seq = [0]
        timeout = self.policy.session_timeout
        inflight: dict[object, tuple[_Cell, float | None]] = {}
        pool = self._new_pool()
        try:
            while ready or waiting or inflight:
                now = time.monotonic()
                if self.manifest is not None:
                    # Renew the heartbeat lease (if one is enabled)
                    # even when no record transitions: one long cell
                    # must not let a re-run of this shard start.
                    self.manifest.heartbeat()
                while waiting and waiting[0][0] <= now:
                    ready.append(heapq.heappop(waiting)[2])

                while ready and len(inflight) < self.workers:
                    cell = ready.popleft()
                    try:
                        future = pool.submit(
                            _supervised_worker, cell.config, cell.hash
                        )
                    except BrokenExecutor:
                        ready.appendleft(cell)
                        pool = self._respawn(pool, inflight, ready)
                        continue
                    deadline = (
                        now + timeout if timeout is not None else None
                    )
                    inflight[future] = (cell, deadline)
                    self.stats.executed += 1
                    if self.manifest is not None:
                        self.manifest.mark_running(cell.hash)

                if not inflight:
                    if waiting:
                        pause = max(0.0, waiting[0][0] - time.monotonic())
                        time.sleep(min(pause, _MAX_TICK))
                    continue

                tick = _MAX_TICK
                if waiting:
                    tick = min(tick, max(0.0, waiting[0][0] - now))
                for _cell, deadline in inflight.values():
                    if deadline is not None:
                        tick = min(tick, max(0.0, deadline - now))
                done, _pending = _wait(
                    list(inflight),
                    timeout=tick,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                now = time.monotonic()
                for future in done:
                    cell, _deadline = inflight.pop(future)
                    try:
                        payload = future.result()
                    except KeyboardInterrupt:
                        raise
                    except BrokenExecutor as exc:
                        broken = True
                        crash = WorkerCrashError(
                            f"worker pool broke while running "
                            f"{cell.hash[:12]} ({exc})"
                        )
                        self._record_failure(
                            cell, crash, now, waiting, seq, outcomes
                        )
                    except BaseException as exc:
                        self._record_failure(
                            cell, exc, now, waiting, seq, outcomes
                        )
                    else:
                        from .parallel import result_from_dict

                        result = result_from_dict(cell.config, payload)
                        outcomes[cell.index] = result
                        self._mark_ok(cell, result)

                timed_out = [
                    future
                    for future, (_cell, deadline) in inflight.items()
                    if deadline is not None
                    and now >= deadline
                    and not future.done()
                ]
                for future in timed_out:
                    cell, deadline = inflight.pop(future)
                    broken = True  # the hung worker poisons the pool
                    self._record_failure(
                        cell,
                        SessionTimeoutError(
                            f"session {cell.hash[:12]} exceeded "
                            f"{timeout:g} s wall clock"
                        ),
                        now,
                        waiting,
                        seq,
                        outcomes,
                    )

                if broken or getattr(pool, "_broken", False):
                    pool = self._respawn(pool, inflight, ready)
        except BaseException as exc:
            terminate_pool(pool)
            manifest = self.manifest
            if isinstance(exc, KeyboardInterrupt) and manifest is not None:
                for cell in ready:
                    manifest.requeue(cell.hash)
                for _ready_time, _seq, cell in waiting:
                    manifest.requeue(cell.hash)
                for cell, _deadline in inflight.values():
                    manifest.requeue(cell.hash)
                manifest.finish("interrupted", self.stats.to_counters())
            raise
        pool.shutdown(wait=True)
        return outcomes

