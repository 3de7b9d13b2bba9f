"""Exception hierarchy and error taxonomy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch everything from this package with a single ``except``
clause while still distinguishing configuration mistakes from runtime
simulation faults.

Batch execution adds a second axis: the **error taxonomy**
(:class:`ErrorClass`, :func:`classify_error`) that the supervised
executor (:mod:`repro.pipeline.supervisor`) uses to drive its retry
policy — transient and infrastructure failures are retried with
backoff, deterministic failures are quarantined immediately (rerunning
a deterministic simulation reproduces the same crash).

The module also pins the CLI's documented exit codes (see
``docs/robustness.md``).
"""

from __future__ import annotations

import enum

# ----------------------------------------------------------------------
# Documented CLI exit codes (see docs/robustness.md)
# ----------------------------------------------------------------------
#: Everything ran and every cell succeeded.
EXIT_OK = 0
#: Unexpected library error (a ReproError escaped to the top level).
EXIT_ERROR = 1
#: Bad usage / configuration (ConfigError, unwritable paths, …).
EXIT_USAGE = 2
#: The batch *completed* but one or more cells were quarantined and
#: rendered as FAILED(...) markers in the report.
EXIT_PARTIAL = 3
#: Interrupted by SIGINT; pending work cancelled, manifest flushed.
EXIT_INTERRUPT = 130


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """The simulation reached an invalid internal state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped scheduler."""


class TraceError(ReproError):
    """A bandwidth or content trace is malformed."""


class CodecError(ReproError):
    """The encoder model was driven outside its valid operating range."""


class TransportError(ReproError):
    """RTP packetization/reassembly violated an invariant."""


# ----------------------------------------------------------------------
# Batch-execution taxonomy
# ----------------------------------------------------------------------
class ExecutionError(ReproError):
    """A session failed to execute (as opposed to simulating wrongly)."""


class TransientError(ExecutionError):
    """A failure that may succeed on retry (load, timing, flaky I/O)."""


class SessionTimeoutError(TransientError):
    """A session exceeded its wall-clock budget and was abandoned."""


class WorkerCrashError(ExecutionError):
    """A worker process died (OOM-kill, segfault, SIGKILL)."""


class ErrorClass(enum.Enum):
    """Retry-relevant classification of an execution failure.

    * ``TRANSIENT`` — may succeed on retry (timeouts, declared-flaky
      errors): retried with exponential backoff.
    * ``DETERMINISTIC`` — rerunning reproduces the same failure
      (simulation invariants, bad math, config-dependent crashes):
      never retried, quarantined on first sight.
    * ``INFRASTRUCTURE`` — the substrate failed, not the session
      (broken process pool, OS errors, memory pressure): retried after
      the pool is respawned.
    """

    TRANSIENT = "transient"
    DETERMINISTIC = "deterministic"
    INFRASTRUCTURE = "infrastructure"


def classify_error(exc: BaseException) -> ErrorClass:
    """Map an exception raised while executing a session to its class.

    The dispatch is intentionally conservative: anything not positively
    identified as transient or infrastructure is DETERMINISTIC, because
    sessions are pure functions of their config — an unknown failure
    will recur on every retry and should be quarantined, not hammered.
    """
    from concurrent.futures import BrokenExecutor

    # TimeoutError must be tested before OSError (its base since 3.10).
    if isinstance(exc, (TransientError, TimeoutError)):
        return ErrorClass.TRANSIENT
    if isinstance(exc, (WorkerCrashError, BrokenExecutor, MemoryError, OSError)):
        return ErrorClass.INFRASTRUCTURE
    return ErrorClass.DETERMINISTIC
