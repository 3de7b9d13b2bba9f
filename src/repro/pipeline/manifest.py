"""Persistent run manifests: the on-disk ledger of a supervised batch.

A :class:`RunManifest` is one JSON file describing one batch run: the
command line that produced it, the supervision knobs, per-config-hash
records (status, attempts, wall time, error class), and the final
supervisor counters. It is updated **atomically** (temp file + rename)
as cells change state, so a SIGKILLed parent, a powered-off laptop, or
a plain Ctrl-C always leaves a loadable manifest behind.

``repro-rtc resume <run-id>`` loads the manifest, replays the recorded
command line, and lets the :class:`~repro.pipeline.parallel.ResultCache`
serve every cell that already finished — only unfinished cells
re-execute (see ``docs/running-fast.md``).

Record statuses::

    pending -> running -> ok
                       -> pending   (failed attempt, will retry)
                       -> quarantined (failed all attempts)
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import socket
import tempfile
import time
import warnings
from pathlib import Path

from ..errors import ConfigError

#: Manifest file layout version.
MANIFEST_SCHEMA_VERSION = 1

#: Statuses a record can hold.
STATUSES = ("pending", "running", "ok", "quarantined")

#: Minimum seconds between non-forced saves (big batches would
#: otherwise rewrite the file once per cell transition).
SAVE_INTERVAL = 0.5

#: Run id given to a manifest whose file was too damaged to parse at
#: all; :meth:`RunManifest.create` replaces it with a fresh identity.
TORN_RUN_ID = "(torn-manifest)"

#: Heartbeat-lease TTL (s). A worker renews well inside this (every
#: ``ttl / 3``); a lease older than the TTL marks the worker dead, and
#: its shard may be re-run (see :mod:`repro.pipeline.shards`).
DEFAULT_LEASE_TTL = 30.0


def lease_state(lease: dict | None, now: float | None = None) -> str:
    """Classify a manifest's lease record: ``none``/``live``/``expired``.

    Leases use wall-clock time because they cross process (and host)
    boundaries — the reader is never the process that wrote them. A
    missing or malformed lease is ``none`` (pre-lease manifests, or a
    sealed run that released it). A lease renewed within its TTL is
    ``live``, unless it names this host and a pid that is no longer
    running: its holder is known dead, so the lease reads ``expired``
    at once. A zombie counts as running, and a reused pid can only make
    a dead holder look alive, never the reverse.
    """
    if not isinstance(lease, dict):
        return "none"
    try:
        renewed = float(lease["renewed"])
        ttl = float(lease["ttl"])
    except (KeyError, TypeError, ValueError):
        return "none"
    if now is None:
        now = time.time()
    if now > renewed + ttl or _holder_exited(lease):
        return "expired"
    return "live"


def _holder_exited(lease: dict) -> bool:
    """Whether ``lease`` names this host and a pid that has exited."""
    pid = lease.get("pid")
    if lease.get("host") != socket.gethostname():
        return False
    if type(pid) is not int or pid <= 0:
        return False
    try:
        os.kill(pid, 0)  # signal 0: an existence probe, nothing is sent
    except ProcessLookupError:
        return True
    except OSError:  # e.g. EPERM: the pid runs under another user
        return False
    return False


def atomic_write(
    path: Path, data: str | bytes, prefix: str, suffix: str = ".tmp"
) -> None:
    """Replace ``path`` with ``data`` in one ``os.replace``.

    ``data`` (a ``str`` is UTF-8 encoded) goes into a temp file named
    ``<prefix>*<suffix>`` beside ``path`` in one write, and the rename
    makes it visible: readers see the old file or the new one, never a
    torn one. A failed write removes its temp file and leaves ``path``
    as it was.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=prefix, suffix=suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def manifest_dir() -> Path:
    """``$REPRO_MANIFEST_DIR`` or ``<default cache dir>/runs``."""
    env = os.environ.get("REPRO_MANIFEST_DIR")
    if env:
        return Path(env)
    from .parallel import ResultCache

    return ResultCache.default_dir() / "runs"


def host_tag() -> str:
    """A short filename-safe tag identifying this host (lowercased
    hostname, non-alphanumerics collapsed to ``-``, 12 chars max)."""
    try:
        host = socket.gethostname()
    except OSError:
        host = ""
    tag = re.sub(r"[^a-z0-9]+", "-", host.lower()).strip("-")[:12]
    return tag or "host"


def new_run_id(argv: list[str] | None = None) -> str:
    """A unique, human-sortable run id.

    ``<timestamp>-<host>-<digest>``: the timestamp sorts runs, the host
    tag makes ids from different machines visibly distinct, and the
    digest mixes in the hostname, pid, nanosecond clock, *and* eight
    bytes of OS entropy — two shard runs started in the same second on
    different hosts (or two processes racing on one host) cannot
    collide. The id is minted once and then lives in the manifest, so
    resume lookup stays stable across re-invocations.
    """
    stamp = time.strftime("%Y%m%d-%H%M%S")
    seed = (
        f"{socket.gethostname()!r}:{os.getpid()}:{time.time_ns()}:"
        f"{os.urandom(8).hex()}:{argv!r}"
    )
    digest = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:8]
    return f"{stamp}-{host_tag()}-{digest}"


def find_manifest(run_id_or_path: str) -> Path:
    """Resolve a run id, unique id prefix, or path to a manifest file.

    A full run id (or a path) resolves directly. Otherwise the id is
    treated as a prefix under the manifest dir: a unique match resolves,
    an ambiguous one raises listing every candidate — never silently
    picking one of several colliding runs.

    Raises:
        ConfigError: when nothing matches, or a prefix matches more
            than one manifest.
    """
    direct = Path(run_id_or_path)
    if direct.is_file():
        return direct
    candidate = manifest_dir() / f"{run_id_or_path}.json"
    if candidate.is_file():
        return candidate
    matches = sorted(
        manifest_dir().glob(glob.escape(run_id_or_path) + "*.json")
    )
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        names = ", ".join(path.stem for path in matches)
        raise ConfigError(
            f"run id prefix {run_id_or_path!r} is ambiguous: "
            f"matches {names}"
        )
    raise ConfigError(
        f"no run manifest named {run_id_or_path!r} (looked for a file at "
        f"{direct} and {candidate})"
    )


class RunManifest:
    """Atomic, resumable ledger of one supervised batch run."""

    def __init__(
        self,
        path: Path | str,
        run_id: str,
        argv: list[str] | None = None,
        command: str | None = None,
        workers: int = 1,
        session_timeout: float | None = None,
        max_retries: int = 2,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.argv = list(argv) if argv is not None else []
        self.command = command
        self.workers = workers
        self.session_timeout = session_timeout
        self.max_retries = max_retries
        self.created = time.time()
        self.status = "running"
        self.stats: dict[str, int] = {}
        self.records: dict[str, dict] = {}
        self.lease: dict | None = None
        self._started: dict[str, float] = {}
        self._last_save = 0.0
        self._last_heartbeat = 0.0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: Path | str,
        argv: list[str] | None = None,
        command: str | None = None,
        workers: int = 1,
        session_timeout: float | None = None,
        max_retries: int = 2,
    ) -> "RunManifest":
        """A fresh manifest; resumes in place if ``path`` already holds
        one (running records are reset to pending, ok records kept).

        A corrupt existing manifest — e.g. the writer was SIGKILLed in
        the middle of a (non-atomic-filesystem) write — is salvaged,
        not fatal: whatever records survive are kept, lost ones re-read
        as pending, and finished cells are still served by the result
        cache. Crash recovery must not be blocked by the very artifact
        the crash tore.
        """
        target = Path(path)
        if target.is_file():
            manifest, problems = cls.load_tolerant(target)
            for problem in problems:
                warnings.warn(
                    f"resuming past a damaged manifest: {problem} "
                    "(affected cells will re-execute or come from "
                    "the result cache)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            if manifest.run_id == TORN_RUN_ID:
                # Nothing salvageable: mint a fresh identity so the
                # resumed run is distinguishable from the torn one.
                manifest.run_id = new_run_id(argv)
                manifest.argv = list(argv) if argv is not None else []
                manifest.command = command
                manifest.workers = workers
                manifest.session_timeout = session_timeout
                manifest.max_retries = max_retries
            manifest.status = "running"
            for record in manifest.records.values():
                if record["status"] == "running":
                    record["status"] = "pending"
            return manifest
        return cls(
            target,
            run_id=new_run_id(argv),
            argv=argv,
            command=command,
            workers=workers,
            session_timeout=session_timeout,
            max_retries=max_retries,
        )

    @classmethod
    def load(cls, path: Path | str) -> "RunManifest":
        """Load a manifest previously written by :meth:`save`."""
        source = Path(path)
        try:
            data = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot load run manifest {source}: {exc}"
            ) from exc
        if data.get("schema") != MANIFEST_SCHEMA_VERSION:
            raise ConfigError(
                f"run manifest {source} has schema "
                f"{data.get('schema')!r}, expected {MANIFEST_SCHEMA_VERSION}"
            )
        manifest = cls(
            source,
            run_id=data["run_id"],
            argv=list(data.get("argv", [])),
            command=data.get("command"),
            workers=int(data.get("workers", 1)),
            session_timeout=data.get("session_timeout"),
            max_retries=int(data.get("max_retries", 2)),
        )
        manifest.created = float(data.get("created", 0.0))
        manifest.status = data.get("status", "running")
        manifest.stats = dict(data.get("stats", {}))
        manifest.records = dict(data.get("records", {}))
        lease = data.get("lease")
        manifest.lease = dict(lease) if isinstance(lease, dict) else None
        return manifest

    @classmethod
    def load_tolerant(
        cls, path: Path | str
    ) -> "tuple[RunManifest, list[str]]":
        """Load a manifest, surviving truncation and corruption.

        A manifest can be torn at **any byte offset** by a SIGKILLed
        writer on a filesystem without atomic rename, or flat-out
        garbage. Strict :meth:`load` raises; this variant always
        returns a usable manifest plus a list of human-readable
        problems:

        * an unreadable/unparseable/wrong-schema file → an **empty**
          manifest (run id :data:`TORN_RUN_ID`): every cell reads as
          pending, which is the safe answer — unfinished work is
          re-runnable and finished work still lives in the result
          cache;
        * individually malformed records (non-dict payload, unknown
          status) are dropped with a note; intact records survive.

        An empty ``problems`` list means the file was perfectly
        healthy.
        """
        source = Path(path)
        problems: list[str] = []
        try:
            manifest = cls.load(source)
        except ConfigError as exc:
            problems.append(str(exc))
            torn = cls(source, run_id=TORN_RUN_ID)
            return torn, problems
        bad = [
            digest
            for digest, record in manifest.records.items()
            if not isinstance(record, dict)
            or record.get("status") not in STATUSES
        ]
        for digest in bad:
            problems.append(
                f"manifest {source}: record {digest[:12]} is malformed; "
                "treating the cell as pending"
            )
            del manifest.records[digest]
        return manifest, problems

    # ------------------------------------------------------------------
    # Record transitions
    # ------------------------------------------------------------------
    def ensure(self, config_hash: str, config: dict | None = None) -> None:
        """Register a cell (idempotent; keeps existing status)."""
        if config_hash not in self.records:
            self.records[config_hash] = {
                "status": "pending",
                "attempts": 0,
                "wall_s": None,
                "error_class": None,
                "error": None,
                "cached": False,
                "config": config,
            }

    def _record(self, config_hash: str) -> dict:
        self.ensure(config_hash)
        return self.records[config_hash]

    def mark_running(self, config_hash: str) -> None:
        record = self._record(config_hash)
        record["status"] = "running"
        self._started[config_hash] = time.monotonic()
        self.save()

    def mark_ok(self, config_hash: str, cached: bool = False) -> None:
        record = self._record(config_hash)
        record["status"] = "ok"
        record["cached"] = cached
        record["error_class"] = None
        record["error"] = None
        started = self._started.pop(config_hash, None)
        if started is not None:
            record["wall_s"] = round(time.monotonic() - started, 6)
        self.save()

    def mark_retry(
        self, config_hash: str, error_class: str, error: str
    ) -> None:
        """A failed attempt that will be retried: back to pending."""
        record = self._record(config_hash)
        record["status"] = "pending"
        record["attempts"] += 1
        record["error_class"] = error_class
        record["error"] = error
        self._started.pop(config_hash, None)
        self.save(force=True)

    def mark_quarantined(
        self, config_hash: str, error_class: str, error: str
    ) -> None:
        """A cell that failed every allowed attempt."""
        record = self._record(config_hash)
        record["status"] = "quarantined"
        record["attempts"] += 1
        record["error_class"] = error_class
        record["error"] = error
        self._started.pop(config_hash, None)
        self.save(force=True)

    def requeue(self, config_hash: str) -> None:
        """Back to pending with no attempt charged (pool respawn)."""
        record = self._record(config_hash)
        record["status"] = "pending"
        self._started.pop(config_hash, None)

    # ------------------------------------------------------------------
    # Heartbeat leases
    # ------------------------------------------------------------------
    def enable_lease(self, ttl: float = DEFAULT_LEASE_TTL) -> None:
        """Start advertising liveness in the manifest file.

        Every subsequent :meth:`save` refreshes the lease's ``renewed``
        wall-clock stamp, and :meth:`heartbeat` forces a refresh even
        when no record transitions (a long-running cell must not look
        dead). The lease names this host (``socket.gethostname()``) and
        this process's pid; a reader observing ``renewed + ttl`` in the
        past, or the pid gone on the same host, may re-run the shard.

        Raises:
            ConfigError: on a non-positive TTL.
        """
        if ttl <= 0:
            raise ConfigError(f"lease ttl must be positive, got {ttl!r}")
        self.lease = {
            "owner": self.run_id,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "ttl": float(ttl),
            "renewed": time.time(),
        }

    def heartbeat(self) -> None:
        """Renew the lease if a third of its TTL has passed.

        Called from the supervisor's scheduling loop (every tick, so at
        least every ~0.5 s): record transitions alone cannot keep a
        lease fresh while one long cell is executing. No-op without an
        enabled lease, so non-shard supervised runs pay nothing.
        """
        if self.lease is None:
            return
        now = time.monotonic()
        interval = max(SAVE_INTERVAL, self.lease["ttl"] / 3.0)
        if now - self._last_heartbeat < interval:
            return
        self.save(force=True)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Record count per status (only statuses present)."""
        out: dict[str, int] = {}
        for record in self.records.values():
            out[record["status"]] = out.get(record["status"], 0) + 1
        return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload."""
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "run_id": self.run_id,
            "created": self.created,
            "argv": self.argv,
            "command": self.command,
            "workers": self.workers,
            "session_timeout": self.session_timeout,
            "max_retries": self.max_retries,
            "status": self.status,
            "stats": self.stats,
            "lease": self.lease,
            "records": self.records,
        }

    def save(self, force: bool = False) -> None:
        """Atomically write the manifest (throttled unless ``force``)."""
        now = time.monotonic()
        if not force and now - self._last_save < SAVE_INTERVAL:
            return
        self._last_save = now
        if self.lease is not None:
            # Every write that reaches disk doubles as a lease renewal.
            self.lease["renewed"] = time.time()
            self._last_heartbeat = now
        atomic_write(
            self.path,
            json.dumps(self.to_dict(), indent=2, sort_keys=True),
            prefix=".manifest-",
        )

    def finish(self, status: str, stats: dict[str, int]) -> None:
        """Seal the manifest: final status + supervisor counters.

        Sealing releases any heartbeat lease — a finished (or
        interrupted) run has no in-flight work for a lease to protect,
        and a re-run of its unfinished cells may start at once.
        """
        self.status = status
        self.stats = dict(stats)
        self.lease = None
        self.save(force=True)
