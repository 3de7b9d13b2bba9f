"""Profiling harness for the simulation hot path.

Runs one pinned session under :mod:`cProfile` and reduces the stats to
the top-N hotspot functions — the measurement loop behind every
optimization in the kernel and packet path (``repro-rtc profile``, and
the profile artifact uploaded by CI's perf-smoke step).

The JSON schema (``SCHEMA_VERSION``):

```
{
  "schema": 3,
  "session": {"policy", "drop_ratio", "duration", "seed", "kernel"},
  "perf": {"wall_seconds", "events_fired", "events_per_sec"},
  "totals": {"calls", "seconds"},
  "event_census": {"<subsystem module>": count, ...},
  "handler_wall": {"<subsystem module>": seconds, ...},
  "hotspots": [
    {"function", "file", "line", "calls", "tottime", "cumtime"},
    ...
  ]
}
```

``hotspots`` is sorted by the chosen key (self time by default —
cumulative time buries leaf hot loops under their callers).
``event_census`` attributes every fired event to the subsystem module
of its callback, and ``handler_wall`` attributes wall time to the same
modules (a dedicated step-driven run, separate from the cProfile
pass). Both are measured under the *profiled* kernel: every backend
supports ``peek_callback``/``step``, and the batched kernel's elided
link services (drain-plan bookkeeping that never becomes an event) are
attributed to the link's module so the census stays comparable with
the heap reference.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
import time
from dataclasses import dataclass

from .errors import ConfigError
from .experiments import scenarios
from .pipeline.config import PolicyName, SessionConfig
from .pipeline.session import RtcSession
from .simcore.backend import resolve_kernel

#: Bump when the JSON layout changes (consumers: CI artifact, tests).
#: v2: session gained ``kernel``; top-level gained ``event_census``.
#: v3: census measured under the profiled kernel (was heap-only);
#: top-level gained ``handler_wall`` (per-handler wall-time table).
SCHEMA_VERSION = 3

#: Default number of hotspot rows reported.
DEFAULT_TOP = 20

_SORT_KEYS = ("tottime", "cumtime")


@dataclass(frozen=True)
class Hotspot:
    """One function's aggregate cost in the profiled run."""

    function: str
    file: str
    line: int
    calls: int
    tottime: float
    cumtime: float


@dataclass(frozen=True)
class ProfileReport:
    """Profiling result for one session run."""

    policy: str
    drop_ratio: float
    duration: float
    seed: int
    kernel: str
    wall_seconds: float
    events_fired: int
    total_calls: int
    total_seconds: float
    sort: str
    hotspots: tuple[Hotspot, ...]
    event_census: tuple[tuple[str, int], ...] = ()
    handler_wall: tuple[tuple[str, float], ...] = ()

    @property
    def events_per_sec(self) -> float:
        """Simulation event throughput of the profiled run."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_fired / self.wall_seconds

    def to_dict(self) -> dict:
        """JSON-ready dict following the module schema."""
        return {
            "schema": SCHEMA_VERSION,
            "session": {
                "policy": self.policy,
                "drop_ratio": self.drop_ratio,
                "duration": self.duration,
                "seed": self.seed,
                "kernel": self.kernel,
            },
            "perf": {
                "wall_seconds": self.wall_seconds,
                "events_fired": self.events_fired,
                "events_per_sec": self.events_per_sec,
            },
            "totals": {
                "calls": self.total_calls,
                "seconds": self.total_seconds,
            },
            "sort": self.sort,
            "event_census": dict(self.event_census),
            "handler_wall": dict(self.handler_wall),
            "hotspots": [
                dataclasses.asdict(spot) for spot in self.hotspots
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The report serialized as JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    def format_text(self) -> str:
        """Human-readable table of the hotspots."""
        lines = [
            f"profile: policy={self.policy} drop_ratio={self.drop_ratio} "
            f"duration={self.duration}s seed={self.seed} "
            f"kernel={self.kernel}",
            f"wall: {self.wall_seconds:.3f}s  "
            f"events: {self.events_fired}  "
            f"({self.events_per_sec:,.0f} events/s)",
            f"calls: {self.total_calls}  "
            f"profiled: {self.total_seconds:.3f}s  sort: {self.sort}",
            "",
            f"{'calls':>9}  {'tottime':>8}  {'cumtime':>8}  function",
        ]
        for spot in self.hotspots:
            lines.append(
                f"{spot.calls:>9}  {spot.tottime:>8.3f}  "
                f"{spot.cumtime:>8.3f}  {spot.function}"
            )
        if self.event_census:
            walls = dict(self.handler_wall)
            lines.append("")
            lines.append(
                f"per-handler attribution ({self.kernel} kernel):"
            )
            lines.append(f"{'events':>9}  {'wall(s)':>8}  subsystem")
            for subsystem, count in self.event_census:
                lines.append(
                    f"{count:>9}  {walls.get(subsystem, 0.0):>8.3f}  "
                    f"{subsystem}"
                )
        return "\n".join(lines) + "\n"


def pinned_config(
    policy: str = "adaptive",
    drop_ratio: float = 0.2,
    duration: float = 25.0,
    seed: int = 1,
) -> SessionConfig:
    """The session configuration the profiler runs: the paper's step-drop
    scenario, fully determined by these four knobs."""
    config = scenarios.step_drop_config(drop_ratio, seed=seed)
    return dataclasses.replace(
        config, policy=PolicyName(policy), duration=duration
    )


def _handler_module(callback) -> str:
    """Subsystem module a callback belongs to (``repro.`` stripped)."""
    module = getattr(callback, "__module__", None) or "<unknown>"
    if module.startswith("repro."):
        module = module[len("repro."):]
    return module


@dataclass(frozen=True)
class HandlerCost:
    """One subsystem's event count and wall time in a census run."""

    module: str
    events: int
    seconds: float


def handler_census(
    policy: str = "adaptive",
    drop_ratio: float = 0.2,
    duration: float = 25.0,
    seed: int = 1,
    kernel: str = "auto",
) -> tuple[HandlerCost, ...]:
    """Per-subsystem event counts and wall time for one pinned session.

    Drives the session one event at a time under the requested kernel
    backend (``"auto"`` resolves the session default) and attributes
    each fired event — and the wall time of firing it — to its
    callback's module. Works on every backend: all three expose
    ``peek_callback``/``step``, and lane heads attribute to the lane's
    ``fire`` target.

    Under the batched kernel, link packet services are elided into
    drain plans and never become events; the scheduler still counts
    them in ``events_fired`` when plans are applied, and the census
    attributes that excess to the link's module (``netsim.link``) so
    totals stay comparable with the heap reference. Registered
    finalizers are flushed at the horizon for the same reason.

    Wall times are *attribution*, not profiling: each step's elapsed
    time lands on the module of the event that fired, including any
    scheduler bookkeeping that step performed.

    Returns :class:`HandlerCost` rows sorted by descending event count.
    """
    config = dataclasses.replace(
        pinned_config(policy, drop_ratio, duration, seed),
        kernel=resolve_kernel(kernel).value,
    )
    session = RtcSession(config)
    scheduler = session.scheduler
    end = config.duration + config.grace_period
    counts: dict[str, int] = {}
    seconds: dict[str, float] = {}
    link_module = "netsim.link"
    perf_counter = time.perf_counter
    while True:
        head = scheduler.peek_time()
        if head is None or head > end:
            break
        module = _handler_module(scheduler.peek_callback())
        fired_before = scheduler.events_fired
        began = perf_counter()
        scheduler.step()
        elapsed = perf_counter() - began
        counts[module] = counts.get(module, 0) + 1
        seconds[module] = seconds.get(module, 0.0) + elapsed
        # Drain-plan services applied lazily during this step (batched
        # kernel only) bump events_fired without a stepped event.
        elided = scheduler.events_fired - fired_before - 1
        if elided > 0:
            counts[link_module] = counts.get(link_module, 0) + elided
    fired_before = scheduler.events_fired
    began = perf_counter()
    for finalizer in getattr(scheduler, "_finalizers", ()):
        finalizer(end)
    elapsed = perf_counter() - began
    elided = scheduler.events_fired - fired_before
    if elided > 0:
        counts[link_module] = counts.get(link_module, 0) + elided
        seconds[link_module] = seconds.get(link_module, 0.0) + elapsed
    return tuple(
        HandlerCost(module, count, seconds.get(module, 0.0))
        for module, count in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
    )


def event_census(
    policy: str = "adaptive",
    drop_ratio: float = 0.2,
    duration: float = 25.0,
    seed: int = 1,
    kernel: str = "auto",
) -> tuple[tuple[str, int], ...]:
    """Per-subsystem event counts (see :func:`handler_census`).

    Returns ``(subsystem, count)`` pairs sorted by descending count.
    """
    return tuple(
        (cost.module, cost.events)
        for cost in handler_census(policy, drop_ratio, duration, seed, kernel)
    )


def profile_session(
    policy: str = "adaptive",
    drop_ratio: float = 0.2,
    duration: float = 25.0,
    seed: int = 1,
    top: int = DEFAULT_TOP,
    sort: str = "tottime",
) -> ProfileReport:
    """Run one pinned session under cProfile and summarize it.

    Args:
        policy: adaptation policy to run.
        drop_ratio: bandwidth drop ratio of the step scenario.
        duration: simulated seconds.
        seed: session RNG seed.
        top: number of hotspot rows to keep.
        sort: ``"tottime"`` (self time, default) or ``"cumtime"``.
    """
    if top < 1:
        raise ConfigError(f"top must be >= 1, got {top!r}")
    if sort not in _SORT_KEYS:
        raise ConfigError(
            f"sort must be one of {_SORT_KEYS}, got {sort!r}"
        )
    config = pinned_config(policy, drop_ratio, duration, seed)
    session = RtcSession(config)
    profiler = cProfile.Profile()
    profiler.enable()
    result = session.run()
    profiler.disable()

    stats = pstats.Stats(profiler)
    total_calls = stats.total_calls  # type: ignore[attr-defined]
    total_seconds = stats.total_tt  # type: ignore[attr-defined]
    sort_index = 2 if sort == "tottime" else 3
    rows = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: item[1][sort_index],
        reverse=True,
    )[:top]
    hotspots = tuple(
        Hotspot(
            function=f"{filename}:{line}({name})",
            file=filename,
            line=line,
            calls=int(ncalls),
            tottime=float(tottime),
            cumtime=float(cumtime),
        )
        for (filename, line, name), (
            _primitive,
            ncalls,
            tottime,
            cumtime,
            _callers,
        ) in rows
    )

    perf = result.perf
    assert perf is not None  # sessions run inline always attach perf
    kernel = resolve_kernel(config.kernel).value
    census = handler_census(
        policy, drop_ratio, duration, seed, kernel=kernel
    )
    return ProfileReport(
        policy=policy,
        drop_ratio=drop_ratio,
        duration=duration,
        seed=seed,
        kernel=kernel,
        wall_seconds=perf.wall_seconds,
        events_fired=perf.events_fired,
        total_calls=int(total_calls),
        total_seconds=float(total_seconds),
        sort=sort,
        hotspots=hotspots,
        event_census=tuple(
            (cost.module, cost.events) for cost in census
        ),
        handler_wall=tuple(
            (cost.module, cost.seconds) for cost in census
        ),
    )
