"""Fleet topology configuration: regions, SFU nodes, and link specs.

A :class:`FleetConfig` describes one *city-scale* deployment snapshot:
``N`` publisher sessions fan out through a graph of SFU nodes (one per
region) and inter-node links to ``M`` subscriber sessions. Every
subscriber runs its own simulcast layer selector
(:class:`~repro.sfu.SfuNode`), but all subscribers homed in a region
share **one** regional downlink queue — the cross-session coupling the
single-session harness cannot express.

The config is a frozen dataclass tree of scalars, enums, tuples, and an
optional :class:`~repro.faults.FaultSchedule`, so it canonicalizes and
hashes through the same
:func:`~repro.pipeline.parallel.config_to_dict` machinery as
:class:`~repro.pipeline.config.SessionConfig` — fleet cells ride the
result cache, the worker pool, the supervised executor, and the shard
fabric unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..faults.spec import FaultSchedule
from ..pipeline.config import VideoConfig, validate_seed
from ..pipeline.parallel import register_config_type
from ..sfu.session import SimulcastLayer
from ..traces.content import ContentClass
from ..units import mbps


@dataclass(frozen=True)
class RegionSpec:
    """One region: an SFU node plus the sessions homed behind it.

    Attributes:
        name: unique region label.
        publishers: publisher sessions homed at this node.
        subscribers: subscriber sessions homed behind the regional
            downlink.
        downlink_bps: capacity of the *shared* regional downlink — the
            one queue every subscriber in the region drains through.
        downlink_delay: one-way propagation of the regional downlink.
        downlink_queue_bytes: regional downlink queue limit.
    """

    name: str
    publishers: int
    subscribers: int
    downlink_bps: float
    downlink_delay: float = 0.02
    downlink_queue_bytes: int = 250_000

    def validate(self) -> None:
        """Raise :class:`ConfigError` on bad values."""
        if not self.name:
            raise ConfigError("region name must be non-empty")
        if self.publishers < 0 or self.subscribers < 0:
            raise ConfigError(
                f"region {self.name!r}: session counts must be >= 0"
            )
        if self.downlink_bps <= 0:
            raise ConfigError(
                f"region {self.name!r}: downlink_bps must be positive"
            )
        if self.downlink_delay < 0:
            raise ConfigError(
                f"region {self.name!r}: downlink_delay must be >= 0"
            )
        if self.downlink_queue_bytes <= 0:
            raise ConfigError(
                f"region {self.name!r}: downlink queue must be positive"
            )


@dataclass(frozen=True)
class InterNodeLink:
    """One directed inter-node link (SFU cascade hop)."""

    src: str
    dst: str
    capacity_bps: float
    delay: float = 0.03
    queue_bytes: int = 500_000

    def validate(self) -> None:
        """Raise :class:`ConfigError` on bad values."""
        if self.src == self.dst:
            raise ConfigError(
                f"inter-node link {self.src!r} -> {self.dst!r} is a loop"
            )
        if self.capacity_bps <= 0 or self.queue_bytes <= 0:
            raise ConfigError(
                f"inter-node link {self.src!r} -> {self.dst!r}: capacity "
                "and queue must be positive"
            )
        if self.delay < 0:
            raise ConfigError(
                f"inter-node link {self.src!r} -> {self.dst!r}: delay "
                "must be >= 0"
            )


#: Default simulcast ladder for fleet sessions (lower than the
#: single-call ladder: fleet scenarios run hundreds of concurrent
#: subscribers, and the interesting dynamics are in layer *shares*, not
#: absolute rates).
DEFAULT_FLEET_LAYERS = (
    SimulcastLayer("hi", 900_000.0, 1.0),
    SimulcastLayer("lo", 150_000.0, 0.25),
)

#: Default fleet video profile: population runs don't need 720p30 —
#: frame cadence and packet counts scale directly into event counts.
DEFAULT_FLEET_VIDEO = VideoConfig(
    fps=15.0,
    width=960,
    height=540,
    content_class=ContentClass.TALKING_HEAD,
)


@dataclass(frozen=True)
class FleetConfig:
    """Everything one fleet simulation needs.

    Attributes:
        regions: the SFU nodes and their homed sessions, in a fixed
            order (subscriber/publisher global ids are assigned
            region-major; the order is part of the config's identity).
        links: explicit directed inter-node links. Empty (the default)
            auto-provisions a full mesh at ``internode_bps``.
        internode_bps / internode_delay: auto-mesh link parameters.
        layers: simulcast ladder, ordered high to low rate.
        video: source/encoder profile shared by every publisher.
        duration: capture duration (s).
        seed: master RNG seed — same seed, same fleet, bit for bit.
        uplink_bps / uplink_delay: per-publisher uplink provisioning.
        feedback_interval: per-subscriber TWCC cadence (s).
        control_delay: keyframe-request path delay (subscriber's SFU
            node back to the publisher's encoder).
        churn: draw deterministic join/leave times per subscriber from
            the ``fleet-churn`` RNG stream instead of full-session
            membership.
        flash_crowd_at / flash_crowd_fraction: when set, the last
            ``fraction`` of subscribers (by global id) all join at
            exactly ``flash_crowd_at`` seconds.
        faults: optional deterministic fault schedule. Capacity kinds
            (outage, flap) rewrite the regional downlink trace at build
            time; ``feedback_blackout`` windows drop reverse-path
            packets. ``None`` leaves the fleet untouched.
        faulted_region: region the schedule applies to; ``None``
            applies it to every region.
        grace_period: extra simulated time after the last capture.
    """

    regions: tuple[RegionSpec, ...]
    links: tuple[InterNodeLink, ...] = ()
    internode_bps: float = mbps(50)
    internode_delay: float = 0.03
    layers: tuple[SimulcastLayer, ...] = DEFAULT_FLEET_LAYERS
    video: VideoConfig = DEFAULT_FLEET_VIDEO
    duration: float = 20.0
    seed: int = 1
    uplink_bps: float = mbps(8)
    uplink_delay: float = 0.01
    feedback_interval: float = 0.1
    control_delay: float = 0.02
    churn: bool = False
    flash_crowd_at: float | None = None
    flash_crowd_fraction: float = 0.5
    faults: FaultSchedule | None = None
    faulted_region: str | None = None
    grace_period: float = 1.0

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent values."""
        if not self.regions:
            raise ConfigError("fleet needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ConfigError("region names must be unique")
        for region in self.regions:
            region.validate()
        if self.total_publishers() < 1:
            raise ConfigError("fleet needs at least one publisher")
        if self.total_subscribers() < 1:
            raise ConfigError("fleet needs at least one subscriber")
        for link in self.links:
            link.validate()
            if link.src not in names or link.dst not in names:
                raise ConfigError(
                    f"inter-node link {link.src!r} -> {link.dst!r} "
                    "references an unknown region"
                )
        pairs = {(link.src, link.dst) for link in self.links}
        if len(pairs) != len(self.links):
            raise ConfigError("duplicate inter-node link")
        if len(self.layers) < 2:
            raise ConfigError("simulcast needs at least two layers")
        layer_names = [layer.name for layer in self.layers]
        if len(set(layer_names)) != len(layer_names):
            raise ConfigError("layer names must be unique")
        rates = [layer.target_bps for layer in self.layers]
        if rates != sorted(rates, reverse=True):
            raise ConfigError("layers must be ordered high to low rate")
        self.video.validate()
        # A non-finite end time would never stop the event loop.
        if not (math.isfinite(self.duration) and math.isfinite(self.grace_period)):
            raise ConfigError("duration and grace_period must be finite")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        validate_seed(self.seed)
        if self.uplink_bps <= 0 or self.internode_bps <= 0:
            raise ConfigError("link rates must be positive")
        if self.feedback_interval <= 0:
            raise ConfigError("feedback_interval must be positive")
        if self.control_delay < 0 or self.uplink_delay < 0:
            raise ConfigError("delays must be >= 0")
        if self.flash_crowd_at is not None and not (
            0.0 <= self.flash_crowd_at < self.duration
        ):
            raise ConfigError(
                "flash_crowd_at must fall inside the session"
            )
        if not 0.0 < self.flash_crowd_fraction <= 1.0:
            raise ConfigError("flash_crowd_fraction must be in (0, 1]")
        if self.faulted_region is not None and (
            self.faulted_region not in names
        ):
            raise ConfigError(
                f"faulted_region {self.faulted_region!r} is not a region"
            )
        if self.grace_period < 0:
            raise ConfigError("grace_period must be >= 0")

    # ------------------------------------------------------------------
    def total_publishers(self) -> int:
        """Publisher sessions across all regions."""
        return sum(region.publishers for region in self.regions)

    def total_subscribers(self) -> int:
        """Subscriber sessions across all regions."""
        return sum(region.subscribers for region in self.regions)

    def layer_rates(self) -> dict[str, float]:
        """``layer name -> target bitrate`` for the SFU selectors."""
        return {layer.name: layer.target_bps for layer in self.layers}

    def mesh_links(self) -> tuple[InterNodeLink, ...]:
        """The effective inter-node links (explicit or auto full mesh)."""
        if self.links:
            return self.links
        if len(self.regions) < 2:
            return ()
        return tuple(
            InterNodeLink(
                src=src.name,
                dst=dst.name,
                capacity_bps=self.internode_bps,
                delay=self.internode_delay,
            )
            for src in self.regions
            for dst in self.regions
            if src.name != dst.name
        )


def two_region_fleet(
    subscribers_per_region: int,
    publishers_per_region: int = 2,
    downlink_load_factor: float = 0.6,
    **overrides,
) -> FleetConfig:
    """A canonical two-node fleet: regions ``a`` and ``b``.

    The shared regional downlink is provisioned at
    ``subscribers × hi-rate × load_factor`` — tight enough that the
    population cannot all hold the top layer, which is the regime where
    cross-session coupling matters.
    """
    layers = overrides.get("layers", DEFAULT_FLEET_LAYERS)
    top = max(layer.target_bps for layer in layers)
    downlink = max(
        subscribers_per_region * top * downlink_load_factor, top * 2.0
    )
    regions = tuple(
        RegionSpec(
            name=name,
            publishers=publishers_per_region,
            subscribers=subscribers_per_region,
            downlink_bps=downlink,
        )
        for name in ("a", "b")
    )
    return FleetConfig(regions=regions, **overrides)


# ----------------------------------------------------------------------
# Execution-fabric registration
# ----------------------------------------------------------------------
def _run_fleet(config: FleetConfig):
    from .sim import FleetSession

    return FleetSession(config).run()


def _fleet_result_from_dict(payload: dict):
    from .result import FleetResult

    return FleetResult.from_dict(payload)


# Registering here (the module that defines FleetConfig) means any
# process that unpickles a FleetConfig — a worker about to run it —
# registers the type before the generic worker entry point dispatches.
def _fleet_cost(config: FleetConfig) -> float:
    """Fleet cells dwarf single sessions: cost scales with simulated
    time × population × active fault windows (the shard fabric's
    cost-weighted striping keeps one 500-subscriber cell from landing
    on the same shard as another)."""
    faults = 0 if config.faults is None else len(list(config.faults))
    return (
        float(config.duration)
        * max(1, config.total_subscribers())
        * (1.0 + faults)
    )


register_config_type(
    FleetConfig,
    run=_run_fleet,
    from_dict=_fleet_result_from_dict,
    cost=_fleet_cost,
)
