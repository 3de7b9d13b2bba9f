"""Session configuration.

A :class:`SessionConfig` fully determines a simulation run (together with
its seed): network scenario, video content, encoder settings, congestion
controller, and the adaptation policy under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..codec.ratecontrol import RateControlConfig
from ..core.config import AdaptiveConfig, DetectorConfig
from ..errors import ConfigError
from ..faults.spec import FaultSchedule
from ..rtp.fec import FecConfig
from ..rtp.nack import NackConfig
from ..rtp.playout import PlayoutConfig
from ..traces.bandwidth import BandwidthTrace
from ..traces.content import ContentClass
from ..units import mbps, ms


class PolicyName(Enum):
    """Selectable adaptation policies."""

    ADAPTIVE = "adaptive"
    DEFAULT_ABR = "default_abr"
    WEBRTC = "webrtc"
    SALSIFY = "salsify"
    ORACLE = "oracle"


@dataclass(frozen=True)
class NetworkConfig:
    """Forward-path parameters.

    Attributes:
        capacity: bottleneck capacity trace.
        propagation_delay: one-way propagation (s).
        queue_bytes: bottleneck queue byte limit.
        iid_loss: channel loss probability (0 disables).
        cross_traffic_bps: constant competing traffic (0 disables).
        aqm: bottleneck queue discipline ("droptail" or "codel").
    """

    capacity: BandwidthTrace
    propagation_delay: float = ms(20)
    queue_bytes: int = 150_000
    iid_loss: float = 0.0
    cross_traffic_bps: float = 0.0
    aqm: str = "droptail"

    def validate(self) -> None:
        """Raise :class:`ConfigError` on bad values."""
        if self.propagation_delay < 0:
            raise ConfigError("propagation delay must be >= 0")
        if self.queue_bytes <= 0:
            raise ConfigError("queue_bytes must be positive")
        if not 0 <= self.iid_loss <= 1:
            raise ConfigError("iid_loss must be in [0, 1]")
        if self.cross_traffic_bps < 0:
            raise ConfigError("cross_traffic_bps must be >= 0")
        if self.aqm not in ("droptail", "codel"):
            raise ConfigError(
                f"aqm must be 'droptail' or 'codel', got {self.aqm!r}"
            )


@dataclass(frozen=True)
class VideoConfig:
    """Source and encoder parameters."""

    fps: float = 30.0
    width: int = 1280
    height: int = 720
    content_class: ContentClass = ContentClass.TALKING_HEAD
    gop_frames: int | None = None  # None = infinite GOP + PLI recovery
    rate_control: RateControlConfig = field(
        default_factory=RateControlConfig
    )
    size_noise_sigma: float = 0.08
    temporal_layers: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigError` on bad values."""
        if self.fps <= 0:
            raise ConfigError("fps must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("resolution must be positive")
        if self.temporal_layers not in (1, 2):
            raise ConfigError("temporal_layers must be 1 or 2")
        self.rate_control.validate()


@dataclass(frozen=True)
class SessionConfig:
    """Everything one simulated RTC call needs.

    Attributes:
        network / video: substrate parameters.
        policy: which adaptation policy runs the encoder.
        duration: capture duration (s); the simulation runs a grace
            period longer so in-flight frames can land.
        seed: master RNG seed (same seed = identical run).
        initial_target_bps: starting bitrate for CC and encoder.
        min_bps / max_bps: congestion-controller clamp.
        feedback_interval: TWCC feedback cadence (s).
        pacing_multiplier: pacer rate over target.
        adaptive / detector: controller tuning (ADAPTIVE policy).
        abr_update_interval: app reconfig timer (DEFAULT_ABR policy).
        cc_estimator: GCC delay estimator ("trendline" or "kalman").
        enable_telemetry: record probe series/counters into the result
            (see ``docs/telemetry.md``); off by default — disabled runs
            pay no recording cost. Part of the cache key.
        faults: optional deterministic fault schedule (see
            ``docs/robustness.md``). ``None`` (the default) leaves the
            session untouched — results are bit-identical to a build
            without the faults subsystem. Part of the cache key.
        grace_period: extra simulated time after the last capture.
    """

    network: NetworkConfig
    video: VideoConfig = field(default_factory=VideoConfig)
    policy: PolicyName = PolicyName.WEBRTC
    duration: float = 30.0
    seed: int = 1
    initial_target_bps: float = mbps(1.0)
    min_bps: float = 50_000.0
    max_bps: float = mbps(20)
    feedback_interval: float = 0.05
    pacing_multiplier: float = 2.5
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    abr_update_interval: float = 1.0
    cc_estimator: str = "trendline"
    enable_nack: bool = False
    nack: NackConfig = field(default_factory=NackConfig)
    enable_fec: bool = False
    fec: FecConfig = field(default_factory=FecConfig)
    enable_playout: bool = False
    playout: PlayoutConfig = field(default_factory=PlayoutConfig)
    enable_audio: bool = False
    enable_telemetry: bool = False
    faults: FaultSchedule | None = None
    grace_period: float = 2.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any inconsistency."""
        self.network.validate()
        self.video.validate()
        self.adaptive.validate()
        self.detector.validate()
        if self.duration <= 0 or self.grace_period < 0:
            raise ConfigError("duration must be positive, grace >= 0")
        if not 0 < self.min_bps <= self.initial_target_bps <= self.max_bps:
            raise ConfigError("need min <= initial <= max bitrate")
        if self.feedback_interval <= 0:
            raise ConfigError("feedback_interval must be positive")
        if self.pacing_multiplier < 1:
            raise ConfigError("pacing_multiplier must be >= 1")
        if self.abr_update_interval <= 0:
            raise ConfigError("abr_update_interval must be positive")
        if self.cc_estimator not in ("trendline", "kalman"):
            raise ConfigError(
                "cc_estimator must be 'trendline' or 'kalman', "
                f"got {self.cc_estimator!r}"
            )
        self.nack.validate()
        self.fec.validate()
        self.playout.validate()
        if self.faults is not None:
            self.faults.validate()
