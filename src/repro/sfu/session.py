"""A simulcast call through an SFU.

Topology::

    sender ──uplink (generous)──► SFU ──downlink (capacity trace)──► receiver
                                   ▲                                    │
                                   └───────── TWCC feedback / PLI ──────┘

The sender encodes every capture twice — a full-resolution "hi" layer
and a quarter-resolution "lo" layer, each at a *fixed* target (that is
the point of simulcast: the encoders never re-target; the SFU adapts by
switching layers). The uplink is over-provisioned, as it typically is
for the publisher of a conference call.

Running the same downlink trace through :class:`SimulcastSession` and a
regular adaptive :class:`~repro.pipeline.session.RtcSession` compares
the production practice (layer switching) with the paper's proposal
(encoder re-targeting): similar reaction speed, very different quality
floor during the drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codec.encoder import SimulatedEncoder
from ..codec.model import RateDistortionModel
from ..codec.source import VideoSource
from ..errors import ConfigError
from ..netsim.link import Link
from ..netsim.packet import Packet
from ..pipeline.config import NetworkConfig, VideoConfig
from ..pipeline.results import FrameOutcome, SessionResult
from ..rtp.feedback import FeedbackCollector, FeedbackReport
from ..rtp.jitterbuffer import FrameAssembler
from ..rtp.packetizer import Packetizer
from ..simcore.process import PeriodicProcess
from ..simcore.rng import RngStreams
from ..simcore.scheduler import Scheduler
from ..traces.bandwidth import BandwidthTrace
from ..traces.content import ContentTrace
from ..units import mbps


@dataclass(frozen=True)
class SimulcastLayer:
    """One simulcast encoding."""

    name: str
    target_bps: float
    resolution_scale: float


@dataclass(frozen=True)
class SimulcastConfig:
    """Simulcast session parameters."""

    network: NetworkConfig
    video: VideoConfig = field(default_factory=VideoConfig)
    layers: tuple[SimulcastLayer, ...] = (
        SimulcastLayer("hi", 1_800_000.0, 1.0),
        SimulcastLayer("lo", 300_000.0, 0.25),
    )
    duration: float = 25.0
    seed: int = 1
    uplink_bps: float = mbps(10)
    uplink_delay: float = 0.01
    feedback_interval: float = 0.05
    grace_period: float = 2.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent values."""
        self.network.validate()
        self.video.validate()
        if len(self.layers) < 2:
            raise ConfigError("simulcast needs at least two layers")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ConfigError("layer names must be unique")
        rates = [layer.target_bps for layer in self.layers]
        if rates != sorted(rates, reverse=True):
            raise ConfigError("layers must be ordered high to low rate")
        if self.duration <= 0 or self.uplink_bps <= 0:
            raise ConfigError("duration and uplink rate must be positive")


class SimulcastSession:
    """Sender (N fixed encoders) → SFU (layer switching) → receiver."""

    def __init__(self, config: SimulcastConfig) -> None:
        config.validate()
        self.config = config
        self.scheduler = Scheduler()
        self.rng = RngStreams(config.seed)

        video = config.video
        n_frames = int(config.duration * video.fps) + 2
        self.content = ContentTrace(video.content_class, n_frames, self.rng)
        self.source = VideoSource(
            self.content, video.fps, video.width, video.height
        )

        base_model = RateDistortionModel.for_resolution(
            video.width, video.height
        )
        self.encoders: dict[str, SimulatedEncoder] = {}
        self._packetizers: dict[str, Packetizer] = {}
        for layer in config.layers:
            encoder = SimulatedEncoder(
                base_model.at_resolution(layer.resolution_scale),
                video.fps,
                layer.target_bps,
                self.rng,
                rate_control_config=video.rate_control,
                size_noise_sigma=video.size_noise_sigma,
                stream=f"encoder-noise-{layer.name}",
            )
            self.encoders[layer.name] = encoder
            self._packetizers[layer.name] = Packetizer(
                flow=f"layer-{layer.name}"
            )

        # --- network: uplink, downlink, reverse feedback path --------
        net = config.network
        self.uplink = Link(
            self.scheduler,
            BandwidthTrace.constant(config.uplink_bps),
            config.uplink_delay,
            500_000,
            deliver=self._sfu_receive,
        )
        self.downlink = Link(
            self.scheduler,
            net.capacity,
            net.propagation_delay,
            net.queue_bytes,
            deliver=self._receiver_media,
        )
        self.reverse = Link(
            self.scheduler,
            BandwidthTrace.constant(mbps(100)),
            net.propagation_delay,
            64_000,
            deliver=self._sfu_reverse,
        )

        from .node import SfuNode

        self.sfu = SfuNode(
            self.scheduler,
            send_downlink=self.downlink.send,
            request_keyframe=self._request_layer_keyframe,
            layer_rates={
                layer.name: layer.target_bps for layer in config.layers
            },
            initial_layer=config.layers[0].name,
            on_forward=self._record_forwarded_layer,
            downlink_backlog=self.downlink.estimated_queue_delay,
        )

        # --- receiver ---------------------------------------------------
        self.assembler = FrameAssembler(send_pli=self._receiver_send_pli)
        self.collector = FeedbackCollector()
        self._feedback_process = PeriodicProcess(
            self.scheduler, config.feedback_interval, self._send_feedback
        )

        # --- bookkeeping --------------------------------------------
        self._encoded: dict[tuple[str, int], float] = {}  # ssim by layer
        self._display_layer: dict[int, str] = {}
        self._outcomes: dict[int, FrameOutcome] = {}
        self.result = SessionResult(
            policy="simulcast", seed=config.seed, fps=video.fps
        )
        self._capture_process = PeriodicProcess(
            self.scheduler, self.source.frame_interval, self._capture
        )

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------
    def _capture(self, tick: int) -> None:
        now = self.scheduler.now
        if now >= self.config.duration:
            self._capture_process.stop()
            return
        captured = self.source.capture(tick, now)
        outcome = FrameOutcome(
            index=tick,
            capture_time=now,
            complexity=captured.content.complexity,
            motion=captured.content.motion,
        )
        self._outcomes[tick] = outcome
        self.result.frames.append(outcome)
        for name, encoder in self.encoders.items():
            frame = encoder.encode(captured, now)
            self._encoded[(name, tick)] = frame.ssim
            packets = self._packetizers[name].packetize(frame)
            for packet in packets:
                packet.payload = {
                    "frame_type": frame.frame_type.value,
                    "temporal_layer": frame.temporal_layer,
                }
            self.scheduler.call_at(
                frame.encode_done_time,
                lambda ps=packets: self._send_uplink(ps),
            )

    def _send_uplink(self, packets: list[Packet]) -> None:
        for packet in packets:
            packet.send_time = self.scheduler.now
            self.uplink.send(packet)

    def _request_layer_keyframe(self, layer: str) -> None:
        # Keyframe request travels SFU → sender over the control path.
        self.scheduler.call_in(
            self.config.uplink_delay,
            lambda: self.encoders[layer].request_keyframe(),
        )

    # ------------------------------------------------------------------
    # SFU
    # ------------------------------------------------------------------
    def _sfu_receive(self, packet: Packet) -> None:
        layer = packet.flow.removeprefix("layer-")
        self.sfu.on_uplink_packet(layer, packet)

    def _sfu_reverse(self, packet: Packet) -> None:
        if isinstance(packet.payload, FeedbackReport):
            self.sfu.on_receiver_feedback(packet.payload)
        elif packet.payload == "PLI":
            self.sfu.on_receiver_pli()

    def _record_forwarded_layer(self, layer: str, packet: Packet) -> None:
        self._display_layer.setdefault(packet.frame_index, layer)

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def _receiver_media(self, packet: Packet) -> None:
        now = self.scheduler.now
        self.collector.on_packet(packet.seq, now, packet.size_bytes)
        if isinstance(packet.payload, dict) and packet.payload.get(
            "padding"
        ):
            # Probe padding: acked for bandwidth estimation, no media.
            self.assembler.note_seq(packet.seq, now)
            return
        self.assembler.on_packet(packet, now)

    def _send_feedback(self, _tick: int) -> None:
        report = self.collector.build_report(self.scheduler.now)
        if report is None:
            return
        packet = Packet(
            size_bytes=report.wire_size_bytes(),
            flow="feedback",
            payload=report,
        )
        packet.send_time = self.scheduler.now
        self.reverse.send(packet)

    def _receiver_send_pli(self) -> None:
        packet = Packet(size_bytes=80, flow="rtcp", payload="PLI")
        packet.send_time = self.scheduler.now
        self.reverse.send(packet)
        self.result.pli_count += 1

    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        """Run to completion; the result's SSIM reflects the *forwarded*
        layer of each displayed frame."""
        end = self.config.duration + self.config.grace_period
        self.scheduler.run_until(end)
        self._feedback_process.stop()
        for record in self.assembler.frames():
            outcome = self._outcomes.get(record.index)
            if outcome is None:
                continue
            outcome.complete_time = record.complete_time
            outcome.display_time = record.display_time
            outcome.lost = record.lost
            outcome.undecodable = record.undecodable
            layer = self._display_layer.get(record.index)
            if layer is not None:
                outcome.frame_type = record.frame_type
                outcome.encoded_ssim = self._encoded.get(
                    (layer, record.index), 0.0
                )
        self.result.drop_events = [t for t, _ in self.sfu.switches]
        self.result.finalize()
        return self.result
