"""End-to-end RTC session assembly and execution.

:class:`RtcSession` wires one :class:`~repro.pipeline.flow.MediaFlow`
(source → encoder → packetizer → pacer → bottleneck → receiver →
feedback → congestion control → adaptation policy) plus optional audio
and cross traffic over a duplex network, runs the discrete-event
simulation, and returns a :class:`~repro.pipeline.results.SessionResult`.
"""

from __future__ import annotations

import time

from ..faults.apply import faulted_capacity, faulted_loss
from ..faults.injector import FaultInjector
from ..netsim.aqm import CoDelQueue
from ..netsim.crosstraffic import CbrCrossTraffic
from ..netsim.loss import IidLoss
from ..netsim.network import DuplexNetwork
from ..rtp.audio import AudioStream
from ..simcore.rng import RngStreams
from ..simcore.scheduler import Scheduler
from ..telemetry.recorder import Telemetry
from .config import SessionConfig
from .flow import MediaFlow
from .results import SessionPerf, SessionResult


class RtcSession:
    """One simulated real-time call under a chosen adaptation policy.

    Telemetry: pass a :class:`~repro.telemetry.Telemetry` recorder (or
    set ``config.enable_telemetry``) to collect the probe series and
    counters catalogued in ``docs/telemetry.md``; the recorder rides on
    the returned result as ``SessionResult.traces``. Recording is purely
    observational — the simulated outcomes are identical either way.

    Faults: when ``config.faults`` carries a
    :class:`~repro.faults.FaultSchedule`, capacity faults and loss
    storms are composed into the network substrate and a
    :class:`~repro.faults.FaultInjector` arms the rest
    (see ``docs/robustness.md``). With no schedule this path is inert
    and results are bit-identical to a faults-free build.
    """

    def __init__(
        self,
        config: SessionConfig,
        telemetry: Telemetry | None = None,
    ) -> None:
        config.validate()
        self.config = config
        if telemetry is None and config.enable_telemetry:
            telemetry = Telemetry()
        self.telemetry = telemetry
        self.scheduler = Scheduler(telemetry=telemetry)
        self.rng = RngStreams(config.seed)

        net = config.network
        faults = config.faults if config.faults else None
        capacity = net.capacity
        loss = None
        if net.iid_loss > 0:
            loss = IidLoss(net.iid_loss, self.rng)
        if faults is not None:
            # Capacity faults and loss storms are composed into the
            # substrate before the run; the remaining fault kinds are
            # armed as timers by the injector below.
            capacity = faulted_capacity(capacity, faults)
            loss = faulted_loss(
                faults, loss, self.rng, self.scheduler.clock
            )
        forward_queue = None
        if net.aqm == "codel":
            forward_queue = CoDelQueue(net.queue_bytes)
        self.network = DuplexNetwork(
            self.scheduler,
            capacity,
            net.propagation_delay,
            net.queue_bytes,
            forward_loss=loss,
            forward_queue=forward_queue,
        )

        self.flow = MediaFlow(
            self.scheduler,
            self.network,
            config,
            self.rng,
            telemetry=telemetry,
        )

        if net.cross_traffic_bps > 0:
            self.cross_traffic = CbrCrossTraffic(
                self.scheduler,
                self.network.send_forward,
                net.cross_traffic_bps,
            )
        else:
            self.cross_traffic = None

        self.audio: AudioStream | None = None
        if config.enable_audio:
            self.audio = AudioStream(
                self.scheduler, self.network, stop_at=config.duration
            )

        self.fault_injector: FaultInjector | None = None
        if faults is not None:
            self.fault_injector = FaultInjector(
                self.scheduler,
                faults,
                encoder=self.flow.encoder,
                network=self.network,
                telemetry=telemetry,
            )

    # ------------------------------------------------------------------
    # Flow attribute pass-throughs (the single-flow API)
    # ------------------------------------------------------------------
    @property
    def encoder(self):
        """The flow's encoder."""
        return self.flow.encoder

    @property
    def sender(self):
        """The flow's transport sender."""
        return self.flow.sender

    @property
    def receiver(self):
        """The flow's receiver."""
        return self.flow.receiver

    @property
    def gcc(self):
        """The flow's GCC instance."""
        return self.flow.gcc

    @property
    def cc(self):
        """The active congestion controller (GCC or oracle)."""
        return self.flow.cc

    @property
    def policy(self):
        """The adaptation policy under test."""
        return self.flow.policy

    @property
    def content(self):
        """The flow's content trace."""
        return self.flow.content

    @property
    def source(self):
        """The flow's video source."""
        return self.flow.source

    @property
    def result(self) -> SessionResult:
        """The (possibly not yet finalized) session result."""
        return self.flow.result

    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        """Run to completion and return the joined result."""
        end = self.config.duration + self.config.grace_period
        wall_start = time.perf_counter()
        self.scheduler.run_until(end)
        wall = time.perf_counter() - wall_start
        result = self.flow.finish()
        result.perf = SessionPerf(
            wall_seconds=wall, events_fired=self.scheduler.events_fired
        )
        if self.audio is not None:
            result.audio_latencies = list(self.audio.stats.latencies)
            result.audio_sent = self.audio.stats.sent
            result.audio_received = self.audio.stats.received
        if self.telemetry is not None and self.telemetry.enabled:
            result.traces = self.telemetry
        return result
