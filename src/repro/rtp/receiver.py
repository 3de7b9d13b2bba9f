"""The RTC receiver endpoint.

Wires the frame assembler and TWCC feedback onto the duplex network:
media packets in; feedback, PLI, and (optionally) NACK packets out.
"""

from __future__ import annotations

from ..netsim.network import DuplexNetwork
from ..netsim.packet import Packet
from ..simcore.process import PeriodicProcess
from ..simcore.scheduler import Scheduler
from ..telemetry.recorder import NULL_TELEMETRY, Telemetry
from .fec import FecDecoder
from .feedback import FeedbackCollector
from .jitterbuffer import FrameAssembler, FrameRecord
from .nack import NackConfig, NackFrameAssembler
from .playout import PlayoutBuffer, PlayoutConfig

#: Wire size of a PLI RTCP packet.
PLI_SIZE_BYTES = 80

#: libwebrtc's TWCC feedback send interval.
DEFAULT_FEEDBACK_INTERVAL = 0.05

#: How often the NACK machinery re-checks outstanding gaps.
NACK_POLL_INTERVAL = 0.02


class Receiver:
    """Receives media, assembles frames, and emits feedback/PLI/NACK."""

    def __init__(
        self,
        scheduler: Scheduler,
        network: DuplexNetwork,
        feedback_interval: float = DEFAULT_FEEDBACK_INTERVAL,
        enable_pli: bool = True,
        enable_nack: bool = False,
        nack_config: NackConfig | None = None,
        enable_fec: bool = False,
        enable_playout: bool = False,
        playout_config: PlayoutConfig | None = None,
        flow_suffix: str = "",
        telemetry: Telemetry | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._network = network
        self._telemetry = telemetry or NULL_TELEMETRY
        self._media_flow = f"media{flow_suffix}"
        self._feedback_flow = f"feedback{flow_suffix}"
        self._rtcp_flow = f"rtcp{flow_suffix}"
        self.fec_decoder: FecDecoder | None = None
        if enable_fec:
            self.fec_decoder = FecDecoder()
        self.playout: PlayoutBuffer | None = None
        if enable_playout:
            self.playout = PlayoutBuffer(playout_config)
        self._nack_assembler: NackFrameAssembler | None = None
        self._nack_process: PeriodicProcess | None = None
        if enable_nack:
            self._nack_assembler = NackFrameAssembler(
                send_nack=self._send_nack,
                send_pli=self._send_pli if enable_pli else None,
                config=nack_config,
                playout=self.playout,
                telemetry=telemetry,
            )
            self.assembler = None
            self._nack_process = PeriodicProcess(
                scheduler, NACK_POLL_INTERVAL, self._poll_nack
            )
        else:
            self.assembler = FrameAssembler(
                send_pli=self._send_pli if enable_pli else None,
                playout=self.playout,
                telemetry=telemetry,
            )
        self.collector = FeedbackCollector()
        self._feedback_process = PeriodicProcess(
            scheduler, feedback_interval, self._send_feedback
        )
        network.on_forward(self._media_flow, self._on_media)
        self.feedback_sent = 0
        self.nack_packets_sent = 0

    # ------------------------------------------------------------------
    @property
    def nack_assembler(self) -> NackFrameAssembler | None:
        """The NACK-aware assembler, when NACK is enabled."""
        return self._nack_assembler

    def frames(self) -> list[FrameRecord]:
        """Per-frame receiver records, in order."""
        if self._nack_assembler is not None:
            return self._nack_assembler.frames()
        assert self.assembler is not None
        return self.assembler.frames()

    def stop(self) -> None:
        """Stop the periodic feedback and NACK polling."""
        self._feedback_process.stop()
        if self._nack_process is not None:
            self._nack_process.stop()

    # ------------------------------------------------------------------
    def _on_media(self, packet: Packet) -> None:
        now = self._scheduler.now
        self.collector.on_packet(packet.seq, now, packet.size_bytes)
        if (
            isinstance(packet.payload, dict)
            and packet.payload.get("fec")
        ):
            self._on_parity(packet, now)
            return
        if self.fec_decoder is not None:
            self.fec_decoder.on_media(packet)
        self._assemble(packet, now)

    def _on_parity(self, packet: Packet, now: float) -> None:
        if self.fec_decoder is None:
            return  # FEC off at the receiver: parity is dead weight
        # Recover first, then register the parity sequences (the other
        # order would confirm the gap as a loss prematurely).
        for recovered in self.fec_decoder.on_parity(packet):
            self._telemetry.count("fec.recovered_packets")
            self._assemble(recovered, now)
        # Register the frame's whole announced parity range: a *lost*
        # parity is harmless and must not read as a lost frame.
        payload = packet.payload
        base = packet.seq - payload.get("parity_index", 0)
        count = payload.get("parity_count", 1)
        for seq in range(base, base + count):
            if self._nack_assembler is not None:
                self._nack_assembler.note_seq(seq, now)
            else:
                assert self.assembler is not None
                self.assembler.note_seq(seq, now)

    def _assemble(self, packet: Packet, now: float) -> None:
        if self._nack_assembler is not None:
            self._nack_assembler.on_packet(packet, now)
        else:
            assert self.assembler is not None
            self.assembler.on_packet(packet, now)

    def _poll_nack(self, _tick: int) -> None:
        assert self._nack_assembler is not None
        self._nack_assembler.poll(self._scheduler.now)

    def _send_feedback(self, _tick: int) -> None:
        report = self.collector.build_report(self._scheduler.now)
        if report is None:
            return
        packet = Packet(
            size_bytes=report.wire_size_bytes(),
            flow=self._feedback_flow,
            payload=report,
        )
        packet.send_time = self._scheduler.now
        self._network.send_reverse(packet)
        self.feedback_sent += 1
        self._telemetry.count("receiver.feedback_sent")

    def _send_pli(self) -> None:
        packet = Packet(
            size_bytes=PLI_SIZE_BYTES, flow=self._rtcp_flow, payload="PLI"
        )
        packet.send_time = self._scheduler.now
        self._network.send_reverse(packet)
        self._telemetry.count("receiver.pli_sent")

    def _send_nack(self, seqs: list[int]) -> None:
        packet = Packet(
            size_bytes=40 + 4 * len(seqs),
            flow=self._rtcp_flow,
            payload=("NACK", tuple(seqs)),
        )
        packet.send_time = self._scheduler.now
        self._network.send_reverse(packet)
        self.nack_packets_sent += 1
        self._telemetry.count("receiver.nack_packets_sent")
