"""The fleet simulator: many coupled SFU sessions in one event loop.

Topology (two regions shown; the mesh generalizes)::

    pub ──uplink──► SFU a ────inter-node────► SFU b
                      │                         │
                shared regional            shared regional
                 downlink (one             downlink (one
                 queue, all of              queue, all of
                 region a's subs)           region b's subs)
                      │                         │
                  sub sub sub …             sub sub sub …

Every subscriber runs its own :class:`~repro.sfu.node.SfuNode` — its
own GCC, layer selection, probing — but all subscribers homed in a
region drain through **one** shared downlink :class:`Link`. That single
queue is the cross-session coupling: one subscriber's probe burst or
layer upgrade adds queueing delay for every neighbor, their GCC
estimates react, and the population settles into a layer mix the
capacity actually supports. Nothing here is averaged or modeled — the
coupling emerges from packets in one scheduler.

Determinism: one :class:`RngStreams` per fleet feeds content traces,
encoder noise, and churn draws through named streams; the event loop
adds no entropy. Same seed ⇒ byte-identical
:class:`~repro.fleet.result.FleetResult` on every backend.
"""

from __future__ import annotations

import copy

from ..codec.encoder import SimulatedEncoder
from ..codec.model import RateDistortionModel
from ..codec.source import VideoSource
from ..errors import ConfigError
from ..faults.apply import faulted_capacity
from ..faults.spec import FaultKind
from ..netsim.link import Link
from ..netsim.packet import Packet
from ..rtp.feedback import FeedbackCollector, FeedbackReport
from ..rtp.packetizer import Packetizer
from ..sfu.node import SfuNode
from ..simcore.process import PeriodicProcess
from ..simcore.rng import RngStreams
from ..simcore.scheduler import Scheduler
from ..telemetry.recorder import NULL_TELEMETRY, Telemetry
from ..traces.bandwidth import BandwidthTrace
from ..traces.content import ContentTrace
from ..units import mbps
from .result import FleetResult, aggregate_rows, percentile_ms
from .topology import FleetConfig

#: Minimum spacing between PLIs from one subscriber (mirrors the
#: jitter-buffer PLI throttle in the single-session receiver).
PLI_MIN_INTERVAL = 0.25

#: Reverse (feedback) path provisioning — generous, like the
#: single-session harness: feedback starving is modeled by *faults*,
#: not by an undersized control channel.
REVERSE_BPS = mbps(100)
REVERSE_QUEUE_BYTES = 256_000

#: Feedback senders are phase-staggered across this many slots so the
#: population's TWCC reports don't all fire on the same instant.
FEEDBACK_PHASES = 16


class _Publisher:
    """One publisher session: source + per-layer encoders, one uplink."""

    __slots__ = (
        "pid",
        "region",
        "content",
        "source",
        "encoders",
        "packetizers",
        "uplink",
    )

    def __init__(self, pid: int, region: int) -> None:
        self.pid = pid
        self.region = region
        self.content: ContentTrace | None = None
        self.source: VideoSource | None = None
        self.encoders: dict[str, SimulatedEncoder] = {}
        self.packetizers: dict[str, Packetizer] = {}
        self.uplink: Link | None = None


class _Subscriber:
    """One subscriber session: an SfuNode plus lightweight decode state.

    The fleet receiver is deliberately lighter than the single-session
    :class:`~repro.rtp.jitterbuffer.FrameAssembler`: it tracks frame
    completion and the decode chain (I resets, P needs its predecessor)
    and records display latency — enough for population QoE without
    per-frame playout state for hundreds of sessions.
    """

    __slots__ = (
        "gid",
        "region",
        "pub",
        "join",
        "leave",
        "active",
        "node",
        "collector",
        "received",
        "needed",
        "frame_payload",
        "fwd_layer",
        "chain",
        "displayed",
        "last_pli",
        "plis",
    )

    def __init__(
        self, gid: int, region: int, pub: int, join: float, leave: float
    ) -> None:
        self.gid = gid
        self.region = region
        self.pub = pub
        self.join = join
        self.leave = leave
        self.active = join <= 0.0
        self.node: SfuNode | None = None
        self.collector = FeedbackCollector()
        self.received: dict[int, set[int]] = {}
        self.needed: dict[int, int] = {}
        self.frame_payload: dict[int, dict] = {}
        self.fwd_layer: dict[int, str] = {}
        self.chain = -1  # last decodable frame index; -1 = want frame 0
        self.displayed: list[tuple[int, float, str]] = []
        self.last_pli = float("-inf")
        self.plis = 0


class FleetSession:
    """Build and run one :class:`FleetConfig` to a :class:`FleetResult`."""

    def __init__(
        self, config: FleetConfig, telemetry: Telemetry = NULL_TELEMETRY
    ) -> None:
        config.validate()
        self.config = config
        self.scheduler = Scheduler()
        self.rng = RngStreams(config.seed)
        self._telemetry = telemetry

        video = config.video
        n_frames = int(config.duration * video.fps) + 2
        base_model = RateDistortionModel.for_resolution(
            video.width, video.height
        )
        region_names = [region.name for region in config.regions]

        # --- publishers (global ids, region-major) -------------------
        self._pubs: list[_Publisher] = []
        for r_idx, region in enumerate(config.regions):
            for _ in range(region.publishers):
                self._pubs.append(_Publisher(len(self._pubs), r_idx))
        for pub in self._pubs:
            pub.content = ContentTrace(
                video.content_class,
                n_frames,
                self.rng,
                stream=f"fleet-content-{pub.pid}",
            )
            pub.source = VideoSource(
                pub.content, video.fps, video.width, video.height
            )
            for layer in config.layers:
                pub.encoders[layer.name] = SimulatedEncoder(
                    base_model.at_resolution(layer.resolution_scale),
                    video.fps,
                    layer.target_bps,
                    self.rng,
                    rate_control_config=video.rate_control,
                    size_noise_sigma=video.size_noise_sigma,
                    stream=f"fleet-enc-{pub.pid}-{layer.name}",
                )
                # The packet flow carries the layer; the payload carries
                # the publisher id (see _node_ingest).
                pub.packetizers[layer.name] = Packetizer(flow=layer.name)
            pub.uplink = Link(
                self.scheduler,
                BandwidthTrace.constant(config.uplink_bps),
                config.uplink_delay,
                500_000,
                deliver=lambda packet, r=pub.region: self._node_ingest(
                    r, packet
                ),
            )

        # --- membership ----------------------------------------------
        n_subs = config.total_subscribers()
        n_pubs = len(self._pubs)
        joins, leaves = self._membership(n_subs)
        self._subs: list[_Subscriber] = []
        for r_idx, region in enumerate(config.regions):
            for _ in range(region.subscribers):
                gid = len(self._subs)
                self._subs.append(
                    _Subscriber(
                        gid,
                        r_idx,
                        gid % n_pubs,
                        joins[gid],
                        leaves[gid],
                    )
                )

        # watchers[r][p] = subscribers homed in region r watching p
        self._watchers: list[dict[int, list[_Subscriber]]] = [
            {} for _ in config.regions
        ]
        for sub in self._subs:
            self._watchers[sub.region].setdefault(sub.pub, []).append(sub)
        # remote_regions[p] = regions (≠ home) that need p's layers
        self._remote_regions: list[list[int]] = [
            sorted(
                r_idx
                for r_idx in range(len(config.regions))
                if r_idx != pub.region
                and pub.pid in self._watchers[r_idx]
            )
            for pub in self._pubs
        ]

        # --- regional shared links -----------------------------------
        faults = config.faults
        self._downlinks: list[Link] = []
        self._reverses: list[Link] = []
        self._blackout: list[list[tuple[float, float]]] = []
        for r_idx, region in enumerate(config.regions):
            trace = BandwidthTrace.constant(region.downlink_bps)
            faulted = faults is not None and (
                config.faulted_region is None
                or config.faulted_region == region.name
            )
            if faulted:
                trace = faulted_capacity(trace, faults)
            self._downlinks.append(
                Link(
                    self.scheduler,
                    trace,
                    region.downlink_delay,
                    region.downlink_queue_bytes,
                    deliver=self._downlink_deliver,
                )
            )
            self._reverses.append(
                Link(
                    self.scheduler,
                    BandwidthTrace.constant(REVERSE_BPS),
                    region.downlink_delay,
                    REVERSE_QUEUE_BYTES,
                    deliver=lambda packet, r=r_idx: self._reverse_deliver(
                        r, packet
                    ),
                )
            )
            self._blackout.append(
                faults.windows(FaultKind.FEEDBACK_BLACKOUT)
                if faulted and faults is not None
                else []
            )

        # --- inter-node links ----------------------------------------
        name_to_idx = {name: idx for idx, name in enumerate(region_names)}
        self._internode: dict[tuple[int, int], Link] = {}
        for link in config.mesh_links():
            key = (name_to_idx[link.src], name_to_idx[link.dst])
            self._internode[key] = Link(
                self.scheduler,
                BandwidthTrace.constant(link.capacity_bps),
                link.delay,
                link.queue_bytes,
                deliver=lambda packet, dst=key[1]: self._node_remote(
                    dst, packet
                ),
            )
        for pub in self._pubs:
            for r_idx in self._remote_regions[pub.pid]:
                if (pub.region, r_idx) not in self._internode:
                    raise ConfigError(
                        f"no inter-node link "
                        f"{region_names[pub.region]!r} -> "
                        f"{region_names[r_idx]!r} but subscribers there "
                        f"watch publisher {pub.pid}"
                    )

        # --- per-subscriber SFU nodes --------------------------------
        layer_rates = config.layer_rates()
        # Subscribers start on the top layer, as an SFU optimistically
        # does; contention on the shared downlink then forces the
        # population down the ladder until the mix fits capacity.
        initial = config.layers[0].name
        for sub in self._subs:
            downlink = self._downlinks[sub.region]
            sub.node = SfuNode(
                self.scheduler,
                send_downlink=downlink.send,
                request_keyframe=(
                    lambda layer, p=sub.pub: self._request_keyframe(
                        p, layer
                    )
                ),
                layer_rates=layer_rates,
                initial_layer=initial,
                out_flow=f"s{sub.gid}",
                on_forward=(
                    lambda layer, packet, s=sub: s.fwd_layer.setdefault(
                        packet.frame_index, layer
                    )
                ),
                downlink_backlog=downlink.estimated_queue_delay,
                telemetry=self._telemetry,
            )

        # --- processes and membership timers -------------------------
        assert self._pubs[0].source is not None
        self._capture_times: list[float] = []
        self._encoded: dict[tuple[int, str, int], float] = {}
        self._capture_process = PeriodicProcess(
            self.scheduler,
            self._pubs[0].source.frame_interval,
            self._capture,
        )
        self._feedback_processes = [
            PeriodicProcess(
                self.scheduler,
                config.feedback_interval,
                lambda _tick, s=sub: self._send_feedback(s),
                start_at=(
                    (sub.gid % FEEDBACK_PHASES)
                    * config.feedback_interval
                    / FEEDBACK_PHASES
                ),
            )
            for sub in self._subs
        ]
        for sub in self._subs:
            if sub.join > 0.0:
                self.scheduler.call_at(
                    sub.join, lambda s=sub: self._set_active(s, True)
                )
            if sub.leave < config.duration:
                self.scheduler.call_at(
                    sub.leave, lambda s=sub: self._set_active(s, False)
                )

    # ------------------------------------------------------------------
    # Membership (deterministic, drawn before the clock starts)
    # ------------------------------------------------------------------
    def _membership(self, n_subs: int) -> tuple[list[float], list[float]]:
        config = self.config
        joins = [0.0] * n_subs
        leaves = [config.duration] * n_subs
        if config.churn:
            stream = self.rng.stream("fleet-churn")
            for gid in range(n_subs):
                u_join = float(stream.uniform())
                u_dwell = float(stream.uniform())
                joins[gid] = u_join * 0.5 * config.duration
                dwell = (0.3 + 0.7 * u_dwell) * config.duration
                leaves[gid] = min(config.duration, joins[gid] + dwell)
        if config.flash_crowd_at is not None:
            first = int(n_subs * (1.0 - config.flash_crowd_fraction))
            for gid in range(first, n_subs):
                joins[gid] = config.flash_crowd_at
                leaves[gid] = config.duration
        return joins, leaves

    def _set_active(self, sub: _Subscriber, active: bool) -> None:
        sub.active = active

    # ------------------------------------------------------------------
    # Publishers
    # ------------------------------------------------------------------
    def _capture(self, tick: int) -> None:
        now = self.scheduler.now
        if now >= self.config.duration:
            self._capture_process.stop()
            return
        self._capture_times.append(now)
        for pub in self._pubs:
            captured = pub.source.capture(tick, now)
            for name, encoder in pub.encoders.items():
                frame = encoder.encode(captured, now)
                self._encoded[(pub.pid, name, tick)] = frame.ssim
                packets = pub.packetizers[name].packetize(frame)
                payload = {
                    "frame_type": frame.frame_type.value,
                    "temporal_layer": frame.temporal_layer,
                    "pub": pub.pid,
                }
                for packet in packets:
                    packet.payload = payload
                self.scheduler.call_at(
                    frame.encode_done_time,
                    lambda ps=packets, p=pub: self._send_uplink(p, ps),
                )

    def _send_uplink(self, pub: _Publisher, packets: list[Packet]) -> None:
        now = self.scheduler.now
        for packet in packets:
            packet.send_time = now
            pub.uplink.send(packet)

    def _request_keyframe(self, pid: int, layer: str) -> None:
        encoder = self._pubs[pid].encoders[layer]
        self.scheduler.call_in(
            self.config.control_delay, encoder.request_keyframe
        )

    # ------------------------------------------------------------------
    # SFU nodes
    # ------------------------------------------------------------------
    def _node_ingest(self, region: int, packet: Packet) -> None:
        """An uplink packet arrived at the publisher's home node."""
        pid = packet.payload["pub"]
        layer = packet.flow
        for sub in self._watchers[region].get(pid, ()):
            if sub.active:
                sub.node.on_uplink_packet(layer, packet)
        now = self.scheduler.now
        for r_idx in self._remote_regions[pid]:
            # Links mutate packets in transit — each hop gets a copy.
            relay = copy.copy(packet)
            relay.send_time = now
            self._internode[(region, r_idx)].send(relay)

    def _node_remote(self, region: int, packet: Packet) -> None:
        """A relayed packet arrived at a remote node (one-hop mesh)."""
        pid = packet.payload["pub"]
        layer = packet.flow
        for sub in self._watchers[region].get(pid, ()):
            if sub.active:
                sub.node.on_uplink_packet(layer, packet)

    # ------------------------------------------------------------------
    # Subscribers
    # ------------------------------------------------------------------
    def _downlink_deliver(self, packet: Packet) -> None:
        sub = self._subs[int(packet.flow[1:])]
        if not sub.active:
            return
        now = self.scheduler.now
        sub.collector.on_packet(packet.seq, now, packet.size_bytes)
        payload = packet.payload
        if isinstance(payload, dict) and payload.get("padding"):
            return  # probe padding: acked, carries no media
        fi = packet.frame_index
        if fi <= sub.chain:
            return  # stale duplicate from a layer-switch boundary
        got = sub.received.setdefault(fi, set())
        got.add(packet.frame_packet_index)
        sub.needed[fi] = packet.frame_packet_count
        sub.frame_payload[fi] = payload
        if len(got) >= sub.needed[fi]:
            self._frame_complete(sub, fi, packet, now)

    def _frame_complete(
        self, sub: _Subscriber, fi: int, packet: Packet, now: float
    ) -> None:
        payload = sub.frame_payload.pop(fi, None) or {}
        sub.received.pop(fi, None)
        sub.needed.pop(fi, None)
        is_key = payload.get("frame_type") == "I"
        if not is_key and fi != sub.chain + 1:
            # Undecodable: the reference chain is broken. Ask for a
            # keyframe (throttled) and freeze until one arrives.
            if now - sub.last_pli >= PLI_MIN_INTERVAL:
                sub.last_pli = now
                sub.plis += 1
                self._send_pli(sub)
            return
        sub.chain = fi
        latency = now - packet.capture_time
        layer = sub.fwd_layer.pop(fi, sub.node.current_layer)
        sub.displayed.append((fi, latency, layer))
        # Frames older than the chain head can never display; drop
        # their partial reassembly state so long runs stay bounded.
        for stale in [index for index in sub.received if index <= fi]:
            sub.received.pop(stale, None)
            sub.needed.pop(stale, None)
            sub.frame_payload.pop(stale, None)

    def _send_pli(self, sub: _Subscriber) -> None:
        packet = Packet(
            size_bytes=80, flow=f"p{sub.gid}", payload="PLI"
        )
        packet.send_time = self.scheduler.now
        self._reverses[sub.region].send(packet)

    def _send_feedback(self, sub: _Subscriber) -> None:
        if not sub.active:
            return
        now = self.scheduler.now
        report = sub.collector.build_report(now)
        if report is None:
            return
        packet = Packet(
            size_bytes=report.wire_size_bytes(),
            flow=f"f{sub.gid}",
            payload=report,
        )
        packet.send_time = now
        self._reverses[sub.region].send(packet)

    def _reverse_deliver(self, region: int, packet: Packet) -> None:
        now = self.scheduler.now
        for start, end in self._blackout[region]:
            if start <= now < end:
                return  # whole reverse path is dark during a blackout
        sub = self._subs[int(packet.flow[1:])]
        if packet.flow[0] == "f":
            assert isinstance(packet.payload, FeedbackReport)
            sub.node.on_receiver_feedback(packet.payload)
        else:
            sub.node.on_receiver_pli()

    # ------------------------------------------------------------------
    # Run + finalize
    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Run to completion and aggregate population QoE."""
        config = self.config
        self.scheduler.run_until(config.duration + config.grace_period)
        for process in self._feedback_processes:
            process.stop()

        rows: list[dict] = []
        all_latencies: list[float] = []
        region_rows: dict[str, list[dict]] = {
            region.name: [] for region in config.regions
        }
        region_latencies: dict[str, list[float]] = {
            region.name: [] for region in config.regions
        }
        for sub in self._subs:
            region_name = config.regions[sub.region].name
            slots = sum(
                1
                for t in self._capture_times
                if sub.join <= t < sub.leave
            )
            shown = [
                (fi, latency, layer)
                for fi, latency, layer in sub.displayed
                if self._capture_times[fi] >= sub.join
            ]
            latencies = [latency * 1000.0 for _, latency, _ in shown]
            ssims = [
                self._encoded.get((sub.pub, layer, fi), 0.0)
                for fi, _, layer in shown
            ]
            row = {
                "id": sub.gid,
                "region": region_name,
                "publisher": sub.pub,
                "join": sub.join,
                "leave": sub.leave,
                "slots": slots,
                "displayed": len(shown),
                "freeze_ratio": (
                    1.0 - len(shown) / slots if slots else 0.0
                ),
                "mean_ssim": (
                    sum(ssims) / len(ssims) if ssims else 0.0
                ),
                "p50_ms": percentile_ms(latencies, 50.0),
                "p95_ms": percentile_ms(latencies, 95.0),
                "p99_ms": percentile_ms(latencies, 99.0),
                "switches": len(sub.node.switches),
                "plis": sub.plis,
            }
            rows.append(row)
            all_latencies.extend(latencies)
            region_rows[region_name].append(row)
            region_latencies[region_name].extend(latencies)

        totals = {
            "layer_switches": sum(len(s.node.switches) for s in self._subs),
            "probes_sent": sum(s.node.probes_sent for s in self._subs),
            "probes_validated": sum(
                s.node.probes_validated for s in self._subs
            ),
            "probes_abandoned": sum(
                s.node.probes_abandoned for s in self._subs
            ),
            "keyframe_rerequests": sum(
                s.node.keyframe_rerequests for s in self._subs
            ),
            "plis": sum(s.plis for s in self._subs),
            "forwarded_packets": sum(
                s.node.forwarded_packets for s in self._subs
            ),
            "dropped_layer_packets": sum(
                s.node.dropped_layer_packets for s in self._subs
            ),
        }
        return FleetResult(
            seed=config.seed,
            duration=config.duration,
            regions=[region.name for region in config.regions],
            publishers=len(self._pubs),
            subscribers=len(self._subs),
            population=aggregate_rows(rows, all_latencies),
            per_region={
                name: aggregate_rows(
                    region_rows[name], region_latencies[name]
                )
                for name in region_rows
            },
            per_subscriber=rows,
            totals=totals,
        )
