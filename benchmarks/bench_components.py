"""Micro-benchmarks of the substrate components (simulator throughput).

These are conventional pytest-benchmark timings: how fast the event
kernel, link, encoder model, GCC, and a full session run. Useful for
catching performance regressions in the simulator itself.
"""

from __future__ import annotations

from repro.cc.gcc.gcc import GoogCcController
from repro.codec.encoder import SimulatedEncoder
from repro.codec.model import RateDistortionModel
from repro.codec.source import CapturedFrame
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.pipeline.config import NetworkConfig, PolicyName, SessionConfig
from repro.pipeline.runner import run_session
from repro.rtp.feedback import PacketResult
from repro.simcore.rng import RngStreams
from repro.simcore.scheduler import Scheduler
from repro.traces.bandwidth import BandwidthTrace
from repro.traces.content import FrameContent
from repro.units import mbps


def test_bench_scheduler_throughput(benchmark):
    def run_10k_events():
        scheduler = Scheduler()
        for i in range(10_000):
            scheduler.call_at(i * 1e-4, lambda: None)
        scheduler.run()
        return scheduler.events_fired

    assert benchmark(run_10k_events) == 10_000


def test_bench_scheduler_run_until_hot_loop(benchmark):
    """The fused peek/step loop in ``run_until``.

    One cancelled-slot check + one heappop per iteration; a third of
    the events are cancelled so the lazy-drop path is exercised too.
    """

    def run_until_30k_events():
        scheduler = Scheduler()
        events = [
            scheduler.call_at(i * 1e-4, lambda: None)
            for i in range(30_000)
        ]
        for event in events[::3]:
            scheduler.cancel(event)
        scheduler.run_until(4.0)
        return scheduler.events_fired

    assert benchmark(run_until_30k_events) == 20_000


def test_bench_link_packet_rate(benchmark):
    def push_5k_packets():
        scheduler = Scheduler()
        delivered = []
        link = Link(
            scheduler,
            BandwidthTrace.constant(mbps(100)),
            0.01,
            10**9,
            delivered.append,
        )
        for _ in range(5000):
            link.send(Packet(size_bytes=1200))
        scheduler.run()
        return len(delivered)

    assert benchmark(push_5k_packets) == 5000


def test_bench_encoder_frame_rate(benchmark):
    rng = RngStreams(1)

    def encode_1k_frames():
        encoder = SimulatedEncoder(
            RateDistortionModel(), 30.0, mbps(1), rng
        )
        for i in range(1000):
            content = FrameContent(i, 1.0, False, 0.5)
            encoder.encode(
                CapturedFrame(i, i / 30, content), i / 30
            )
        return encoder.frames_encoded

    assert benchmark(encode_1k_frames) == 1000


def test_bench_gcc_feedback_rate(benchmark):
    def process_1k_batches():
        gcc = GoogCcController(mbps(1))
        seq = 0
        for round_index in range(1000):
            now = 0.05 * (round_index + 1)
            results = [
                PacketResult(
                    seq=seq + i,
                    send_time=now - 0.05 + 0.005 * i,
                    arrival_time=now - 0.03 + 0.005 * i,
                    size_bytes=1200,
                )
                for i in range(8)
            ]
            seq += 8
            gcc.on_packet_results(now, results)
        return gcc.target_bps()

    assert benchmark(process_1k_batches) > 0


def _session_config(enable_telemetry: bool = False) -> SessionConfig:
    return SessionConfig(
        network=NetworkConfig(
            capacity=BandwidthTrace.constant(mbps(2)),
            queue_bytes=140_000,
        ),
        policy=PolicyName.ADAPTIVE,
        duration=10.0,
        seed=1,
        enable_telemetry=enable_telemetry,
    )


def test_bench_full_session(benchmark):
    config = _session_config()
    result = benchmark.pedantic(
        lambda: run_session(config), rounds=3, iterations=1
    )
    assert len(result.frames) > 250


def test_bench_full_session_with_telemetry(benchmark):
    """Same session with the recorder on — compare against
    ``test_bench_full_session`` to read the instrumentation overhead
    (the acceptance bar is ~5% when disabled; enabled costs more, which
    is fine because traced runs are opt-in)."""
    config = _session_config(enable_telemetry=True)
    result = benchmark.pedantic(
        lambda: run_session(config), rounds=3, iterations=1
    )
    assert len(result.frames) > 250
    assert result.traces is not None
    assert len(result.traces.series_names()) >= 10
