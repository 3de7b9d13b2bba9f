"""Every metric the benchmark prints: unit, direction and meaning.

``BENCHMARK.json`` carries the names, units, directions and regression
bounds that comparisons between commits use (a test keeps the two in
step). This catalogue adds what that file's fixed schema has no room
for: for a per-layer metric, the end-to-end metric it should move and
the workloads where it does work.

Per-layer metrics are per cell. Counts pool one traced pass per seed
group, so they are exact for a workload seed; times are the median
traced pass, in wall seconds. End-to-end times are nominal seconds
(see ``reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()


ALL = ("table1", "impaired", "fleet")
SPEED = ("sim_speed_x",)

END_TO_END = (
    Metric("setup_s", "s", "lower",
           "Process start to the first timed cell (imports, inputs, fresh "
           "cache); median of several set-ups."),
    Metric("sim_speed_x", "sim-s/s", "higher",
           "Simulated seconds per second of cold runs: one pass per seed "
           "group, each group timed by the median of its passes."),
    Metric("replay_cells_per_s", "1/s", "higher",
           "Cells per second run_many serves from the cache the cold pass "
           "wrote; median of the run's passes."),
    Metric("peak_rss_mb", "MB", "lower", "Peak resident set of the run."),
    Metric("call_p50_ms", "sim-ms", "lower",
           "Median capture-to-display latency of displayed frames."),
    Metric("call_p99_ms", "sim-ms", "lower",
           "99th-percentile capture-to-display latency of displayed "
           "frames."),
    Metric("call_freeze_pct", "%", "lower",
           "Capture slots with no fresh frame displayed."),
    Metric("call_ssim", "ratio", "higher",
           "Mean SSIM of displayed frames."),
)

PER_LAYER = (
    Metric("simcore.events", "count", "lower",
           "scheduler.events_fired per cell.", SPEED, ALL),
    Metric("simcore.lane_share", "ratio", "higher",
           "lane_events_fired / events_fired (0 on a kernel without "
           "lanes).", SPEED, ("table1", "impaired")),
    Metric("simcore.self_s", "s", "lower",
           "run_until span minus the layer spans inside it (see "
           "tracer.SIMCORE_COVERS).", SPEED, ALL),
    Metric("codec.self_s", "s", "lower",
           "SimulatedEncoder.encode / skip_frame.", SPEED,
           ("table1", "fleet")),
    Metric("codec.calls", "count", "lower", "Calls into the codec spans.",
           SPEED, ("table1", "fleet")),
    Metric("cc.self_s", "s", "lower",
           "GoogCcController.on_packet_results.", SPEED,
           ("table1", "impaired")),
    Metric("cc.calls", "count", "lower", "Calls into the cc span.", SPEED,
           ("table1", "impaired")),
    Metric("core.self_s", "s", "lower",
           "AdaptiveEncoderController before_frame / after_frame / "
           "on_feedback.", SPEED, ("table1", "impaired")),
    Metric("core.calls", "count", "lower", "Calls into the core spans.",
           SPEED, ("table1", "impaired")),
    Metric("baselines.self_s", "s", "lower",
           "The same three calls on WebrtcLikePolicy.", SPEED, ("table1",)),
    Metric("rtp.self_s", "s", "lower",
           "Sender.send_frame (packetize, FEC, pacer enqueue).", SPEED,
           ("impaired",)),
    Metric("rtp.calls", "count", "lower", "Calls into the rtp span.",
           SPEED, ("impaired",)),
    Metric("sfu.self_s", "s", "lower",
           "SfuNode.on_uplink_packet / on_receiver_feedback.", SPEED,
           ("fleet",)),
    Metric("sfu.calls", "count", "lower", "Calls into the sfu spans.",
           SPEED, ("fleet",)),
    Metric("pipeline.hash_s", "s", "lower", "config_hash, inclusive.",
           ("sim_speed_x", "replay_cells_per_s"), ("table1",)),
    Metric("pipeline.put_s", "s", "lower", "ResultCache.put, inclusive.",
           SPEED, ("table1",)),
    Metric("pipeline.get_s", "s", "lower",
           "ResultCache.get, inclusive (cold miss plus warm hit).",
           ("replay_cells_per_s",), ("table1",)),
    Metric("pipeline.entry_kb", "KB", "lower",
           "Size of an untraced cache entry.", ("replay_cells_per_s",),
           ("table1",)),
    Metric("pipeline.hit_ratio", "ratio", "higher",
           "Warm-replay cache hits / cells.", ("replay_cells_per_s",),
           ("table1",)),
    Metric("netsim.queue_delay_p95_ms", "sim-ms", "lower",
           "p95 of telemetry series net.queue_delay.", ("call_p99_ms",),
           ("table1",)),
    Metric("rtp.pacer_delay_p95_ms", "sim-ms", "lower",
           "p95 of telemetry series pacer.queue_delay.", ("call_p99_ms",),
           ("table1", "impaired")),
    Metric("rtp.playout_delay_p50_ms", "sim-ms", "lower",
           "p50 of telemetry series rtp.playout_delay.", ("call_p50_ms",),
           ("impaired",)),
    Metric("core.frames_skipped", "count", "lower",
           "Telemetry counter policy.frames_skipped per cell.",
           ("call_p99_ms", "call_ssim"), ("table1",)),
    Metric("rtp.retransmissions", "count", "lower",
           "Telemetry counter sender.retransmissions per cell.",
           ("call_freeze_pct",), ("impaired",)),
    Metric("rtp.fec_recovery_ratio", "ratio", "higher",
           "fec.recovered_packets / fec.parity_packets.",
           ("call_freeze_pct",), ("impaired",)),
    Metric("sfu.probe_success", "ratio", "higher",
           "sfu.probes_validated / sfu.probes_started.",
           ("call_ssim", "call_freeze_pct"), ("fleet",)),
    Metric("sfu.layer_switches", "count", "lower",
           "Telemetry counter sfu.layer_switches per cell.",
           ("call_freeze_pct",), ("fleet",)),
    Metric("latency_reduction_pct", "%", "higher",
           "Adaptive vs webrtc mean drop-window latency, Table 1's row "
           "math averaged over the drop ratios (0 without that pair).",
           ("call_p50_ms", "call_p99_ms"), ("table1",)),
    Metric("bench.trace_overhead_pct", "%", "lower",
           "Traced vs untraced cold-pass wall time.", (), ALL),
)
