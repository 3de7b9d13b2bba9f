"""Simulcast/SFU: unit behaviour of the node + end-to-end sessions."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.netsim.packet import Packet
from repro.pipeline.config import NetworkConfig, PolicyName
from repro.pipeline.runner import run_session
from repro.experiments import scenarios
from repro.sfu import SimulcastConfig, SimulcastLayer, SimulcastSession
from repro.sfu.node import SfuNode
from repro.simcore.scheduler import Scheduler
from repro.traces.generators import drop_ratio_scenario
from repro.units import mbps


def _media_packet(seq, frame=0, frame_type="P"):
    return Packet(
        size_bytes=1200,
        seq=seq,
        frame_index=frame,
        frame_packet_index=0,
        frame_packet_count=1,
        payload={"frame_type": frame_type, "temporal_layer": 0},
    )


def _node(scheduler, sent, keyreqs):
    return SfuNode(
        scheduler,
        send_downlink=lambda p: sent.append(p) or True,
        request_keyframe=keyreqs.append,
        layer_rates={"hi": 1_800_000.0, "lo": 300_000.0},
        initial_layer="hi",
    )


def test_node_forwards_current_layer_with_rewritten_seq():
    scheduler = Scheduler()
    sent, keyreqs = [], []
    node = _node(scheduler, sent, keyreqs)
    node.on_uplink_packet("hi", _media_packet(100, frame_type="I"))
    node.on_uplink_packet("lo", _media_packet(40, frame_type="I"))
    node.on_uplink_packet("hi", _media_packet(101))
    assert [p.seq for p in sent] == [0, 1]  # rewritten, contiguous
    assert node.dropped_layer_packets == 1
    assert node.current_layer == "hi"


def test_node_switch_waits_for_keyframe():
    scheduler = Scheduler()
    sent, keyreqs = [], []
    node = _node(scheduler, sent, keyreqs)
    node._pending = "lo"
    node.on_uplink_packet("lo", _media_packet(0, frame_type="P"))
    assert node.current_layer == "hi"  # P-frame can't start the layer
    node.on_uplink_packet("lo", _media_packet(1, frame_type="I"))
    assert node.current_layer == "lo"
    assert node.switches and node.switches[0][1] == "lo"


def test_node_validation():
    scheduler = Scheduler()
    with pytest.raises(ConfigError):
        SfuNode(
            scheduler,
            send_downlink=lambda p: True,
            request_keyframe=lambda layer: None,
            layer_rates={"hi": 1e6},
        )
    with pytest.raises(ConfigError):
        SfuNode(
            scheduler,
            send_downlink=lambda p: True,
            request_keyframe=lambda layer: None,
            layer_rates={"hi": 1e6, "lo": 3e5},
            initial_layer="nope",
        )


def test_simulcast_config_validation():
    net = NetworkConfig(capacity=drop_ratio_scenario(mbps(2.5), 0.5))
    with pytest.raises(ConfigError):
        SimulcastConfig(
            network=net, layers=(SimulcastLayer("hi", 1e6, 1.0),)
        ).validate()
    with pytest.raises(ConfigError):
        SimulcastConfig(
            network=net,
            layers=(
                SimulcastLayer("lo", 3e5, 0.25),
                SimulcastLayer("hi", 1.8e6, 1.0),
            ),
        ).validate()  # wrong order
    with pytest.raises(ConfigError):
        SimulcastConfig(
            network=net,
            layers=(
                SimulcastLayer("a", 1.8e6, 1.0),
                SimulcastLayer("a", 3e5, 0.25),
            ),
        ).validate()  # duplicate names


@pytest.mark.parametrize(
    "mutation",
    [
        {"duration": float("nan")},
        {"duration": float("inf")},
        {"grace_period": float("nan")},
        {"grace_period": float("inf")},
        {"grace_period": -1.0},
    ],
)
def test_simulcast_config_rejects_bad_session_times(mutation):
    """The session runs to ``duration + grace_period``, so both must be
    finite, and the grace must not be negative."""
    net = NetworkConfig(capacity=drop_ratio_scenario(mbps(2.5), 0.5))
    with pytest.raises(ConfigError):
        SimulcastConfig(network=net, **mutation).validate()


@pytest.fixture(scope="module")
def drop_run():
    capacity = drop_ratio_scenario(mbps(2.5), 0.2, 10.0, 10.0)
    config = SimulcastConfig(
        network=NetworkConfig(capacity=capacity, queue_bytes=140_000),
        duration=30.0,
        seed=1,
    )
    session = SimulcastSession(config)
    result = session.run()
    return session, result


def test_simulcast_switches_down_quickly(drop_run):
    session, result = drop_run
    downswitches = [t for t, layer in session.sfu.switches if layer == "lo"]
    assert downswitches
    assert 10.0 < downswitches[0] < 11.0  # within ~1 s of the drop


def test_simulcast_bounds_the_latency_spike(drop_run):
    _, result = drop_run
    assert result.mean_latency(10, 20) < 0.5
    assert result.freeze_fraction() < 0.1


def test_simulcast_quality_floor_below_encoder_adaptation(drop_run):
    """The production alternative reacts as fast but pays the layer
    ladder's quality quantization — the paper's approach re-targets the
    full-resolution encode instead."""
    _, sim_result = drop_run
    adaptive = run_session(
        dataclasses.replace(
            scenarios.step_drop_config(0.2, seed=1),
            policy=PolicyName.ADAPTIVE,
            duration=30.0,
        )
    )
    assert sim_result.mean_displayed_ssim(10, 20) < (
        adaptive.mean_displayed_ssim(10, 20)
    )
    # Comparable latency order: both bounded well below the slow
    # baseline's multi-second spike.
    assert sim_result.mean_latency(10, 20) < 0.6
    assert adaptive.mean_latency(10, 20) < 0.6


def test_simulcast_steady_state_uses_high_layer(drop_run):
    session, result = drop_run
    # Before the drop everything ran on the hi layer at good quality.
    assert result.mean_displayed_ssim(2, 9) > 0.95
    hi_frames = [
        idx for idx, layer in session._display_layer.items() if layer == "hi"
    ]
    assert len(hi_frames) > 200


def test_simulcast_probing_is_bounded(drop_run):
    session, _ = drop_run
    # Probing happens but does not flood (bounded by interval+backoff).
    assert 0 < session.sfu.probes_sent < 25
