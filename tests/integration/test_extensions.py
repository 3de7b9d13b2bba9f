"""Integration tests for the extension subsystems.

NACK end-to-end, CoDel sessions, temporal layers, the Kalman estimator,
fast recovery, and audio — each exercised through the full pipeline.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.experiments import artifacts, scenarios
from repro.pipeline import parallel
from repro.pipeline.config import (
    NetworkConfig,
    PolicyName,
    SessionConfig,
    VideoConfig,
)
from repro.pipeline.runner import run_session
from repro.pipeline.session import RtcSession
from repro.traces.bandwidth import BandwidthTrace
from repro.units import mbps


def _lossy_config(**kwargs) -> SessionConfig:
    defaults = dict(
        network=NetworkConfig(
            capacity=BandwidthTrace.constant(mbps(2)),
            queue_bytes=140_000,
            iid_loss=0.02,
        ),
        policy=PolicyName.WEBRTC,
        duration=12.0,
        seed=4,
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def test_nack_eliminates_freezes_under_channel_loss():
    without = run_session(_lossy_config(enable_nack=False))
    with_nack = run_session(_lossy_config(enable_nack=True))
    assert without.freeze_fraction() > 0.1
    assert with_nack.freeze_fraction() < 0.02
    assert with_nack.pli_count < without.pli_count
    assert (
        with_nack.mean_displayed_ssim() > without.mean_displayed_ssim()
    )


def test_nack_recovery_latency_visible():
    """Recovered frames display roughly one RTT+retry later."""
    config = _lossy_config(enable_nack=True)
    session = RtcSession(config)
    result = session.run()
    assembler = session.receiver.nack_assembler
    assert assembler is not None
    assert assembler.recovered_seqs > 5
    # Recovered frames inflate the latency tail relative to the median.
    latencies = result.latencies()
    import numpy as np

    assert np.percentile(latencies, 99) > 2 * np.percentile(latencies, 50)


def test_nack_statistics_exposed():
    config = _lossy_config(enable_nack=True)
    session = RtcSession(config)
    session.run()
    assert session.sender.rtx_buffer is not None
    assert session.sender.rtx_buffer.retransmitted > 0
    assert session.sender.nacks_received > 0
    assert session.receiver.nack_packets_sent > 0


def test_codel_bounds_baseline_tail_latency():
    config = scenarios.step_drop_config(0.2, seed=1)
    droptail = run_session(
        dataclasses.replace(config, policy=PolicyName.ADAPTIVE)
    )
    codel_net = dataclasses.replace(config.network, aqm="codel")
    codel = run_session(
        dataclasses.replace(
            config, network=codel_net, policy=PolicyName.ADAPTIVE
        )
    )
    # For the adaptive sender CoDel keeps the drop-window tail tighter.
    assert codel.percentile_latency(
        95, *scenarios.DROP_WINDOW
    ) < droptail.percentile_latency(95, *scenarios.DROP_WINDOW)


def test_codel_converts_overload_to_loss():
    config = scenarios.step_drop_config(0.2, seed=1)
    codel_net = dataclasses.replace(config.network, aqm="codel")
    result = run_session(
        dataclasses.replace(
            config, network=codel_net, policy=PolicyName.WEBRTC
        )
    )
    lost = sum(1 for f in result.frames if f.lost)
    assert lost > 0
    assert result.pli_count > 0


def test_temporal_layers_session_runs_and_recovers():
    config = scenarios.step_drop_config(0.2, seed=1)
    config = dataclasses.replace(
        config,
        policy=PolicyName.ADAPTIVE,
        video=VideoConfig(temporal_layers=2),
    )
    session = RtcSession(config)
    result = session.run()
    assert result.mean_latency(*scenarios.DROP_WINDOW) < 0.5
    # The T1 lever was exercised.
    assert session.policy.t1_frames_dropped >= 1
    # And it never skipped two captures in a row.
    skip_flags = [f.skipped for f in result.frames]
    t1_only_runs = 0
    for a, b in zip(skip_flags, skip_flags[1:]):
        if a and b:
            t1_only_runs += 1
    # Consecutive skips can come from the severe-skip strategy (bounded
    # at 5); long runs beyond that would indicate the T1 deadlock.
    longest = 0
    run = 0
    for flag in skip_flags:
        run = run + 1 if flag else 0
        longest = max(longest, run)
    assert longest <= 6


def test_kalman_session_adapts():
    config = scenarios.step_drop_config(0.2, seed=1)
    for policy in (PolicyName.WEBRTC, PolicyName.ADAPTIVE):
        result = run_session(
            dataclasses.replace(
                config, policy=policy, cc_estimator="kalman"
            )
        )
        # Both converge below capacity after the drop.
        tail_targets = [
            s.target_bps for s in result.timeseries if 18 < s.time < 20
        ]
        assert max(tail_targets) < mbps(1.0)


def test_fast_recovery_ramps_quicker():
    config = scenarios.step_drop_config(0.2, seed=1)
    base_adaptive = dataclasses.replace(config, policy=PolicyName.ADAPTIVE)
    fast = dataclasses.replace(
        base_adaptive,
        adaptive=dataclasses.replace(
            scenarios.ADAPTIVE_TUNING, enable_fast_recovery=True
        ),
        duration=35.0,
    )
    slow = dataclasses.replace(base_adaptive, duration=35.0)
    fast_session = RtcSession(fast)
    fast_result = fast_session.run()
    slow_result = run_session(slow)
    assert fast_session.policy.recovery_probes >= 1
    assert fast_result.sent_bitrate_bps(25, 35) >= (
        slow_result.sent_bitrate_bps(25, 35)
    )
    # No latency price for probing.
    assert fast_result.mean_latency(25, 35) < 0.15


def test_audio_latency_tracks_video_spike():
    config = scenarios.step_drop_config(0.2, seed=1)
    config = dataclasses.replace(
        config, policy=PolicyName.WEBRTC, enable_audio=True
    )
    result = run_session(config)
    steady = result.mean_audio_latency(2, 9)
    spike = result.mean_audio_latency(*scenarios.DROP_WINDOW)
    assert spike > 3 * steady  # audio rides the same queue


def test_audio_protected_by_adaptive_policy():
    config = scenarios.step_drop_config(0.2, seed=1)
    base = run_session(dataclasses.replace(
        config, policy=PolicyName.WEBRTC, enable_audio=True))
    adap = run_session(dataclasses.replace(
        config, policy=PolicyName.ADAPTIVE, enable_audio=True))
    window = scenarios.DROP_WINDOW
    assert adap.mean_audio_latency(*window) < (
        0.5 * base.mean_audio_latency(*window)
    )


# Ext. J and K run multi-flow and simulcast cells through run_many.
_MULTI_SESSION_CELLS = ["extension_j_fairness", "extension_k_simulcast"]


@pytest.mark.parametrize("name", _MULTI_SESSION_CELLS)
def test_second_produce_runs_no_session(name, tmp_path, monkeypatch):
    context = parallel.configure()
    monkeypatch.setattr(context, "workers", 1)
    monkeypatch.setattr(
        context, "cache", parallel.ResultCache(tmp_path / "cache")
    )
    monkeypatch.setattr(context, "supervisor", None)
    first = artifacts.produce(name, seeds=[1])

    def ran(config):
        raise AssertionError(f"a {type(config).__name__} ran again")

    monkeypatch.setattr(parallel, "run_config", ran)
    assert artifacts.produce(name, seeds=[1]) == first


@pytest.mark.parametrize("name", _MULTI_SESSION_CELLS)
def test_multi_session_cells_check_their_seed_and_weigh_more(name):
    def last_cell(seed):
        params = artifacts.resolve(name, {"seeds": [seed]})
        return artifacts.ARTIFACTS[name].plan(**params)[-1]

    cell = last_cell(1)
    # Two flows, or two simulcast layers: twice a session's cost.
    duration = getattr(cell, "base", cell).duration
    assert parallel.estimate_cost(cell) == 2 * duration
    with pytest.raises(ConfigError, match="seed"):
        last_cell(2**63).validate()

