"""SessionConfig/NetworkConfig/VideoConfig validation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.pipeline.config import (
    NetworkConfig,
    PolicyName,
    SessionConfig,
    VideoConfig,
)
from repro.traces.bandwidth import BandwidthTrace
from repro.units import mbps


def _network():
    return NetworkConfig(capacity=BandwidthTrace.constant(mbps(2)))


def test_valid_default_config():
    SessionConfig(network=_network()).validate()


def test_network_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(_network(), propagation_delay=-1).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(_network(), queue_bytes=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(_network(), iid_loss=1.5).validate()
    # A total blackout (iid_loss = 1.0) is a valid operating point.
    dataclasses.replace(_network(), iid_loss=1.0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(_network(), cross_traffic_bps=-1).validate()


def test_video_validation():
    with pytest.raises(ConfigError):
        VideoConfig(fps=0).validate()
    with pytest.raises(ConfigError):
        VideoConfig(width=0).validate()


def test_session_validation():
    base = SessionConfig(network=_network())
    with pytest.raises(ConfigError):
        dataclasses.replace(base, duration=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, min_bps=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(
            base, initial_target_bps=base.max_bps * 2
        ).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, feedback_interval=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, pacing_multiplier=0.5).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, abr_update_interval=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, grace_period=-1).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["duration", "grace_period"])
def test_session_rejects_non_finite_times(name, value):
    """The session runs to ``duration + grace_period``; a NaN or
    infinite end would keep its periodic timers firing forever."""
    base = SessionConfig(network=_network())
    with pytest.raises(ConfigError):
        dataclasses.replace(base, **{name: value}).validate()


@pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 2**70 + 1])
def test_session_rejects_seed_outside_signed_64_bits(seed):
    """The result echoes the seed, and the result cache reads an
    integer back exactly only inside the signed 64-bit range."""
    config = SessionConfig(network=_network(), seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        config.validate()


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63), 0])
def test_session_accepts_seed_inside_signed_64_bits(seed):
    SessionConfig(network=_network(), seed=seed).validate()


def test_policy_enum_round_trip():
    for policy in PolicyName:
        assert PolicyName(policy.value) is policy
