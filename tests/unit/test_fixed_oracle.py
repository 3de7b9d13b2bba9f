"""The oracle congestion controller."""

from __future__ import annotations

import pytest

from repro.cc.oracle import OracleController
from repro.errors import ConfigError


def test_oracle_tracks_capacity(drop_trace):
    oracle = OracleController(drop_trace, utilization=0.9)
    oracle.advance(1.0)
    assert oracle.target_bps() == pytest.approx(0.9 * 2e6)
    oracle.advance(6.0)
    assert oracle.target_bps() == pytest.approx(0.9 * 0.5e6)


def test_oracle_knowledge_delay(drop_trace):
    oracle = OracleController(
        drop_trace, utilization=1.0, knowledge_delay=1.0
    )
    oracle.advance(5.5)  # capacity dropped at t=5, oracle knows t=4.5
    assert oracle.target_bps() == pytest.approx(2e6)
    oracle.advance(6.5)
    assert oracle.target_bps() == pytest.approx(0.5e6)


def test_oracle_clock_is_monotone(drop_trace):
    oracle = OracleController(drop_trace)
    oracle.advance(6.0)
    oracle.advance(2.0)  # ignored; time does not rewind
    assert oracle.target_bps() == pytest.approx(0.9 * 0.5e6)


def test_oracle_validation(drop_trace):
    with pytest.raises(ConfigError):
        OracleController(drop_trace, utilization=0.0)
    with pytest.raises(ConfigError):
        OracleController(drop_trace, knowledge_delay=-1.0)
