"""Cross traffic and the duplex network."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.netsim.crosstraffic import CbrCrossTraffic, PoissonCrossTraffic
from repro.netsim.network import DuplexNetwork
from repro.netsim.packet import Packet
from repro.units import mbps


def test_cbr_cross_traffic_rate(scheduler, flat_trace):
    sent = []

    def send(packet):
        sent.append(packet)
        return True

    CbrCrossTraffic(
        scheduler, send, rate_bps=mbps(1.2), packet_bytes=1500
    )
    scheduler.run_until(10.0)
    # 1.2 Mbps / 12_000 bits = 100 packets/s.
    assert len(sent) == pytest.approx(1000, abs=2)


def test_cbr_stops_at_stop_time(scheduler):
    sent = []
    CbrCrossTraffic(
        scheduler,
        lambda p: sent.append(p) or True,
        rate_bps=mbps(1.2),
        packet_bytes=1500,
        stop_at=1.0,
    )
    scheduler.run_until(5.0)
    count_at_1s = len(sent)
    assert 95 <= count_at_1s <= 105


def test_poisson_cross_traffic_mean_rate(scheduler, rng):
    sent = []
    PoissonCrossTraffic(
        scheduler,
        lambda p: sent.append(p) or True,
        rate_bps=mbps(1.2),
        rng=rng,
        packet_bytes=1500,
    )
    scheduler.run_until(50.0)
    assert len(sent) == pytest.approx(5000, rel=0.1)


def test_duplex_network_dispatches_by_flow(scheduler, flat_trace):
    network = DuplexNetwork(scheduler, flat_trace, 0.01, 100_000)
    media, feedback = [], []
    network.on_forward("media", media.append)
    network.on_reverse("feedback", feedback.append)
    network.send_forward(Packet(size_bytes=100, flow="media"))
    network.send_forward(Packet(size_bytes=100, flow="unknown"))
    network.send_reverse(Packet(size_bytes=50, flow="feedback"))
    scheduler.run_until(1.0)
    assert len(media) == 1
    assert len(feedback) == 1


def test_duplex_network_rtt(scheduler, flat_trace):
    network = DuplexNetwork(scheduler, flat_trace, 0.02, 100_000)
    assert network.rtt() == pytest.approx(0.04)


def test_duplicate_handler_rejected(scheduler, flat_trace):
    network = DuplexNetwork(scheduler, flat_trace, 0.01, 100_000)
    network.on_forward("media", lambda p: None)
    with pytest.raises(ConfigError):
        network.on_forward("media", lambda p: None)


def test_cross_traffic_invalid_params(scheduler):
    with pytest.raises(ConfigError):
        CbrCrossTraffic(scheduler, lambda p: True, rate_bps=0)
