"""Baseline policies: reconfig cadence and per-frame behaviour."""

from __future__ import annotations

import pytest

from repro.baselines.default_abr import DefaultAbrPolicy
from repro.baselines.salsify_like import SalsifyLikePolicy
from repro.baselines.webrtc_like import WebrtcLikePolicy
from repro.cc.gcc.gcc import GoogCcController
from repro.cc.interface import CongestionController
from repro.codec.encoder import SimulatedEncoder
from repro.codec.model import RateDistortionModel
from repro.errors import ConfigError
from repro.rtp.feedback import FeedbackReport, PacketResult
from repro.rtp.pacer import Pacer
from repro.simcore.rng import RngStreams
from repro.simcore.scheduler import Scheduler

FPS = 30.0


def _report(now):
    return FeedbackReport(
        created_at=now, arrivals=(), highest_seq=0, cumulative_received=0
    )


def _rig(target=1_000_000):
    scheduler = Scheduler()
    encoder = SimulatedEncoder(
        RateDistortionModel(), FPS, target, RngStreams(1)
    )
    pacer = Pacer(scheduler, lambda p: None, target)
    return scheduler, encoder, pacer


class _StepController(CongestionController):
    """A controller that ignores feedback; the test sets its rate."""

    def __init__(self, rate_bps):
        self._rate = rate_bps

    def on_packet_results(self, now, results):
        pass

    def target_bps(self):
        return self._rate

    def set_rate(self, bps):
        self._rate = bps


def test_default_abr_reconfigures_on_timer_only():
    _, encoder, pacer = _rig()
    cc = _StepController(1_000_000)
    policy = DefaultAbrPolicy(encoder, pacer, cc, update_interval=1.0)
    policy.on_feedback(0.0, _report(0.0), [])
    assert policy.reconfig_count == 1
    cc.set_rate(300_000)
    policy.on_feedback(0.5, _report(0.5), [])  # too soon for the encoder
    assert encoder.target_bps == 1_000_000
    # ...but the pacer follows immediately.
    assert pacer.pacing_rate_bps == pytest.approx(300_000 * 2.5)
    policy.on_feedback(1.0, _report(1.0), [])
    assert encoder.target_bps == 300_000
    assert policy.reconfig_count == 2


def test_default_abr_rejects_bad_interval():
    _, encoder, pacer = _rig()
    with pytest.raises(ConfigError):
        DefaultAbrPolicy(
            encoder, pacer, _StepController(1e6), update_interval=0
        )


def test_default_abr_no_per_frame_intervention():
    _, encoder, pacer = _rig()
    policy = DefaultAbrPolicy(encoder, pacer, _StepController(1e6))
    directive = policy.before_frame(0.5)
    assert not directive.skip
    assert directive.max_bits is None


def test_webrtc_like_applies_target_every_feedback():
    _, encoder, pacer = _rig()
    cc = _StepController(1_000_000)
    policy = WebrtcLikePolicy(encoder, pacer, cc)
    cc.set_rate(400_000)
    policy.on_feedback(0.05, _report(0.05), [])
    assert encoder.target_bps == 400_000
    assert pacer.pacing_rate_bps == pytest.approx(400_000 * 2.5)
    directive = policy.before_frame(0.1)
    assert directive.max_bits is None and not directive.skip


def test_salsify_caps_every_frame():
    _, encoder, pacer = _rig()
    gcc = GoogCcController(1_000_000)
    policy = SalsifyLikePolicy(encoder, pacer, gcc, FPS)
    directive = policy.before_frame(0.1)
    assert directive.max_bits is not None
    assert directive.max_bits == pytest.approx(
        0.85 * gcc.target_bps() / FPS
    )


def test_salsify_pauses_on_backlog():
    _, encoder, pacer = _rig()
    gcc = GoogCcController(1_000_000)
    policy = SalsifyLikePolicy(
        encoder, pacer, gcc, FPS, pause_queuing_delay=0.05,
        max_consecutive_skips=2,
    )
    # Feed results showing a large one-way delay increase.
    base = [
        PacketResult(seq=i, send_time=0.01 * i,
                     arrival_time=0.01 * i + 0.02, size_bytes=1200)
        for i in range(3)
    ]
    policy.on_feedback(0.1, _report(0.1), base)
    late = [
        PacketResult(seq=3 + i, send_time=0.1 + 0.01 * i,
                     arrival_time=0.1 + 0.01 * i + 0.3, size_bytes=1200)
        for i in range(3)
    ]
    policy.on_feedback(0.2, _report(0.2), late)
    assert policy.before_frame(0.25).skip
    assert policy.before_frame(0.28).skip
    # Bounded: the third consecutive frame is encoded.
    assert not policy.before_frame(0.31).skip
    assert policy.frames_skipped == 2


def test_salsify_validation():
    _, encoder, pacer = _rig()
    gcc = GoogCcController(1e6)
    with pytest.raises(ConfigError):
        SalsifyLikePolicy(encoder, pacer, gcc, fps=0)
    with pytest.raises(ConfigError):
        SalsifyLikePolicy(encoder, pacer, gcc, FPS, margin=1.5)
