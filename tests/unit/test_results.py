"""SessionResult metrics and freeze accounting."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.pipeline.results import (
    FREEZE_FLOOR,
    FrameOutcome,
    SessionResult,
)

FPS = 30.0


def _result(outcomes) -> SessionResult:
    result = SessionResult(policy="test", seed=1, fps=FPS)
    result.frames = outcomes
    result.finalize()
    return result


def _displayed(index, latency=0.05, ssim=0.95, motion=0.3):
    t = index / FPS
    return FrameOutcome(
        index=index,
        capture_time=t,
        frame_type="P",
        qp=30,
        size_bytes=4000,
        encoded_ssim=ssim,
        motion=motion,
        complete_time=t + latency,
        display_time=t + latency,
    )


def _frozen(index, motion=0.3):
    outcome = _displayed(index, motion=motion)
    outcome.complete_time = None
    outcome.display_time = None
    outcome.lost = True
    return outcome


def test_latency_stats():
    result = _result(
        [_displayed(i, latency=0.1 * (i + 1)) for i in range(5)]
    )
    assert result.mean_latency() == pytest.approx(0.3)
    assert result.peak_latency() == pytest.approx(0.5)
    assert result.percentile_latency(50) == pytest.approx(0.3)


def test_latency_window_filters_by_capture_time():
    result = _result(
        [_displayed(i, latency=0.1) for i in range(30)]
        + [_displayed(i, latency=0.9) for i in range(30, 60)]
    )
    assert result.mean_latency(0.0, 0.99) == pytest.approx(0.1)
    assert result.mean_latency(1.0, 2.0) == pytest.approx(0.9)


def test_displayed_ssim_equals_encoded_when_all_display():
    result = _result([_displayed(i, ssim=0.9) for i in range(10)])
    assert result.mean_displayed_ssim() == pytest.approx(0.9)


def test_freeze_decays_displayed_quality():
    frames = [_displayed(0, ssim=0.9), _frozen(1), _frozen(2)]
    _result(frames)
    assert frames[1].displayed_ssim < 0.9
    assert frames[2].displayed_ssim < frames[1].displayed_ssim
    assert frames[2].displayed_ssim >= FREEZE_FLOOR


def test_high_motion_freezes_hurt_more():
    calm = _result([_displayed(0, ssim=0.9), _frozen(1, motion=0.1)])
    busy = _result([_displayed(0, ssim=0.9), _frozen(1, motion=0.9)])
    assert busy.frames[1].displayed_ssim < calm.frames[1].displayed_ssim


def test_freeze_before_any_display_is_zero_quality():
    result = _result([_frozen(0), _displayed(1)])
    assert result.frames[0].displayed_ssim == 0.0


def test_freeze_fraction_and_fps():
    result = _result(
        [_displayed(0), _frozen(1), _frozen(2), _displayed(3)]
    )
    assert result.freeze_fraction() == pytest.approx(0.5)
    assert result.displayed_fps() == pytest.approx(FPS / 2)


def test_sent_bitrate():
    result = _result([_displayed(i) for i in range(30)])
    # 30 frames × 4000 B × 8 over 1 s.
    assert result.sent_bitrate_bps() == pytest.approx(960_000, rel=0.05)


def test_mean_encoded_ssim_skips_skipped():
    frames = [_displayed(0, ssim=0.8), _displayed(1, ssim=0.9)]
    skipped = FrameOutcome(index=2, capture_time=2 / FPS, skipped=True)
    result = _result(frames + [skipped])
    assert result.mean_encoded_ssim() == pytest.approx(0.85)


def test_empty_window_raises():
    result = _result([_displayed(0)])
    with pytest.raises(ReproError):
        result.mean_latency(100, 200)
    with pytest.raises(ReproError):
        result.percentile_latency(95, 100, 200)


def test_metrics_require_finalize():
    result = SessionResult(policy="test", seed=1, fps=FPS)
    result.frames = [_displayed(0)]
    with pytest.raises(ReproError):
        result.mean_displayed_ssim()
