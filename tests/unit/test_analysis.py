"""Analysis helpers: episodes, drop response, report."""

from __future__ import annotations

import pytest

from repro.analysis.episodes import drop_response, latency_episodes
from repro.analysis.report import session_report
from repro.errors import ReproError
from repro.pipeline.results import FrameOutcome, SessionResult

FPS = 30.0


def _frame(index, latency, ssim=0.95):
    t = index / FPS
    return FrameOutcome(
        index=index,
        capture_time=t,
        frame_type="P",
        qp=30,
        size_bytes=4000,
        encoded_ssim=ssim,
        motion=0.3,
        complete_time=t + latency,
        display_time=t + latency,
    )


def _result_with_spike(drop_at=5.0, spike=1.0, spike_frames=30):
    result = SessionResult(policy="webrtc", seed=1, fps=FPS)
    drop_index = int(drop_at * FPS)
    for i in range(drop_index):
        result.frames.append(_frame(i, 0.05))
    for i in range(drop_index, drop_index + spike_frames):
        result.frames.append(_frame(i, spike))
    for i in range(drop_index + spike_frames, drop_index + 3 * spike_frames):
        result.frames.append(_frame(i, 0.05))
    result.finalize()
    return result


def test_latency_episodes_found():
    result = _result_with_spike()
    episodes = latency_episodes(result, threshold=0.3)
    assert len(episodes) == 1
    episode = episodes[0]
    assert episode.peak == pytest.approx(1.0)
    assert 4.9 < episode.start < 5.1
    assert episode.duration == pytest.approx(1.0, abs=0.1)


def test_drop_response_characterizes_spike():
    result = _result_with_spike()
    response = drop_response(result, drop_time=5.0)
    assert response.steady_latency == pytest.approx(0.05)
    assert response.spike_start == pytest.approx(5.0, abs=0.05)
    assert response.peak_latency == pytest.approx(1.0)
    assert response.recovered_at == pytest.approx(6.0, abs=0.1)
    assert response.spike_duration == pytest.approx(1.0, abs=0.15)
    assert response.detection_delay is None  # no adaptive events


def test_drop_response_uses_drop_events():
    result = _result_with_spike()
    result.drop_events = [5.23]
    response = drop_response(result, drop_time=5.0)
    assert response.detection_delay == pytest.approx(0.23)


def test_drop_response_requires_frames():
    empty = SessionResult(policy="x", seed=1, fps=FPS)
    empty.finalize()
    with pytest.raises(ReproError):
        drop_response(empty, drop_time=5.0)


def test_session_report_sections():
    result = _result_with_spike()
    result.pli_count = 3
    text = session_report(result)
    assert "Session report" in text
    assert "Latency (capture → display)" in text
    assert "Quality" in text
    assert "Latency episodes" in text
    assert "PLI requests : 3" in text
