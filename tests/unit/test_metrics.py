"""Standalone metric helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.metrics.latency import cdf, percentile, spike_episodes
from repro.metrics.summary import format_series


def test_cdf_monotone_and_complete():
    values, probs = cdf([3.0, 1.0, 2.0])
    assert list(values) == [1.0, 2.0, 3.0]
    assert probs[-1] == pytest.approx(1.0)
    assert all(np.diff(probs) > 0)


def test_cdf_empty_raises():
    with pytest.raises(ReproError):
        cdf([])


def test_percentile():
    assert percentile(list(range(101)), 95) == pytest.approx(95.0)
    with pytest.raises(ReproError):
        percentile([], 50)


def test_spike_episodes_finds_runs():
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    lat = [0.1, 0.5, 0.6, 0.1, 0.7, 0.1]
    episodes = spike_episodes(times, lat, threshold=0.3)
    assert len(episodes) == 2
    start, end, peak = episodes[0]
    assert (start, end) == (1.0, 3.0)
    assert peak == 0.6


def test_spike_episode_open_at_end():
    episodes = spike_episodes([0.0, 1.0], [0.1, 0.9], 0.3)
    assert episodes == [(1.0, 1.0, 0.9)]


def test_spike_requires_aligned_arrays():
    with pytest.raises(ReproError):
        spike_episodes([0.0], [0.1, 0.2], 0.3)


def test_format_series_aligns():
    text = format_series("s", [1.0, 2.0], [0.5, 0.6], "x", "y")
    lines = text.splitlines()
    assert lines[0] == "s"
    assert len(lines) == 4
