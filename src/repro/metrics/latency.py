"""Latency metric helpers (array-level, session-agnostic)."""

from __future__ import annotations

import numpy as np

from ..errors import ReproError


def cdf(values: np.ndarray | list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative probabilities)."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ReproError("cannot compute a CDF of no samples")
    ordered = np.sort(array)
    probs = np.arange(1, ordered.size + 1) / ordered.size
    return ordered, probs


def percentile(values: np.ndarray | list[float], q: float) -> float:
    """Percentile ``q`` of the samples."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ReproError("no samples")
    return float(np.percentile(array, q))


def spike_episodes(
    times: np.ndarray | list[float],
    latencies: np.ndarray | list[float],
    threshold: float,
) -> list[tuple[float, float, float]]:
    """Contiguous runs where latency exceeds ``threshold``.

    Returns ``(start_time, end_time, peak_latency)`` per episode —
    useful for measuring how long a bandwidth-drop spike lasted.
    """
    t = np.asarray(times, dtype=float)
    lat = np.asarray(latencies, dtype=float)
    if t.shape != lat.shape:
        raise ReproError("times and latencies must align")
    episodes: list[tuple[float, float, float]] = []
    start: float | None = None
    peak = 0.0
    for time, value in zip(t, lat):
        if value > threshold:
            if start is None:
                start = time
                peak = value
            else:
                peak = max(peak, value)
        elif start is not None:
            episodes.append((start, time, peak))
            start = None
    if start is not None:
        episodes.append((start, float(t[-1]), peak))
    return episodes
