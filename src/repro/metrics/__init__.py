"""Evaluation metrics: latency helpers and summary formatting."""

from .latency import cdf, percentile, spike_episodes
from .summary import format_series

__all__ = [
    "cdf",
    "format_series",
    "percentile",
    "spike_episodes",
]
