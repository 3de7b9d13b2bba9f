"""Evaluation metrics: latency, quality, and summary formatting."""

from .latency import cdf, percentile, spike_episodes, time_above
from .quality import (
    mean_ssim_db,
    percent_change,
    quality_switches,
    ssim_to_db,
)
from .summary import format_series

__all__ = [
    "cdf",
    "format_series",
    "mean_ssim_db",
    "percent_change",
    "percentile",
    "quality_switches",
    "spike_episodes",
    "ssim_to_db",
    "time_above",
]
