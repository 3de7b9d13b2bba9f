"""Post-hoc analysis: latency episodes, drop response, reports."""

from .episodes import DropResponse, LatencyEpisode, drop_response, latency_episodes
from .report import session_report

__all__ = [
    "DropResponse",
    "LatencyEpisode",
    "drop_response",
    "latency_episodes",
    "session_report",
]
