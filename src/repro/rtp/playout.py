"""Adaptive playout (dejitter) buffer.

Real receivers do not display frames the instant they complete: they
schedule display at ``capture_time + target_delay``, where the target
delay adapts to the observed network-delay distribution. This trades a
bounded, *smooth* latency for jitter absorption — frames come out at a
steady cadence even when they arrive in bursts.

Off by default (the paper's latency metric is arrival-driven);
enabling it (``SessionConfig.enable_playout``) lets experiments measure
the smoothness/latency trade and how much smaller the adaptive
controller's playout target can be.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class PlayoutConfig:
    """Dejitter tuning.

    Attributes:
        min_delay / max_delay: clamp on the playout target (s).
        percentile: delay percentile the target tracks.
        safety_factor: multiplier on the tracked percentile.
        window: delay samples considered.
        smoothing: EWMA weight for target updates (per frame).
    """

    min_delay: float = 0.04
    max_delay: float = 3.0
    percentile: float = 95.0
    safety_factor: float = 1.1
    window: int = 120
    smoothing: float = 0.05

    def validate(self) -> None:
        """Raise :class:`ConfigError` on bad values."""
        if not 0 < self.min_delay <= self.max_delay:
            raise ConfigError("need 0 < min_delay <= max_delay")
        if not 0 < self.percentile <= 100:
            raise ConfigError("percentile must be in (0, 100]")
        if self.safety_factor < 1.0:
            raise ConfigError("safety_factor must be >= 1")
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        if not 0 < self.smoothing <= 1:
            raise ConfigError("smoothing must be in (0, 1]")


def percentile(values: Iterable[float], q: float) -> float:
    """``np.percentile(values, q)`` for ``0 <= q <= 100`` with numpy's
    default ``"linear"`` method, reproduced bit for bit in pure Python.

    The playout target needs one percentile of at most a few hundred
    samples per displayed frame; at that size numpy's per-call overhead
    costs far more than the sort.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    virtual = last * (q / 100)
    if virtual >= last:
        return ordered[last]
    lo = math.floor(virtual)
    t = virtual - lo
    a = ordered[lo]
    b = ordered[lo + 1]
    # numpy's _lerp: interpolate from the nearer end for exactness.
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


class PlayoutBuffer:
    """Schedules frame display times at an adaptive target delay."""

    def __init__(self, config: PlayoutConfig | None = None) -> None:
        self._config = config or PlayoutConfig()
        self._config.validate()
        self._delays: deque[float] = deque(maxlen=self._config.window)
        self._target = self._config.min_delay
        self._last_display = float("-inf")
        self.late_frames = 0

    @property
    def target_delay(self) -> float:
        """Current playout target (capture → display)."""
        return self._target

    def schedule(self, capture_time: float, complete_time: float) -> float:
        """Display time for a frame that completed at ``complete_time``.

        Frames arriving within the target display exactly at
        ``capture + target`` (smooth); frames arriving later display on
        arrival (a late frame — also counted).
        """
        cfg = self._config
        delay = complete_time - capture_time
        self._delays.append(delay)
        if len(self._delays) >= 5:
            observed = percentile(self._delays, cfg.percentile)
            goal = min(
                max(observed * cfg.safety_factor, cfg.min_delay),
                cfg.max_delay,
            )
            self._target += cfg.smoothing * (goal - self._target)

        display = max(complete_time, capture_time + self._target)
        if complete_time > capture_time + self._target:
            self.late_frames += 1
        # Display order must be monotone (a real renderer cannot go
        # back in time).
        display = max(display, self._last_display)
        self._last_display = display
        return display
