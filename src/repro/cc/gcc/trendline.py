"""Trendline estimator (libwebrtc's delay-gradient filter).

Accumulates the delay variations into a smoothed cumulative delay and
fits a least-squares line over the last ``window_size`` samples; the
slope — scaled by the sample count and a gain — is the *modified trend*
the overuse detector thresholds.
"""

from __future__ import annotations

from ...floatsum import left_sum
from .arrival_filter import DelaySample

#: libwebrtc defaults.
DEFAULT_WINDOW = 20
SMOOTHING = 0.9
THRESHOLD_GAIN = 4.0


class TrendlineEstimator:
    """Delay-gradient slope over a sliding window."""

    __slots__ = (
        "_window_size",
        "_smoothing",
        "_gain",
        "_xs",
        "_ys",
        "_accumulated",
        "_smoothed",
        "_num_deltas",
        "_first_arrival",
        "_trend",
    )

    def __init__(
        self,
        window_size: int = DEFAULT_WINDOW,
        smoothing: float = SMOOTHING,
        threshold_gain: float = THRESHOLD_GAIN,
    ) -> None:
        self._window_size = window_size
        self._smoothing = smoothing
        self._gain = threshold_gain
        # Parallel lists (x = relative arrival, y = smoothed delay) with
        # manual window eviction; the means add them left to right.
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._accumulated = 0.0
        self._smoothed = 0.0
        self._num_deltas = 0
        self._first_arrival: float | None = None
        self._trend = 0.0

    @property
    def trend(self) -> float:
        """Raw regression slope (delay change per second)."""
        return self._trend

    @property
    def num_deltas(self) -> int:
        """Delay samples consumed so far."""
        return self._num_deltas

    def modified_trend(self) -> float:
        """The thresholded quantity: slope × min(samples, 60) × gain."""
        return min(self._num_deltas, 60) * self._trend * self._gain

    def update(self, sample: DelaySample) -> float:
        """Consume one delay sample; returns the new modified trend."""
        self._num_deltas += 1
        if self._first_arrival is None:
            self._first_arrival = sample.arrival_time
        self._accumulated += sample.delta
        self._smoothed = (
            self._smoothing * self._smoothed
            + (1 - self._smoothing) * self._accumulated
        )
        x = sample.arrival_time - self._first_arrival
        xs = self._xs
        ys = self._ys
        xs.append(x)
        ys.append(self._smoothed)
        if len(xs) > self._window_size:
            del xs[0]
            del ys[0]
        if len(xs) == self._window_size:
            self._trend = self._linear_fit_slope()
        return self.modified_trend()

    def _linear_fit_slope(self) -> float:
        xs = self._xs
        ys = self._ys
        n = len(xs)
        mean_x = left_sum(xs) / n
        mean_y = left_sum(ys) / n
        numer = 0.0
        denom = 0.0
        for x, y in zip(xs, ys):
            dx = x - mean_x
            numer += dx * (y - mean_y)
            denom += dx**2
        if denom == 0:
            return self._trend
        return numer / denom
