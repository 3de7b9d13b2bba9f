"""Recurring processes layered on top of the scheduler.

:class:`PeriodicProcess` is the building block for anything that ticks —
the video source (one frame per interval), the feedback sender, the pacer
budget refresh. It reschedules itself on a fixed period and supports
clean cancellation and live period changes.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError
from .scheduler import Scheduler


class PeriodicProcess:
    """Invoke a callback every ``period`` seconds until stopped.

    The callback receives the tick index (0, 1, 2, ...). Each tick is
    scheduled exactly one period after the previous tick's firing time, so
    the cadence is drift-free in simulated time.
    """

    __slots__ = (
        "_scheduler",
        "_period",
        "_callback",
        "_priority",
        "_tick",
        "_stopped",
        "_pending",
    )

    def __init__(
        self,
        scheduler: Scheduler,
        period: float,
        callback: Callable[[int], None],
        start_at: float | None = None,
        priority: int = 0,
    ) -> None:
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period!r}")
        self._scheduler = scheduler
        self._period = period
        self._callback = callback
        self._priority = priority
        self._tick = 0
        self._stopped = False
        first = scheduler.now if start_at is None else start_at
        self._pending: list | None = scheduler.call_at(
            first, self._fire, priority
        )

    @property
    def period(self) -> float:
        """Current tick period in seconds."""
        return self._period

    @property
    def ticks(self) -> int:
        """Number of ticks delivered so far."""
        return self._tick

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def set_period(self, period: float) -> None:
        """Change the period, effective from the next reschedule."""
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period!r}")
        self._period = period

    def stop(self) -> None:
        """Cancel future ticks. Idempotent."""
        self._stopped = True
        if self._pending is not None:
            self._scheduler.cancel(self._pending)
            self._pending = None

    def _fire(self) -> None:
        if self._stopped:
            return
        tick = self._tick
        self._tick += 1
        self._pending = self._scheduler.call_at(
            self._scheduler.now + self._period, self._fire, self._priority
        )
        self._callback(tick)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeriodicProcess(period={self._period}, ticks={self._tick}, "
            f"stopped={self._stopped})"
        )
