"""Discrete-event simulation kernel.

Exports the pieces every other subsystem builds on: the event
:class:`Scheduler`, :class:`Clock`, recurring
:class:`PeriodicProcess`, and seeded :class:`RngStreams`.
"""

from .clock import Clock
from .process import PeriodicProcess
from .rng import RngStreams
from .scheduler import Scheduler

__all__ = ["Clock", "PeriodicProcess", "RngStreams", "Scheduler"]
