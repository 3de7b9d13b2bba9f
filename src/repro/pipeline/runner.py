"""Experiment runner helpers.

Thin functions over :class:`~repro.pipeline.session.RtcSession` used by
the examples, benchmarks, and experiment modules. Batches go through
:func:`repro.pipeline.parallel.run_many`, which runs each config with
:func:`run_session` and adds the worker pool and the persistent result
cache configured via :func:`repro.pipeline.parallel.configure`.
"""

from __future__ import annotations

from .config import SessionConfig
from .results import SessionResult
from .session import RtcSession


def run_session(config: SessionConfig) -> SessionResult:
    """Build and run a single session (always in-process, uncached)."""
    return RtcSession(config).run()
