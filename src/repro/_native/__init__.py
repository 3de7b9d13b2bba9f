"""Placeholder for compiled hot modules; the simulator is pure Python.

Only :func:`status` remains: ``perfbench/run.py:environment()`` stamps
its ``"enabled"`` field on every benchmark run, and the benchmark's
files change only together with the benchmark.
"""

from __future__ import annotations


def status() -> dict:
    """Compiled-module diagnostics; nothing is ever compiled."""
    return {"enabled": False}
