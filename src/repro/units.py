"""Unit conventions and small conversion helpers.

The whole library uses a single set of base units:

* **time** — seconds, as ``float``
* **data** — bytes, as ``int`` (packet and frame sizes)
* **rate** — bits per second, as ``float``

These helpers exist so that call sites can say what they mean
(``kbps(500)``) instead of sprinkling magic multipliers around.
"""

from __future__ import annotations

#: Bits in a byte; packet sizes are bytes, rates are bits/second.
BITS_PER_BYTE = 8

#: A conventional Ethernet-ish MTU payload budget for RTP (bytes).
DEFAULT_MTU = 1200

#: One millisecond in seconds.
MS = 1e-3

#: One microsecond in seconds.
US = 1e-6


def kbps(value: float) -> float:
    """Convert kilobits per second to bits per second."""
    return value * 1e3


def mbps(value: float) -> float:
    """Convert megabits per second to bits per second."""
    return value * 1e6


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * MS

