"""Unit-conversion helpers."""

from __future__ import annotations

import pytest

from repro.units import kbps, mbps, ms


def test_kbps_converts_to_bits_per_second():
    assert kbps(500) == 500_000


def test_mbps_converts_to_bits_per_second():
    assert mbps(2.5) == 2_500_000


def test_ms_converts_to_seconds():
    assert ms(20) == pytest.approx(0.020)

