"""Byte-identity pins for the paths the golden gate never runs.

``golden_metrics.json`` covers only the Table-1 cells, which run no
NACK, FEC, playout, CoDel or SFU code. These pins cover them: the
sha256 of ``to_dict()`` for a short impaired session, for a small
two-region fleet, and for one cell of the fleet grid. A pure speed-up
of those paths must leave every digest untouched.

Each pin also runs with builtin ``sum()`` replaced by ``math.fsum`` on
float inputs. From Python 3.12, ``sum()`` compensates float rounding,
so a pin that moved under another rounding would hold on one Python
version and break on the next; ``repro.floatsum.left_sum`` is the sum
that results use instead.

Regenerating after an *intended* behaviour change: run this file with
``PYTHONPATH=src python -m pytest -q tests/integration/test_result_digests.py``,
copy the digests the failures report into the constants below, and say
in the commit message why the results moved.
"""

from __future__ import annotations

import builtins
import dataclasses
import hashlib
import json
import math

import pytest

from repro.experiments import fleet, robustness, scenarios
from repro.fleet import FleetSession, two_region_fleet
from repro.pipeline.config import PolicyName
from repro.pipeline.session import RtcSession

IMPAIRED_SESSION_SHA256 = (
    "e00427919ba1652f7b238f35b835be6b988a82393407ee7bf9ab9abe69e6e4d7"
)
TWO_REGION_FLEET_SHA256 = (
    "9aa179f42b63721421d62631029e06c1f176cb6621efdd0d72c7a105c8fbaa18"
)
STEADY_FLEET_CELL_SHA256 = (
    "962f6e27b2a0277e893e8f9938ba46d868521151cb51bddc3adcd409a897069f"
)


def _digest(payload: dict) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _impaired_config():
    """A 45% drop with every receiver and queue feature on, 1% iid loss
    and a loss storm: NACK retries, confirmed losses, FEC recoveries
    and the playout target all take part."""
    base = dataclasses.replace(
        scenarios.step_drop_config(0.45, seed=11),
        duration=14.0,
        policy=PolicyName.ADAPTIVE,
        enable_nack=True,
        enable_fec=True,
        enable_playout=True,
        faults=robustness.fault_suite(at=6.0)["loss_storm"],
    )
    return dataclasses.replace(
        base,
        network=dataclasses.replace(
            base.network, aqm="codel", iid_loss=0.01
        ),
    )


def test_impaired_session_digest_is_pinned():
    result = RtcSession(_impaired_config()).run()
    # The pin only guards the loss-recovery paths if they ran.
    assert any(frame.lost for frame in result.frames)
    assert result.pli_count > 0
    assert _digest(result.to_dict()) == IMPAIRED_SESSION_SHA256


def test_two_region_fleet_digest_is_pinned():
    config = two_region_fleet(
        subscribers_per_region=4,
        publishers_per_region=2,
        duration=6.0,
        seed=5,
    )
    result = FleetSession(config).run()
    assert result.totals["forwarded_packets"] > 0
    assert _digest(result.to_dict()) == TWO_REGION_FLEET_SHA256


def test_steady_fleet_cell_digest_is_pinned():
    """Identical publisher uplinks deliver packets at the same float
    time, so this cell is full of exact-time event ties. The event
    kernel fires tied events in the order they were scheduled; this
    pin holds that tie rule."""
    config = fleet.plan_batch(
        ("steady",), seeds=(1,), subscribers=40, duration=4.0
    )[0]
    result = FleetSession(config).run()
    assert result.totals["forwarded_packets"] > 0
    assert _digest(result.to_dict()) == STEADY_FLEET_CELL_SHA256


_BUILTIN_SUM = builtins.sum


def _fsum_on_floats(values, start=0):
    """``sum()`` that rounds float inputs differently: exactly."""
    values = list(values)
    if start == 0 and values and all(isinstance(v, float) for v in values):
        return math.fsum(values)
    return _BUILTIN_SUM(values, start)


@pytest.mark.parametrize(
    "pinned",
    [
        test_impaired_session_digest_is_pinned,
        test_two_region_fleet_digest_is_pinned,
        test_steady_fleet_cell_digest_is_pinned,
    ],
    ids=["impaired", "two_region_fleet", "steady_fleet_cell"],
)
def test_digest_pins_do_not_depend_on_sum_rounding(monkeypatch, pinned):
    monkeypatch.setattr(builtins, "sum", _fsum_on_floats)
    pinned()
