"""Property tests for the result cache's round trip: whatever float a
frame or timeseries row holds, a cache hit reads back the same bits.

``put`` writes with ``json.dumps``; ``get`` parses with a faster reader
and falls back to the stdlib for entries that are not strict JSON
(``NaN``/``Infinity``). Both paths must give back what was stored.
"""

from __future__ import annotations

import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.config import NetworkConfig, SessionConfig
from repro.pipeline.parallel import ResultCache
from repro.pipeline.results import (
    FrameOutcome,
    SessionResult,
    TimeseriesSample,
)
from repro.traces.bandwidth import BandwidthTrace
from repro.units import mbps

CONFIG = SessionConfig(
    network=NetworkConfig(capacity=BandwidthTrace.constant(mbps(2)))
)


def results(floats: st.SearchStrategy[float]) -> st.SearchStrategy:
    """Results whose every frame and timeseries float is drawn from
    ``floats``; the seed spans the range ``validate`` allows."""
    maybe = st.none() | floats
    frames = st.builds(
        FrameOutcome,
        index=st.integers(0, 10_000),
        capture_time=floats,
        qp=floats,
        encoded_ssim=floats,
        psnr=floats,
        complexity=floats,
        motion=floats,
        complete_time=maybe,
        display_time=maybe,
        displayed_ssim=floats,
    )
    samples = st.builds(
        TimeseriesSample,
        time=floats,
        target_bps=floats,
        acked_bps=maybe,
        capacity_bps=floats,
        pacer_queue_delay=floats,
        network_queue_delay=floats,
        link_backlog_bytes=st.integers(0, 2**40),
    )
    return st.builds(
        SessionResult,
        policy=st.just("webrtc"),
        seed=st.integers(-(2**63), 2**63 - 1),
        fps=floats,
        frames=st.lists(frames, max_size=4),
        timeseries=st.lists(samples, max_size=4),
    )


# The finite branch keeps non-finite tokens out of the entry, so the
# fast reader parses it; st.floats() alone draws nan or inf in nearly
# every multi-row example and would test mostly the fallback.
@settings(max_examples=200, deadline=None)
@given(
    result=st.one_of(
        results(st.floats(allow_nan=False, allow_infinity=False)),
        results(st.floats()),
    )
)
def test_any_float_round_trips_through_the_cache(result):
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.put(CONFIG, result)
        hit = cache.get(CONFIG)
    assert hit is not None
    assert json.dumps(hit.to_dict(), sort_keys=True) == json.dumps(
        result.to_dict(), sort_keys=True
    )
