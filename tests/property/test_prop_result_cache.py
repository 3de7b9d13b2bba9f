"""Property tests for the result cache's writer and round trip.

``put`` writes an entry with orjson when its bytes are ASCII and parse
back to the entry, and with ``json.dumps`` otherwise; ``get`` parses
with orjson and falls back to the stdlib for entries that are not
strict JSON (``NaN``/``Infinity``). Whatever a result holds, the file
must read, with the stdlib alone, as what ``json.dumps`` would have
written, and a cache hit must give back the same bits.
"""

from __future__ import annotations

import json
import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.config import NetworkConfig, SessionConfig
from repro.pipeline.parallel import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_to_dict,
)
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

#: The seeds ``validate`` allows, and integers orjson refuses to write.
SEEDS = st.integers(-(2**63), 2**63 - 1)
BIG_INTS = st.integers(min_value=2**64) | st.integers(max_value=-(2**63) - 1)

#: Floats and text that orjson and ``json.dumps`` write alike.
PLAIN_FLOATS = st.one_of(
    st.just(0.0),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
)
PRINTABLE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E))
#: ASCII with control characters and DEL, which orjson writes unescaped.
ASCII = st.text(st.characters(max_codepoint=0x7F))


def results(
    floats: st.SearchStrategy[float],
    text: st.SearchStrategy[str] = st.text(),
    seeds: st.SearchStrategy[int] = SEEDS,
) -> st.SearchStrategy:
    """Results whose every frame and timeseries float is drawn from
    ``floats``, whose policy is drawn from ``text`` (any text by default:
    non-ASCII, control characters, DEL) and whose seed from ``seeds``."""
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
        policy=text,
        seed=seeds,
        fps=floats,
        frames=st.lists(frames, max_size=4),
        timeseries=st.lists(samples, max_size=4),
    )


def leaves(value):
    """Every key and scalar of a JSON-ready value; the scalars come in
    the order they are written."""
    if isinstance(value, dict):
        yield from value.keys()
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def non_finite_tokens(entry) -> list[str]:
    """The stdlib's token for each non-finite float of ``entry``."""
    return [
        "NaN" if math.isnan(v) else "Infinity" if v > 0 else "-Infinity"
        for v in leaves(entry)
        if isinstance(v, float) and not math.isfinite(v)
    ]


def written_alike(entry) -> bool:
    """Whether ``put`` must write ``json.dumps``'s bytes: every float is
    0 or finite in [1e-4, 1e16) in magnitude, and every string is
    printable ASCII."""
    for v in leaves(entry):
        if isinstance(v, float) and v != 0.0 and not 1e-4 <= abs(v) < 1e16:
            return False
        if isinstance(v, str) and not all(" " <= c <= "~" for c in v):
            return False
    return True


def canonical(value) -> str:
    """NaN-safe and type-exact form for comparing parsed entries."""
    return json.dumps(value, sort_keys=True)


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


# Branch by branch: orjson writes the stdlib's bytes; orjson writes
# other bytes for the same value (1e-05 as 0.00001, 1e+16 as 1e16, DEL
# unescaped); NaN, inf and non-ASCII text go to the stdlib writer; so
# do integers beyond 64 bits.
@settings(max_examples=200, deadline=None)
@given(
    result=st.one_of(
        results(PLAIN_FLOATS, PRINTABLE),
        results(st.floats(allow_nan=False, allow_infinity=False), ASCII),
        results(st.floats()),
        results(PLAIN_FLOATS, PRINTABLE, BIG_INTS),
    )
)
def test_put_writes_what_the_stdlib_reads_back(result):
    entry = {
        "schema": CACHE_SCHEMA_VERSION,
        "config": config_to_dict(CONFIG),
        "result": result.to_dict(),
    }
    stdlib = json.dumps(entry, separators=(",", ":")).encode()
    with tempfile.TemporaryDirectory() as root:
        raw = ResultCache(root).put(CONFIG, result).read_bytes()
    assert raw.isascii()
    tokens: list[str] = []
    parsed = json.loads(
        raw, parse_constant=lambda token: tokens.append(token) or float(token)
    )
    assert canonical(parsed) == canonical(json.loads(stdlib))
    assert tokens == non_finite_tokens(entry)
    if written_alike(entry):
        assert raw == stdlib
