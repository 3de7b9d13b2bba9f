"""Property tests: the bulk feedback paths equal their scalar twins.

GCC feeds each feedback report's received results to
``InterArrival.add_packets`` and ``AckedBitrateEstimator.on_acks`` in
one call. Both fold runs of packets with hoisted loops; these tests
replay random report streams through the bulk call and through the
per-packet reference (``InterArrival._add_one``,
``AckedBitrateEstimator.on_ack``) and require identical state.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.gcc.arrival_filter import BURST_WINDOW, InterArrival
from repro.cc.interface import AckedBitrateEstimator
from repro.rtp.feedback import PacketResult

# Per packet: (burst-window steps from the previous packet, extra send
# offset, arrival, size). Steps of 0 repeat a send time, steps of 1
# land exactly one BURST_WINDOW later when the stream starts at 0, and
# negative steps send backwards. The arrival is None for a lost packet,
# a path delay, or an absolute time on a 1/8 s grid, where arrivals lie
# exactly one rate window (0.5 s) apart.
_packet = st.tuples(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([0.0, 0.0, 0.0007, BURST_WINDOW / 2, 0.0049]),
    st.one_of(
        st.none(),
        st.floats(min_value=0.005, max_value=0.3),
        st.integers(min_value=0, max_value=16).map(lambda k: ("at", k / 8)),
    ),
    st.integers(min_value=40, max_value=1500),
)


@st.composite
def _report_stream(draw):
    """Packet results in seq order, cut into report-sized chunks."""
    packets = draw(st.lists(_packet, min_size=1, max_size=120))
    # Start at 0 s (exact BURST_WINDOW gaps), 1 s or 7.25 s.
    steps = draw(st.sampled_from([0, 0, 200, 1450]))
    results = []
    for seq, (step, offset, arrives, size) in enumerate(packets):
        steps = max(0, steps + step)
        send = steps * BURST_WINDOW + offset
        if arrives is None:
            arrival = -1.0
        elif isinstance(arrives, tuple):
            arrival = arrives[1]
        else:
            arrival = send + arrives
        results.append(PacketResult(seq, send, arrival, size))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=len(results)),
                max_size=12,
            )
        )
    )
    bounds = [0, *cuts, len(results)]
    return [results[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@given(chunks=_report_stream())
@settings(max_examples=300)
def test_add_packets_matches_add_one(chunks):
    bulk = InterArrival()
    scalar = InterArrival()
    for chunk in chunks:
        expected = []
        for result in chunk:
            if result.arrival_time < 0:
                continue
            sample = scalar._add_one(result)
            if sample is not None:
                expected.append(sample)
        assert bulk.add_packets(chunk) == expected
        assert bulk._current == scalar._current
        assert bulk._previous == scalar._previous


@given(
    chunks=_report_stream(),
    later=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300)
def test_on_acks_matches_on_ack(chunks, later):
    bulk = AckedBitrateEstimator()
    scalar = AckedBitrateEstimator()
    newest = 0.0
    for chunk in chunks:
        received = [r for r in chunk if r.arrival_time >= 0]
        bulk.on_acks(received)
        for result in received:
            scalar.on_ack(result.arrival_time, result.size_bytes)
            newest = max(newest, result.arrival_time)
        assert list(bulk._samples) == list(scalar._samples)
        assert bulk._total_bytes == scalar._total_bytes
    now = newest + later
    assert bulk.rate_bps(now) == scalar.rate_bps(now)
    assert list(bulk._samples) == list(scalar._samples)
