"""Property tests: the playout percentile is numpy's, bit for bit.

The playout target tracks a delay percentile per displayed frame. It is
computed in pure Python; any rounding difference from numpy's default
``"linear"`` method would move display times, so these compare the
float bits, not approximate values.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rtp.playout import PlayoutBuffer, PlayoutConfig, percentile

#: Realistic capture-to-complete delays (s), plus exact repeats.
_delays = st.floats(
    min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False
)
#: ``PlayoutConfig.percentile``'s valid range is (0, 100].
_q = st.one_of(
    st.floats(
        min_value=0.0,
        max_value=100.0,
        exclude_min=True,
        allow_nan=False,
    ),
    st.sampled_from([50.0, 90.0, 95.0, 99.0, 99.9, 100.0, 1e-9]),
)


@st.composite
def _window(draw):
    """5-120 samples; some windows are drawn from a few distinct values
    so ties and runs of repeats are common."""
    size = draw(st.integers(min_value=5, max_value=120))
    if draw(st.booleans()):
        pool = draw(st.lists(_delays, min_size=1, max_size=4))
        return draw(
            st.lists(st.sampled_from(pool), min_size=size, max_size=size)
        )
    return draw(st.lists(_delays, min_size=size, max_size=size))


def _bits(value: float) -> str:
    return float(value).hex()


@given(values=_window(), q=_q)
# Interpolating from the lower end only gives 0.786 here; numpy's
# upper-end form (t >= 0.5) gives 0.7859999999999999.
@example(values=[0.9, 0.0, 0.33, 0.16, 0.21], q=95.0)
@settings(max_examples=400, deadline=None)
def test_percentile_matches_numpy_bit_for_bit(values, q):
    expected = np.percentile(values, q)
    assert _bits(percentile(values, q)) == _bits(expected)


def _reference_schedule(config, frames):
    """PlayoutBuffer.schedule as it was with np.percentile."""
    delays = deque(maxlen=config.window)
    target = config.min_delay
    last = float("-inf")
    out = []
    for capture, complete in frames:
        delays.append(complete - capture)
        if len(delays) >= 5:
            observed = float(np.percentile(list(delays), config.percentile))
            goal = min(
                max(observed * config.safety_factor, config.min_delay),
                config.max_delay,
            )
            target += config.smoothing * (goal - target)
        display = max(complete, capture + target)
        display = max(display, last)
        last = display
        out.append(display)
    return out


@given(
    delays=st.lists(_delays, min_size=1, max_size=300),
    window=st.integers(min_value=2, max_value=120),
    q=_q,
)
@settings(max_examples=80, deadline=None)
def test_schedule_matches_the_numpy_reference(delays, window, q):
    config = PlayoutConfig(window=window, percentile=q)
    frames = [(i / 30, i / 30 + d) for i, d in enumerate(delays)]
    buffer = PlayoutBuffer(config)
    got = [buffer.schedule(capture, complete) for capture, complete in frames]
    assert [_bits(x) for x in got] == [
        _bits(x) for x in _reference_schedule(config, frames)
    ]
