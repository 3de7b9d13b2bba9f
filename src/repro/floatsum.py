"""Float sums whose rounding does not depend on the Python version.

From Python 3.12, builtin ``sum()`` adds floats with Neumaier
compensation; on 3.10 and 3.11 it adds them left to right, rounding
after every addition. The two can differ in the last bit, which moves
a result's bytes or flips a threshold decision. Every float sum that
reaches a result, a report or a control decision goes through
:func:`left_sum` instead, which adds left to right on every version.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as Python 3.10 and 3.11 compute it:
    ``((0 + v0) + v1) + ...``, one rounding per addition."""
    # A plain loop: twice as fast as functools.reduce(operator.add)
    # on the trendline's 20-sample windows.
    total = 0
    for value in values:
        total += value
    return total
