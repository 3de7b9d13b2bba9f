"""Trace export: telemetry recorders to JSONL or CSV.

The ``repro-rtc trace`` subcommand uses these helpers; they are also
importable for notebook/analysis use. Both formats are line-oriented so
traces stream well and diff cleanly:

* **JSONL** — one JSON object per line. Samples are
  ``{"type": "sample", "series": name, "time": t, "value": v}``;
  counters and gauges are emitted first as
  ``{"type": "counter"|"gauge", "name": ..., "value": ...}``.
* **CSV** — header ``series,time,value``, probe samples only (counters
  and gauges have no timestamp and are omitted).

Both write every number as a float, as :meth:`Telemetry.to_dict` stores
it, so a recorder exports the same text after the result cache or the
worker pool.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .recorder import Telemetry


def jsonl_lines(
    telemetry: Telemetry, series: Iterable[str] | None = None
) -> Iterator[str]:
    """Yield JSONL records for a recorder.

    Args:
        telemetry: the recorder to export.
        series: restrict samples to these series names (default: all).
    """
    for name, value in sorted(telemetry.counters.items()):
        yield json.dumps(
            {"type": "counter", "name": name, "value": float(value)},
            separators=(",", ":"),
        )
    for name, value in sorted(telemetry.gauges.items()):
        yield json.dumps(
            {"type": "gauge", "name": name, "value": float(value)},
            separators=(",", ":"),
        )
    for probe in _selected(telemetry, series):
        for t, v in probe:
            yield json.dumps(
                {
                    "type": "sample",
                    "series": probe.name,
                    "time": float(t),
                    "value": float(v),
                },
                separators=(",", ":"),
            )


def csv_lines(
    telemetry: Telemetry, series: Iterable[str] | None = None
) -> Iterator[str]:
    """Yield CSV rows (with header) for a recorder's probe samples."""
    yield "series,time,value"
    for probe in _selected(telemetry, series):
        for t, v in probe:
            yield f"{probe.name},{float(t)!r},{float(v)!r}"


def export_text(
    telemetry: Telemetry,
    fmt: str = "jsonl",
    series: Iterable[str] | None = None,
) -> str:
    """Render a recorder as one exported string (JSONL or CSV)."""
    if fmt == "jsonl":
        lines = jsonl_lines(telemetry, series)
    elif fmt == "csv":
        lines = csv_lines(telemetry, series)
    else:
        raise ValueError(f"format must be 'jsonl' or 'csv', got {fmt!r}")
    return "\n".join(lines) + "\n"


def _selected(telemetry: Telemetry, series: Iterable[str] | None):
    if series is None:
        return telemetry.all_series()
    return [telemetry.series(name) for name in series]
