"""Session results: per-frame outcomes, timeseries, and summary metrics.

A :class:`SessionResult` joins the sender's view (what was encoded, at
which QP/size/quality) with the receiver's view (when frames completed
and displayed) and computes the evaluation metrics:

* **latency** — capture→display of displayed frames;
* **displayed quality** — per capture slot, the SSIM actually on screen
  (a frozen slot repeats the previous image, degraded by motion);
* **freeze statistics** — slots with no fresh frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import starmap
from operator import itemgetter
from typing import Callable

import numpy as np

from ..errors import ReproError
from ..telemetry.recorder import Telemetry


@dataclass(slots=True)
class FrameOutcome:
    """Joined fate of one capture slot.

    Attributes:
        index: capture index.
        capture_time: camera timestamp.
        skipped: policy decided not to encode this capture.
        frame_type: "I"/"P" ("" when skipped).
        qp / size_bytes / encoded_ssim / psnr: encoder outputs.
        complexity / motion: content at this slot.
        complete_time: last packet arrival (None if lost/not arrived).
        display_time: on-screen time (None if frozen).
        lost: transport confirmed packet loss for the frame.
        undecodable: complete but reference chain broken.
        displayed_ssim: quality on screen during this slot after freeze
            accounting (filled by :meth:`SessionResult.finalize`).
    """

    index: int
    capture_time: float
    skipped: bool = False
    frame_type: str = ""
    qp: float = 0.0
    size_bytes: int = 0
    encoded_ssim: float = 0.0
    psnr: float = 0.0
    complexity: float = 0.0
    motion: float = 0.0
    complete_time: float | None = None
    display_time: float | None = None
    lost: bool = False
    undecodable: bool = False
    displayed_ssim: float = 0.0

    @property
    def displayed(self) -> bool:
        """Whether a fresh frame reached the screen for this slot."""
        return self.display_time is not None

    def latency(self) -> float | None:
        """Capture→display latency (None if not displayed)."""
        if self.display_time is None:
            return None
        return self.display_time - self.capture_time


@dataclass(slots=True)
class TimeseriesSample:
    """Periodic telemetry snapshot."""

    time: float
    target_bps: float
    acked_bps: float | None
    capacity_bps: float
    pacer_queue_delay: float
    network_queue_delay: float
    link_backlog_bytes: int


def _row_decoder(row_cls: type) -> Callable[[list[dict]], list]:
    """Rebuild ``row_cls`` instances from their :meth:`to_dict` rows.

    Rows are built positionally, through one getter over the
    dataclass's fields in ``__init__`` order. Keys out of a JSON parser
    (the result cache's, or the stdlib's) or ``pickle`` are not the
    interned names in ``__init__``'s code object, so ``row_cls(**row)``
    would match every keyword by string compare: about 4x the cost of
    the positional call. A row with too few or too many keys raises
    ``TypeError``, as the keyword call would; one with the right count
    but a wrong key, ``KeyError``.
    """
    names = [f.name for f in fields(row_cls)]
    getter = itemgetter(*names)
    width = {len(names)}

    def decode(rows: list[dict]) -> list:
        if not width.issuperset(map(len, rows)):
            raise TypeError(
                f"{row_cls.__name__} rows must have exactly "
                f"the keys {names}"
            )
        return list(starmap(row_cls, map(getter, rows)))

    return decode


_decode_frames = _row_decoder(FrameOutcome)
_decode_samples = _row_decoder(TimeseriesSample)


#: SSIM decay per frozen slot, scaled by motion (a frozen talking head
#: hurts less than frozen sports).
FREEZE_DECAY = 0.02
FREEZE_FLOOR = 0.6


@dataclass(slots=True)
class SessionPerf:
    """Wall-clock execution counters for one session run.

    Diagnostics only: deliberately **excluded** from
    :meth:`SessionResult.to_dict`, so cached/parallel results stay
    byte-identical to fresh serial runs (wall time is machine noise,
    not simulation output). A result loaded from the cache or a worker
    process therefore has ``perf = None``.
    """

    wall_seconds: float
    events_fired: int

    @property
    def events_per_sec(self) -> float:
        """Simulation event throughput (0 for a zero-length run).

        Guarded against zero, negative, NaN, and denormal-tiny wall
        times: a sub-resolution timer reading would otherwise produce
        an absurd (or infinite) rate, which then poisons perf
        dashboards and ratchet floors. Anything below 1 microsecond of
        wall time reports 0 — no real session completes that fast.
        """
        wall = self.wall_seconds
        if not wall >= 1e-6 or not math.isfinite(wall):
            return 0.0
        return self.events_fired / wall


@dataclass
class SessionResult:
    """Everything measured in one session run."""

    policy: str
    seed: int
    fps: float
    frames: list[FrameOutcome] = field(default_factory=list)
    timeseries: list[TimeseriesSample] = field(default_factory=list)
    drop_events: list[float] = field(default_factory=list)
    pli_count: int = 0
    finalized: bool = False
    #: (send_time, one-way latency) per received audio packet, when the
    #: session carried audio.
    audio_latencies: list[tuple[float, float]] = field(
        default_factory=list
    )
    audio_sent: int = 0
    audio_received: int = 0
    #: Telemetry recorder attached when the session ran with telemetry
    #: enabled (probe series, counters, gauges); ``None`` otherwise.
    traces: Telemetry | None = None
    #: Wall-clock counters for the run that produced this result; not
    #: serialized (see :class:`SessionPerf`), so ``None`` after a cache
    #: or process-pool round trip.
    perf: SessionPerf | None = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # Serialization (lossless: used by the result cache and the
    # process-pool boundary in :mod:`repro.pipeline.parallel`)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The full result as JSON-ready primitives.

        Every numeric is coerced to a builtin ``int``/``float`` so the
        payload serializes identically regardless of whether a field
        was produced as a numpy scalar; JSON round-trips Python floats
        exactly, making :meth:`from_dict` lossless.
        """
        return {
            "policy": self.policy,
            "seed": int(self.seed),
            "fps": float(self.fps),
            "frames": [
                {
                    "index": int(f.index),
                    "capture_time": float(f.capture_time),
                    "skipped": bool(f.skipped),
                    "frame_type": f.frame_type,
                    "qp": float(f.qp),
                    "size_bytes": int(f.size_bytes),
                    "encoded_ssim": float(f.encoded_ssim),
                    "psnr": float(f.psnr),
                    "complexity": float(f.complexity),
                    "motion": float(f.motion),
                    "complete_time": (
                        None if f.complete_time is None
                        else float(f.complete_time)
                    ),
                    "display_time": (
                        None if f.display_time is None
                        else float(f.display_time)
                    ),
                    "lost": bool(f.lost),
                    "undecodable": bool(f.undecodable),
                    "displayed_ssim": float(f.displayed_ssim),
                }
                for f in self.frames
            ],
            "timeseries": [
                {
                    "time": float(s.time),
                    "target_bps": float(s.target_bps),
                    "acked_bps": (
                        None if s.acked_bps is None else float(s.acked_bps)
                    ),
                    "capacity_bps": float(s.capacity_bps),
                    "pacer_queue_delay": float(s.pacer_queue_delay),
                    "network_queue_delay": float(s.network_queue_delay),
                    "link_backlog_bytes": int(s.link_backlog_bytes),
                }
                for s in self.timeseries
            ],
            "drop_events": [float(t) for t in self.drop_events],
            "pli_count": int(self.pli_count),
            "finalized": bool(self.finalized),
            "audio_latencies": [
                [float(t), float(lat)] for t, lat in self.audio_latencies
            ],
            "audio_sent": int(self.audio_sent),
            "audio_received": int(self.audio_received),
            "traces": (
                None if self.traces is None else self.traces.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionResult":
        """Rebuild a result previously produced by :meth:`to_dict`.

        Rows are rebuilt positionally (see :func:`_row_decoder`); a row
        with a missing or extra key raises ``TypeError`` or ``KeyError``,
        so the result cache quarantines the entry.
        """
        return cls(
            policy=data["policy"],
            seed=data["seed"],
            fps=data["fps"],
            frames=_decode_frames(data["frames"]),
            timeseries=_decode_samples(data["timeseries"]),
            drop_events=list(data["drop_events"]),
            pli_count=data["pli_count"],
            finalized=data["finalized"],
            audio_latencies=[
                (t, lat) for t, lat in data["audio_latencies"]
            ],
            audio_sent=data["audio_sent"],
            audio_received=data["audio_received"],
            traces=(
                None
                if data.get("traces") is None
                else Telemetry.from_dict(data["traces"])
            ),
        )

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Compute displayed quality with freeze accounting."""
        last_ssim: float | None = None
        consecutive_freezes = 0
        for outcome in self.frames:
            if outcome.displayed:
                outcome.displayed_ssim = outcome.encoded_ssim
                last_ssim = outcome.encoded_ssim
                consecutive_freezes = 0
            else:
                consecutive_freezes += 1
                if last_ssim is None:
                    outcome.displayed_ssim = 0.0
                else:
                    decay = FREEZE_DECAY * (0.5 + outcome.motion)
                    value = last_ssim * (1.0 - decay) ** consecutive_freezes
                    outcome.displayed_ssim = max(FREEZE_FLOOR, value)
                    last_ssim = outcome.displayed_ssim
        self.finalized = True

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def latencies(
        self, start: float | None = None, end: float | None = None
    ) -> np.ndarray:
        """Latencies of displayed frames captured within [start, end]."""
        values = [
            outcome.latency()
            for outcome in self._window(start, end)
            if outcome.displayed
        ]
        return np.asarray([v for v in values if v is not None])

    def mean_latency(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Average frame latency (s) in the window."""
        values = self.latencies(start, end)
        self._require(values.size > 0, "no displayed frames in window")
        return float(values.mean())

    def percentile_latency(
        self,
        q: float,
        start: float | None = None,
        end: float | None = None,
    ) -> float:
        """Latency percentile ``q`` (e.g. 95) in the window."""
        values = self.latencies(start, end)
        self._require(values.size > 0, "no displayed frames in window")
        return float(np.percentile(values, q))

    def peak_latency(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Worst displayed-frame latency in the window."""
        values = self.latencies(start, end)
        self._require(values.size > 0, "no displayed frames in window")
        return float(values.max())

    def mean_displayed_ssim(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Average on-screen SSIM over capture slots in the window."""
        self._require(self.finalized, "call finalize() first")
        values = [o.displayed_ssim for o in self._window(start, end)]
        self._require(len(values) > 0, "no frames in window")
        return float(np.mean(values))

    def mean_encoded_ssim(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Average SSIM of encoded (non-skipped) frames."""
        values = [
            o.encoded_ssim
            for o in self._window(start, end)
            if not o.skipped
        ]
        self._require(len(values) > 0, "no encoded frames in window")
        return float(np.mean(values))

    def freeze_fraction(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Fraction of capture slots with no fresh frame displayed."""
        window = list(self._window(start, end))
        self._require(len(window) > 0, "no frames in window")
        frozen = sum(1 for o in window if not o.displayed)
        return frozen / len(window)

    def displayed_fps(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Effective displayed frame rate in the window."""
        return self.fps * (1.0 - self.freeze_fraction(start, end))

    def sent_bitrate_bps(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Average encoded bitrate over the window."""
        window = list(self._window(start, end))
        self._require(len(window) > 1, "window too small")
        total_bits = sum(o.size_bytes * 8 for o in window)
        span = window[-1].capture_time - window[0].capture_time + 1 / self.fps
        return total_bits / span

    def display_jitter(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Standard deviation of the inter-display interval (s) — the
        smoothness a viewer perceives. An ideal 30 fps stream scores 0;
        bursty arrival without a playout buffer scores tens of ms."""
        times = sorted(
            o.display_time
            for o in self._window(start, end)
            if o.display_time is not None
        )
        self._require(len(times) >= 3, "need at least 3 displayed frames")
        diffs = np.diff(np.asarray(times))
        return float(np.std(diffs))

    # ------------------------------------------------------------------
    # Audio metrics (sessions with enable_audio)
    # ------------------------------------------------------------------
    def audio_latency_values(
        self, start: float | None = None, end: float | None = None
    ) -> np.ndarray:
        """One-way audio latencies for packets sent within the window."""
        lo = start if start is not None else float("-inf")
        hi = end if end is not None else float("inf")
        return np.asarray(
            [lat for t, lat in self.audio_latencies if lo <= t <= hi]
        )

    def mean_audio_latency(
        self, start: float | None = None, end: float | None = None
    ) -> float:
        """Average one-way audio latency in the window."""
        values = self.audio_latency_values(start, end)
        self._require(values.size > 0, "no audio packets in window")
        return float(values.mean())

    def audio_loss_fraction(self) -> float:
        """Fraction of audio packets that never arrived."""
        if self.audio_sent == 0:
            return 0.0
        return 1.0 - self.audio_received / self.audio_sent

    # ------------------------------------------------------------------
    def _window(self, start: float | None, end: float | None):
        lo = start if start is not None else float("-inf")
        hi = end if end is not None else float("inf")
        return (o for o in self.frames if lo <= o.capture_time <= hi)

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise ReproError(message)
