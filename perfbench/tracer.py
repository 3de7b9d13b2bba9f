"""Spans around the calls into each layer, recorded from outside.

:class:`Tracer` replaces each entry point in :data:`ENTRY_POINTS` with a
wrapper that times the call with ``perf_counter_ns`` and charges it to
the current cell. Spans nest: a span's *self* time is its duration
minus the spans that ran inside it, so the self times of one cell sum
to at most its wall time (integer nanoseconds, no rounding).

The wrappers go on the classes, before any session is built, and come
off again when the traced pass ends. ``run_until`` runs exactly as in an
untraced pass (no ``step()`` driving), so the batched kernel's bulk
lane still fires.

:data:`SIMCORE_COVERS` says what stays unwrapped: that time is inside
the ``simcore`` span but in no child span, so it is ``simcore``'s self
time.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

#: ``(span name, module, class or None for a module function, attribute)``.
ENTRY_POINTS = (
    ("simcore", "repro.simcore.scheduler", "Scheduler", "run_until"),
    ("simcore", "repro.simcore.calendar", "CalendarScheduler", "run_until"),
    ("simcore", "repro.simcore.batched", "BatchedScheduler", "run_until"),
    ("codec", "repro.codec.encoder", "SimulatedEncoder", "encode"),
    ("codec", "repro.codec.encoder", "SimulatedEncoder", "skip_frame"),
    ("cc", "repro.cc.gcc.gcc", "GoogCcController", "on_packet_results"),
    ("core", "repro.core.controller", "AdaptiveEncoderController", "before_frame"),
    ("core", "repro.core.controller", "AdaptiveEncoderController", "after_frame"),
    ("core", "repro.core.controller", "AdaptiveEncoderController", "on_feedback"),
    ("baselines", "repro.baselines.webrtc_like", "WebrtcLikePolicy", "before_frame"),
    ("baselines", "repro.baselines.webrtc_like", "WebrtcLikePolicy", "after_frame"),
    ("baselines", "repro.baselines.webrtc_like", "WebrtcLikePolicy", "on_feedback"),
    ("rtp", "repro.rtp.sender", "Sender", "send_frame"),
    ("sfu", "repro.sfu.node", "SfuNode", "on_uplink_packet"),
    ("sfu", "repro.sfu.node", "SfuNode", "on_receiver_feedback"),
    ("pipeline.hash", "repro.pipeline.parallel", None, "config_hash"),
    ("pipeline.get", "repro.pipeline.parallel", "ResultCache", "get"),
    ("pipeline.put", "repro.pipeline.parallel", "ResultCache", "put"),
)

#: Work charged to ``simcore.self_s`` because no wrapper covers it.
SIMCORE_COVERS = (
    "the event kernel (heap, lanes, bulk lane); netsim links, queues, "
    "CoDel and loss models; the pacer release chain and "
    "Sender._send_packet (bound into the pacer at construction); the "
    "receiver's forward handlers (reassembly, NACK, FEC decode, "
    "playout, TWCC feedback; bound at construction); Sender feedback "
    "demux; MediaFlow and FleetSession glue (capture, joins, relays); "
    "the telemetry sampler; fault timers"
)


class Tracer:
    """Per-(cell, span) count, total and self time, kept in memory.

    ``cells`` maps a cell key to ``{"wall_ns", "spans", "events",
    "lane_events", "hits"}``; ``spans`` maps a span name to
    ``[count, total_ns, self_ns]``.
    """

    def __init__(self) -> None:
        self.cells: dict[str, dict] = {}
        # Child-time accumulators, innermost last; the bottom one
        # belongs to the current cell (or to no cell).
        self._stack: list[int] = [0]
        self._cell: dict = self._new_cell()

    @staticmethod
    def _new_cell() -> dict:
        return {
            "wall_ns": 0,
            "spans": {},
            "events": 0,
            "lane_events": 0,
            "hits": 0,
        }

    @contextmanager
    def cell(self, key: str):
        """Charge everything inside to the cell ``key``."""
        record = self.cells.get(key)
        if record is None:
            record = self.cells[key] = self._new_cell()
        outer, outer_stack = self._cell, self._stack
        self._cell, self._stack = record, [0]
        start = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["wall_ns"] += time.perf_counter_ns() - start
            self._cell, self._stack = outer, outer_stack

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``; ``after(cell, args, result,
        before(args))`` runs when it returns."""
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack
            cell = tracer._cell
            token = before(args) if before is not None else None
            start = clock()
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                span = cell["spans"].get(name)
                if span is None:
                    span = cell["spans"][name] = [0, 0, 0]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - child
            if after is not None:
                after(cell, args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _event_counts(args: tuple) -> tuple[int, int]:
        scheduler = args[0]
        return scheduler.events_fired, getattr(scheduler, "lane_events_fired", 0)

    @classmethod
    def _count_events(cls, cell: dict, args: tuple, _result, before) -> None:
        events, lane_events = cls._event_counts(args)
        cell["events"] += events - before[0]
        cell["lane_events"] += lane_events - before[1]

    @staticmethod
    def _count_hit(cell: dict, _args: tuple, result, _before) -> None:
        if result is not None:
            cell["hits"] += 1

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        hooks = {
            "simcore": (self._event_counts, self._count_events),
            "pipeline.get": (None, self._count_hit),
        }
        undo = []
        try:
            for name, module_name, class_name, attr in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                owner = module if class_name is None else getattr(
                    module, class_name
                )
                own = attr in vars(owner)
                original = vars(owner).get(attr)
                setattr(
                    owner,
                    attr,
                    self._wrap(
                        name, getattr(owner, attr), *hooks.get(name, (None, None))
                    ),
                )
                undo.append((owner, attr, own, original))
            yield self
        finally:
            for owner, attr, own, original in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
