"""Structured event tracing: typed events in bounded ring buffers.

The paper's pitch is real-time analysis "at any stage" of a botnet DDoS
attack; the tracer is the substrate for that.  Instrumented layers emit
typed events — ``sched.fire``, ``link.tx``, ``queue.drop``,
``tcp.retransmit``, ``container.spawn``, ``cnc.recruit``,
``exploit.attempt``/``exploit.success``, ``attack.start``/``attack.stop``,
``churn.down``/``churn.up`` — each stamped with the virtual clock and a
per-tracer emission sequence number.  The event stream is the one record
of a run's lifecycle: :func:`repro.obs.report.causal_tree` rebuilds the
recruitment-and-attack tree from it.

Buffering is a ring **per event type**: a flood run emits millions of
``sched.fire``/``link.tx`` events, and a single shared ring would evict
the handful of ``cnc.recruit`` records long before export.  Per-type
rings keep the rare, high-value events alongside a bounded tail of the
chatty ones; evictions are counted, never silent.

When tracing is off the hot path pays exactly one attribute check::

    if tracer.enabled:
        tracer.emit("queue.drop", sim.now, queue=self.name)

because the default tracer everywhere is the shared :data:`NULL_TRACER`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional


def site_of(callback) -> str:
    """Stable site key for a scheduled callback (module.qualname): the
    ``site`` field of ``sched.fire`` events and of the scheduler's
    end-state fingerprint rows."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        return type(callback).__name__
    module = getattr(callback, "__module__", "") or ""
    return f"{module.rsplit('.', 1)[-1]}.{qualname}" if module else qualname


class TraceEvent:
    """One typed event: name, virtual time, emission sequence number
    (``seq``, unique per tracer), free-form fields."""

    __slots__ = ("name", "t", "seq", "fields")

    def __init__(self, name: str, t: float, seq: int, fields: dict):
        self.name = name
        self.t = t
        self.seq = seq
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<TraceEvent {self.name} t={self.t:.6f} {self.fields}>"


class EventTracer:
    """Collects :class:`TraceEvent` records in per-type ring buffers."""

    enabled = True

    def __init__(self, capacity_per_type: int = 65536):
        if capacity_per_type <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity_per_type = capacity_per_type
        self._rings: Dict[str, Deque[TraceEvent]] = {}
        self.evicted: Dict[str, int] = {}
        self.emitted: Dict[str, int] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # Emission (hot path when enabled)
    # ------------------------------------------------------------------
    def emit(self, name: str, t: float, **fields) -> None:
        """Record one event at virtual time ``t``."""
        ring = self._rings.get(name)
        if ring is None:
            ring = deque(maxlen=self.capacity_per_type)
            self._rings[name] = ring
            self.evicted[name] = 0
            self.emitted[name] = 0
        if len(ring) == self.capacity_per_type:
            self.evicted[name] += 1
        self.emitted[name] += 1
        self._seq += 1
        ring.append(TraceEvent(name, t, self._seq, fields))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def events(self, *names: str) -> List[TraceEvent]:
        """Buffered events of the named types (every type when none is
        named), merged by virtual time, then by emission order."""
        if len(names) == 1:
            return list(self._rings.get(names[0], ()))
        merged: List[TraceEvent] = []
        for name in names or list(self._rings):
            merged.extend(self._rings.get(name, ()))
        merged.sort(key=lambda event: (event.t, event.seq))
        return merged

    def event_types(self) -> List[str]:
        return sorted(self._rings)

    def counts(self) -> Dict[str, int]:
        """Events *emitted* per type (including evicted ones)."""
        return dict(self.emitted)

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def clear(self) -> None:
        self._rings.clear()
        self.evicted.clear()
        self.emitted.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        """Chrome ``trace_event`` JSON: load via chrome://tracing or Perfetto.

        Virtual seconds map to trace microseconds; each event type gets
        its own thread lane so the timeline reads as one row per
        subsystem signal.
        """
        tids = {name: tid for tid, name in enumerate(self.event_types(), start=1)}
        trace_events = [
            {
                "name": event.name,
                "cat": event.name.split(".", 1)[0],
                "ph": "i",
                "s": "t",
                "ts": round(event.t * 1e6, 3),
                "pid": 1,
                "tid": tids[event.name],
                "args": {key: str(value) if not isinstance(value, (int, float, bool))
                         else value
                         for key, value in event.fields.items()},
            }
            for event in self.events()
        ]
        metadata = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
            for name, tid in tids.items()
        ]
        other_data = {"clock": "virtual-time", "source": "repro.obs"}
        evicted = {name: count for name, count in self.evicted.items() if count}
        if evicted:
            # a truncated trace says so, so it never passes for a whole one
            other_data["evicted"] = dict(sorted(evicted.items()))
            other_data["total_evicted"] = sum(evicted.values())
        document = {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
            "otherData": other_data,
        }
        return json.dumps(document, indent=indent)


class NullTracer:
    """Disabled tracer: ``enabled`` is False and every method is a no-op."""

    enabled = False

    def emit(self, name: str, t: float, **fields) -> None:
        pass

    def events(self, *names: str) -> List[TraceEvent]:
        return []

    def event_types(self) -> List[str]:
        return []

    def counts(self) -> Dict[str, int]:
        return {}

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        return json.dumps({"traceEvents": [], "displayTimeUnit": "ms"})


NULL_TRACER = NullTracer()
