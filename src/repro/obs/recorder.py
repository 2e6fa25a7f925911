"""Always-on flight recorder: a bounded ring of recent notes + metric
deltas, force-dumped when something dies.

The trace observatory (:meth:`Observatory.full`) is opt-in because it
is expensive; the flight recorder is the opposite trade — cheap enough
to leave on in *every* run (the default :class:`Observatory` carries
one), so a post-mortem never starts from a blank trace.  It keeps:

* a fixed-capacity ring of **notes** — low-rate landmark records only
  (container lifecycle, fault injections, sweep points), never
  per-packet events, so cost is bounded by construction;
* on each **dump** a snapshot of the metrics registry *delta* since the
  previous dump, so a crash dump says what changed, not just what is.

Dumps fire on the failure paths that would otherwise eat the evidence:
fault injection (:mod:`repro.faults`), an exception escaping the
simulator run loop, and sweep-worker death
(:class:`repro.parallel.SweepTelemetry`).  ``dump()`` never raises —
it is called from ``except`` blocks that must re-raise the original
error, not a recorder bug.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

#: default ring capacity — enough to hold the run-up to a failure
#: (container churn + recent faults) at a few hundred bytes per note
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Bounded ring of recent notes, snapshotted on demand."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.noted = 0
        #: optional MetricsRegistry; when set, dumps carry metric deltas
        self.metrics = None
        self._last_snapshot: Optional[dict] = None
        self.dumps: List[dict] = []

    def note(self, kind: str, t: float, /, **fields) -> None:
        """Record one landmark into the ring (evicting the oldest).

        ``kind``/``t`` are positional-only and always win over same-named
        fields — a caller's field name can never crash or corrupt a note
        (this runs inside daemon generators where an exception kills the
        process).
        """
        self.noted += 1
        record = dict(fields)
        record["kind"] = kind
        record["t"] = t
        self._ring.append(record)

    def recent(self) -> List[dict]:
        return list(self._ring)

    def dump(self, reason: str, t: float, /, **fields) -> Optional[dict]:
        """Snapshot the ring + metric delta; never raises."""
        try:
            record = dict(fields)
            record.update(
                reason=reason,
                t=t,
                noted=self.noted,
                evicted=max(0, self.noted - len(self._ring)),
                notes=list(self._ring),
            )
            if self.metrics is not None:
                snapshot = self.metrics.snapshot()
                if self._last_snapshot is not None:
                    record["metrics_delta"] = type(self.metrics).delta(
                        self._last_snapshot, snapshot
                    )
                else:
                    record["metrics_delta"] = snapshot
                self._last_snapshot = snapshot
            self.dumps.append(record)
            return record
        except Exception:  # pragma: no cover - defensive: dump on a dying run
            return None

    def format_dump(self, record: dict) -> str:
        """One dump as a readable post-mortem block."""
        lines = [
            f"=== flight recorder dump: {record['reason']} at t={record['t']:.3f} ===",
            f"notes: {len(record['notes'])} retained, {record['evicted']} evicted",
        ]
        for note in record["notes"][-20:]:
            extras = " ".join(
                f"{key}={value}" for key, value in note.items()
                if key not in ("kind", "t")
            )
            lines.append(f"  [{note['t']:10.3f}] {note['kind']} {extras}".rstrip())
        delta = record.get("metrics_delta")
        if delta:
            moved = {
                name: values for name, values in delta.get("counters", {}).items()
                if any(values.values())
            }
            if moved:
                lines.append("counters moved since last dump:")
                for name in sorted(moved):
                    for labels, value in sorted(moved[name].items()):
                        label_text = f"{{{labels}}}" if labels else ""
                        lines.append(f"  {name}{label_text} +{value:g}")
        return "\n".join(lines)


class NullRecorder:
    """Disabled recorder (the bare-simulator / NullObservatory case)."""

    enabled = False
    capacity = 0
    noted = 0
    metrics = None
    dumps: List[dict] = []

    def note(self, kind, t, /, **fields) -> None:
        pass

    def recent(self) -> List[dict]:
        return []

    def dump(self, reason, t, /, **fields):
        return None

    def format_dump(self, record) -> str:
        return ""


NULL_RECORDER = NullRecorder()
