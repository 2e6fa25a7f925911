"""Causal span tracking: the recruitment-and-attack tree of one run.

The flat event tracer answers *what* happened; spans answer *why*.
Every stage of the attack lifecycle — scanner probe, exploit attempt,
victim-side hijack outcome, loader infection, C&C recruit, attack
order, flood train, queue drop, sink delivery — opens (or extends) a
span, and parent/child links chain them into the causal tree: which
probe leaked the pointer that built the exploit that recruited the bot
whose flood train caused which queue drops and which sink bytes.

**Span IDs are deterministic.**  An ID is a short BLAKE2s digest of
``{parent_or_root}/{kind}/{entity}#{per-scope index}``, where the root
namespace derives from the run seed (:meth:`SpanTracker.reseed`) and
the index is a per-(scope, kind, entity) counter.  No wall clock, no
process RNG — the same (config, seed) produces byte-identical span
trees run-to-run and across ``--jobs``, so ``repro verify-determinism``
holds with spans enabled and :func:`canonical_spans_run` can assert it.

**Cross-layer linking** uses a key registry instead of threading span
objects through every call signature: the attacker binds
``("exploit", victim)`` when the payload leaves, the victim's hijack
report looks the key up to parent its outcome span, a successful hijack
binds ``("recruit", victim)`` for the C&C's recruit span, and so on
down to the flood train.  The registry is in-process state of one
simulation, so lookups are as deterministic as the events that bind.

When spans are off (the default), every call site pays one attribute
check against :data:`NULL_SPANS` — same null-object contract as the
tracer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

#: digest size of a span ID (hex length = 2x); 8 bytes keeps IDs short
#: in exports while making collisions vanishingly unlikely per run
_ID_DIGEST_SIZE = 8


def _span_id(material: str) -> str:
    return hashlib.blake2s(material.encode(), digest_size=_ID_DIGEST_SIZE).hexdigest()


class Span:
    """One node of the causal tree.

    ``t_end`` is ``None`` while open; packet accounting
    (``packets_dropped`` / ``packets_delivered`` / ``bytes_delivered``)
    is filled in by queues and sinks attributing stamped packets back
    to their originating span.
    """

    __slots__ = (
        "span_id", "parent_id", "kind", "entity", "t_start", "t_end",
        "status", "fields", "packets_dropped", "packets_delivered",
        "bytes_delivered",
    )

    def __init__(self, span_id: str, parent_id: Optional[str], kind: str,
                 entity: str, t_start: float, fields: dict):
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.entity = entity
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.status = "open"
        self.fields = fields
        self.packets_dropped = 0
        self.packets_delivered = 0
        self.bytes_delivered = 0

    @property
    def duration(self) -> float:
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        out = {
            "span": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "entity": self.entity,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "status": self.status,
        }
        if self.packets_dropped:
            out["packets_dropped"] = self.packets_dropped
        if self.packets_delivered:
            out["packets_delivered"] = self.packets_delivered
            out["bytes_delivered"] = self.bytes_delivered
        out.update(self.fields)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<Span {self.kind}:{self.entity} id={self.span_id} "
                f"t={self.t_start:.3f} status={self.status}>")


class SpanTracker:
    """Collects :class:`Span` records and their parent/child links."""

    enabled = True

    def __init__(self, seed: int = 0, max_spans: int = 1_000_000):
        if max_spans <= 0:
            raise ValueError("span capacity must be positive")
        self.max_spans = max_spans
        #: optional FlightRecorder; ended spans are noted into its ring
        self.recorder = None
        self.reseed(seed)

    def reseed(self, seed) -> None:
        """Re-derive the root ID namespace from ``seed`` and reset.

        Called by the framework once per run so span IDs are a pure
        function of (seed, causal position) — never of wall clock or
        tracker reuse history.
        """
        self._root = _span_id(f"run/{seed}")
        self._spans: List[Span] = []
        self._by_id: Dict[str, Span] = {}
        self._child_counts: Dict[Tuple[str, str, str], int] = {}
        self._keys: Dict[tuple, Span] = {}
        self.truncated = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, kind: str, t: float, entity: str = "",
              parent=None, **fields) -> Span:
        """Open a span; ``parent`` is a :class:`Span`, an ID, or None."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        scope = parent_id if parent_id is not None else self._root
        counter_key = (scope, kind, entity)
        index = self._child_counts.get(counter_key, 0)
        self._child_counts[counter_key] = index + 1
        span = Span(
            _span_id(f"{scope}/{kind}/{entity}#{index}"),
            parent_id, kind, entity, t, fields,
        )
        if len(self._spans) >= self.max_spans:
            # Over capacity: the span object still works for the caller
            # but is not retained (accounting against it is a no-op).
            self.truncated += 1
            return span
        self._spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def end(self, span: Optional[Span], t: float, status: str = "ok",
            **fields) -> None:
        if span is None:
            return
        span.t_end = t
        span.status = status
        if fields:
            span.fields.update(fields)
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.note("span", t, span=span.kind, id=span.span_id,
                          entity=span.entity, status=status)

    def annotate(self, span: Optional[Span], **fields) -> None:
        if span is not None:
            span.fields.update(fields)

    # ------------------------------------------------------------------
    # Cross-layer linking
    # ------------------------------------------------------------------
    def bind(self, key, span: Optional[Span]) -> None:
        """Publish ``span`` under a tuple key for a later layer to find."""
        if span is not None:
            self._keys[tuple(key)] = span

    def lookup(self, key) -> Optional[Span]:
        return self._keys.get(tuple(key))

    def get(self, span_id: str) -> Optional[Span]:
        return self._by_id.get(span_id)

    # ------------------------------------------------------------------
    # Packet accounting (queues / sinks attribute stamped packets)
    # ------------------------------------------------------------------
    def drop(self, span_id: str, count: int = 1) -> None:
        span = self._by_id.get(span_id)
        if span is not None:
            span.packets_dropped += count

    def deliver(self, span_id: str, count: int = 1, nbytes: int = 0) -> None:
        span = self._by_id.get(span_id)
        if span is not None:
            span.packets_delivered += count
            span.bytes_delivered += nbytes

    # ------------------------------------------------------------------
    # Reads / export
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self._spans:
            counts[span.kind] = counts.get(span.kind, 0) + 1
        return counts

    def to_dicts(self) -> List[dict]:
        ordered = sorted(self._spans, key=lambda s: (s.t_start, s.span_id))
        return [span.to_dict() for span in ordered]

    def tree(self) -> List[dict]:
        """The causal forest: every root span with children nested under
        ``"children"``, deterministically ordered by (t_start, id)."""
        nodes = {span.span_id: dict(span.to_dict(), children=[])
                 for span in self._spans}
        roots: List[dict] = []
        for span in sorted(self._spans, key=lambda s: (s.t_start, s.span_id)):
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def canonical_json(self) -> str:
        """The whole tree as one canonical JSON string — two
        byte-identical runs produce byte-identical output, which is the
        form the determinism tests compare."""
        return json.dumps(self.tree(), sort_keys=True, default=str)


class NullSpans:
    """Disabled tracker: ``enabled`` is False, every method a no-op."""

    enabled = False
    recorder = None
    truncated = 0

    def reseed(self, seed) -> None:
        pass

    def start(self, kind, t, entity="", parent=None, **fields):
        return None

    def end(self, span, t, status="ok", **fields) -> None:
        pass

    def annotate(self, span, **fields) -> None:
        pass

    def bind(self, key, span) -> None:
        pass

    def lookup(self, key):
        return None

    def get(self, span_id):
        return None

    def drop(self, span_id, count=1) -> None:
        pass

    def deliver(self, span_id, count=1, nbytes=0) -> None:
        pass

    def spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def kinds(self) -> Dict[str, int]:
        return {}

    def to_dicts(self) -> List[dict]:
        return []

    def tree(self) -> List[dict]:
        return []

    def canonical_json(self) -> str:
        return "[]"


NULL_SPANS = NullSpans()


def canonical_spans_run(config) -> str:
    """Run ``config`` fully instrumented and return the canonical span
    tree (module-level so it pickles into :func:`repro.parallel.run_map`
    workers — the jobs-parity leg of the span determinism test)."""
    from repro.core.framework import DDoSim
    from repro.obs.observatory import Observatory

    ddosim = DDoSim(config, observatory=Observatory.full())
    ddosim.run()
    return ddosim.obs.spans.canonical_json()
