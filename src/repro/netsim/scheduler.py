"""The event queue behind the discrete-event simulator.

:class:`HeapScheduler` is a ``heapq`` binary heap ordered by the full
``(time, seq)`` event key, so equal-time events fire in FIFO scheduling
order and runs are deterministic.  :class:`repro.netsim.simulator.
Simulator` inlines its hot loop over the backing list; any object with
the same methods (``push``, ``peek``, ``pop_next``,
``drop_cancelled_head``, ``remove_cancelled``, ``events``) can stand in
for it, e.g. :class:`repro.simlint.runtime.TieBreakAuditor`.

The queue stores, but does not interpret, cancelled events: cancellation
is a tombstone flag on the event; the simulator accounts live counts and
asks the queue to :meth:`~HeapScheduler.remove_cancelled` when
tombstones pile up (heavy retransmit/churn cancellation would otherwise
bloat the queue).
"""

from __future__ import annotations

import heapq
from typing import List, Optional


class HeapScheduler:
    """Binary-heap scheduler: the classic ``heapq`` priority queue."""

    name = "heap"

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event) -> None:
        heapq.heappush(self._heap, event)

    def peek(self):
        """Earliest event (cancelled included), or None when empty."""
        return self._heap[0] if self._heap else None

    def pop_next(self, limit: Optional[float] = None):
        """Pop and return the earliest event, or None when the queue is
        empty or the earliest event lies beyond ``limit``."""
        heap = self._heap
        if not heap:
            return None
        event = heap[0]
        if limit is not None and event.time > limit:
            return None
        heapq.heappop(heap)
        return event

    def drop_cancelled_head(self) -> int:
        """Discard cancelled events at the front; returns how many."""
        heap = self._heap
        removed = 0
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            removed += 1
        return removed

    def remove_cancelled(self) -> int:
        """Compaction: drop every cancelled tombstone; returns how many.

        Rebuilds in place so aliases of the backing list stay valid.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [event for event in heap if not event.cancelled]
        heapq.heapify(heap)
        return before - len(heap)

    def events(self):
        """Every queued event, tombstones included, in no particular
        order (end-state fingerprints sort by the (time, seq) key)."""
        return iter(self._heap)
