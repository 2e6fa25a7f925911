"""The event queue behind the discrete-event simulator.

The queue holds **entries**, ``(time, seq, callback, args, handle)``
tuples; ``handle`` is the cancellable
:class:`repro.netsim.simulator.ScheduledEvent` that ``schedule_at``
returned, or None for a fire-and-forget ``schedule_bare`` event.
``seq`` is unique, so ``heapq`` orders entries by comparing tuples in C,
a comparison never reaches the callback, and equal-time events fire in
FIFO scheduling order.

:class:`HeapScheduler` is a ``heapq`` binary heap of entries whose pop
loop :class:`repro.netsim.simulator.Simulator` inlines; any object
with the same methods (``push``, ``peek``, ``pop_next``,
``drop_cancelled_head``, ``remove_cancelled``, ``events``), all taking
or returning entries, can stand in for it, e.g.
:class:`repro.simlint.runtime.TieBreakAuditor`.

The queue stores, but does not interpret, cancelled events: cancellation
is a tombstone flag on the handle; the simulator accounts live counts
and asks the queue to :meth:`~HeapScheduler.remove_cancelled` when
tombstones pile up (heavy retransmit/churn cancellation would otherwise
bloat the queue).
"""

from __future__ import annotations

import heapq
from typing import List, Optional


def is_cancelled(entry: tuple) -> bool:
    """True when ``entry`` is a tombstone (its handle was cancelled)."""
    handle = entry[4]
    return handle is not None and handle.cancelled


class HeapScheduler:
    """Binary-heap scheduler: the classic ``heapq`` priority queue."""

    name = "heap"

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[tuple] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: tuple) -> None:
        heapq.heappush(self._heap, entry)

    def peek(self) -> Optional[tuple]:
        """Earliest entry (cancelled included), or None when empty."""
        return self._heap[0] if self._heap else None

    def pop_next(self, limit: Optional[float] = None) -> Optional[tuple]:
        """Pop and return the earliest entry, or None when the queue is
        empty or the earliest entry lies beyond ``limit``."""
        heap = self._heap
        if not heap or (limit is not None and heap[0][0] > limit):
            return None
        return heapq.heappop(heap)

    def drop_cancelled_head(self) -> int:
        """Discard cancelled entries at the front; returns how many."""
        heap = self._heap
        removed = 0
        while heap and is_cancelled(heap[0]):
            heapq.heappop(heap)
            removed += 1
        return removed

    def remove_cancelled(self) -> int:
        """Compaction: drop every cancelled tombstone; returns how many.

        Rebuilds in place so aliases of the backing list stay valid.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not is_cancelled(entry)]
        heapq.heapify(heap)
        return before - len(heap)

    def events(self):
        """Every queued entry, tombstones included, in no particular
        order (end-state fingerprints sort by the (time, seq) key)."""
        return iter(self._heap)
