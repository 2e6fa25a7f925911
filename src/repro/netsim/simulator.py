"""Discrete-event simulation core: virtual clock and event heap.

This is the heart of the NS-3 substitute.  NS-3 runs a single-threaded
event loop over a priority queue of (time, uid) ordered events; we do the
same over one binary heap that :class:`Simulator` owns.  Everything else
in ``repro`` — links, transports, containers, binaries, the botnet —
schedules callbacks here.

The scheduler is deliberately minimal and fast: DDoS-flood experiments
push millions of events through it, so the hot path is kept lean:

* The heap holds ``(time, seq, callback, args, handle)`` entries, so
  ``heapq`` orders events by comparing tuples in C: ``seq`` is unique,
  so a comparison never reaches the callback, and equal-time events
  fire in FIFO scheduling order.  The schedule calls push straight onto
  it.
* :meth:`Simulator.schedule_bare` is a fire-and-forget variant of
  :meth:`Simulator.schedule` that returns no handle: its entry carries
  ``handle=None`` and allocates no event object — the datapath (device
  serialization, channel propagation) uses it, because nobody ever
  cancels those events.
* Cancelled events are tombstones; the simulator keeps an exact live
  count (``pending_events``) and compacts the heap when tombstones
  outnumber live events, so retransmit/churn cancellation storms cannot
  bloat it.
* One run loop pops the heap.  It reads ``tracer.enabled`` once per
  :meth:`Simulator.run` and emits a ``sched.fire`` trace event per
  fired callback only when the observatory's tracer is on
  (``Observatory.full()``); otherwise tracing costs one local test per
  event.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from repro.obs.observatory import NULL_OBSERVATORY
from repro.obs.trace import site_of

#: compaction trigger: tombstones must exceed this count *and* the live
#: count before the queue is rebuilt (small queues never pay for it)
COMPACT_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Mirrors NS-3's ``EventId``: holding on to the handle lets callers
    ``cancel()`` the event before it fires (used heavily by retransmission
    timers and churn).  The queue entry holds the callback; the handle
    rides in the entry's last slot.  ``_sim`` backlinks to the owning
    simulator so a cancellation updates its live-event accounting; it is
    cleared when the event fires, making late ``cancel()`` calls
    harmless no-ops.
    """

    __slots__ = ("cancelled", "_sim")

    def __init__(self, sim: "Simulator"):
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event's callback from running when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent {state}>"


class Simulator:
    """A single-threaded discrete-event simulator with a virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second"))
        sim.run(until=10.0)

    Events scheduled for the same instant fire in FIFO scheduling order
    (ties broken by a monotonically increasing sequence number), matching
    NS-3 semantics and making runs fully deterministic.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        #: the event queue: a heapq of (time, seq, callback, args, handle)
        self._heap: List[tuple] = []
        self._running = False
        self._stopped = False
        self._live = 0        # scheduled, not yet fired or cancelled
        self._tombstones = 0  # cancelled but still queued
        self.events_executed: int = 0
        #: observability hub (registry + tracer + spans + recorder); the
        #: default null observatory has a null tracer, so run() emits no
        #: ``sched.fire`` events.
        self.obs = NULL_OBSERVATORY
        #: fluid-flow engine (repro.netsim.flows.FlowEngine) when the
        #: hybrid datapath is active; None keeps the packet path exact.
        self.flows = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_observatory(self, obs):
        """Install an :class:`repro.obs.Observatory`; returns it.

        Attach before building components: instrumented layers bind
        their counters/tracers from ``sim.obs`` at construction time.
        """
        self.obs = obs
        return obs

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._seq += 1
        event = ScheduledEvent(self)
        self._live += 1
        heappush(self._heap, (time, self._seq, callback, args, event))
        return event

    def schedule_now(self, callback: Callable, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at the current instant (after the
        currently executing event completes)."""
        return self.schedule_at(self._now, callback, *args)

    def schedule_bare(self, delay: float, callback: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no event object.

        The queue entry carries ``handle=None``, so a steady-state flood
        allocates one tuple per event and nothing else.  Use only where
        the caller drops the handle unconditionally — these events
        cannot be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        self._live += 1
        heappush(self._heap, (self._now + delay, self._seq, callback, args, None))

    def schedule_bare_at(self, time: float, callback: Callable, *args: Any) -> None:
        """:meth:`schedule_bare` at an absolute virtual ``time``.

        Exists so callers that computed an exact event time (e.g. a
        train's serialization chain) can schedule it without the extra
        ``now + (time - now)`` rounding a delay-based call would add.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._seq += 1
        self._live += 1
        heappush(self._heap, (time, self._seq, callback, args, None))

    def _note_cancel(self) -> None:
        """Live/tombstone bookkeeping for one cancellation.  When
        tombstones dominate, drops them all, rebuilding the heap in place
        so a running loop's alias of it stays valid."""
        self._live -= 1
        self._tombstones += 1
        if self._tombstones > COMPACT_MIN_TOMBSTONES and self._tombstones > self._live:
            heap = self._heap
            before = len(heap)
            heap[:] = [
                entry for entry in heap
                if entry[4] is None or not entry[4].cancelled
            ]
            heapify(heap)
            self._tombstones -= before - len(heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        :meth:`stop` is called.  Returns the final virtual time.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, mirroring NS-3's
        ``Simulator::Stop(Seconds(t)); Simulator::Run()`` idiom.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            self._run_heap(until)
        except Exception:
            # An exception escaping the event loop (a failed assertion, a
            # crashing callback) force-dumps the flight recorder so the
            # post-mortem has the run-up, not a blank trace.  dump() never
            # raises; the original error propagates untouched.
            recorder = getattr(self.obs, "recorder", None)
            if recorder is not None and recorder.enabled:
                recorder.dump("sim.exception", self._now)
            raise
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        return self._now

    def _run_heap(self, until: Optional[float]) -> None:
        """The run loop: pop, skip tombstones, fire.  A ``sched.fire``
        event names each fired callback's site when tracing is on."""
        heap = self._heap
        limit = float("inf") if until is None else until
        tracer = self.obs.tracer
        trace_on = tracer.enabled
        while heap and not self._stopped:
            if heap[0][0] > limit:
                break
            when, _, callback, args, handle = heappop(heap)
            if handle is not None:
                if handle.cancelled:
                    self._tombstones -= 1
                    continue
                handle._sim = None  # fired: late cancel() is a no-op
            self._now = when
            self._live -= 1
            self.events_executed += 1
            if trace_on:
                tracer.emit("sched.fire", when, site=site_of(callback))
            callback(*args)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def peek_next_time(self) -> Optional[float]:
        """Virtual time of the next pending (non-cancelled) event, if any."""
        heap = self._heap
        while heap and heap[0][4] is not None and heap[0][4].cancelled:
            heappop(heap)
            self._tombstones -= 1
        return heap[0][0] if heap else None

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued (cancelled tombstones
        excluded — they are queue debris awaiting compaction)."""
        return self._live

    @property
    def queued_entries(self) -> int:
        """Raw heap length including cancelled tombstones (what the
        heap physically holds)."""
        return len(self._heap)

    def fingerprint_events(self):
        """Every queued ``(time, seq, callback, args, handle)`` entry —
        tombstones included — for end-state fingerprints, in heap order
        (callers sort by the (time, seq) key)."""
        return iter(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Simulator t={self._now:.6f} pending={self._live} "
            f"tombstones={self._tombstones}>"
        )
