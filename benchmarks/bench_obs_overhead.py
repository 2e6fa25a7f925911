"""Overhead of the observability layer on the scheduler hot path.

The contract (DESIGN.md "Observability") is that an *uninstrumented* run
pays nothing per event: a bare :class:`Simulator` defaults to
``NULL_OBSERVATORY``, and the default ``Observatory()`` (real registry,
null tracer) runs the same loop with tracing off — ``_run_heap`` reads
``tracer.enabled`` once per ``run()``, not once per event.

Wall time cannot check "the same loop": two timings of one loop differ
by more than 5% often enough to fail a 5% bound on noise alone.  So the
gate counts the work instead, over the same 50,000 no-op events:
bytecode instructions (``sys.settrace`` with ``f_trace_opcodes``) and
Python plus C calls (``sys.setprofile``) executed inside ``sim.run()``.
Both counts are exact and repeat run to run, so one extra attribute
read or call per event under ``Observatory()`` fails the gate.

``Observatory.full()`` turns the tracer on, so the loop also emits a
``sched.fire`` event per callback; that cost we time and report, and
bound only against a gross regression.  Timings use min-of-N: the
minimum over several repeats is the least noisy estimator for "how fast
can this loop go".  The two setups of a ratio run in turns, so a
host-speed swing lands on both minima alike instead of reading as
overhead.
"""

import gc
import sys
import time

from repro.netsim.simulator import Simulator
from repro.obs import Observatory

N_EVENTS = 50_000
REPEATS = 7


def _noop():
    pass


def _scheduled(observatory=None) -> Simulator:
    """A simulator holding N_EVENTS no-op events, not yet run."""
    sim = Simulator()
    if observatory is not None:
        sim.attach_observatory(observatory)
    for index in range(N_EVENTS):
        sim.schedule(index * 1e-6, _noop)
    return sim


def _work_in_run(observatory=None) -> tuple:
    """``(opcodes, calls)`` executed inside ``sim.run()``.  The garbage
    collector is off for the count, so no finalizer lands in it."""
    sim = _scheduled(observatory)
    opcodes = calls = 0

    def count_opcodes(frame, event, arg):
        nonlocal opcodes
        frame.f_trace_opcodes = True
        if event == "opcode":
            opcodes += 1
        return count_opcodes

    def count_calls(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    # Python 3.12 turns on per-opcode events at settrace() only if a
    # frame has already asked for them; this frame asks first.
    sys._getframe().f_trace_opcodes = True
    gc.collect()
    gc.disable()
    sys.settrace(count_opcodes)
    sys.setprofile(count_calls)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
        sys.settrace(None)
        gc.enable()
    assert sim.events_executed == N_EVENTS
    return opcodes, calls


def _run_scheduler(observatory=None) -> float:
    """Wall seconds to dispatch N_EVENTS no-op events."""
    sim = _scheduled(observatory)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert sim.events_executed == N_EVENTS
    return elapsed


def _best_in_turns(*makers) -> list:
    """Min-of-REPEATS wall time per setup (``None`` = a bare simulator,
    else an observatory factory), running the setups in turns."""
    def once(make):
        return _run_scheduler(make() if make else None)

    for make in makers:  # warm-up
        once(make)
    samples = [[] for _ in makers]
    for _ in range(REPEATS):
        for times, make in zip(samples, makers):
            times.append(once(make))
    return [min(times) for times in samples]


def test_off_mode_does_the_work_of_a_bare_simulator():
    """Default Observatory (metrics-only) must run exactly the bare
    simulator's loop: the same opcodes and calls, tracing off."""
    bare = _work_in_run()
    metrics_only = _work_in_run(Observatory())
    full = _work_in_run(Observatory.full())
    print(
        f"\n(opcodes, calls) over {N_EVENTS:,} events | bare: {bare} | "
        f"metrics-only: {metrics_only} | full: {full}"
    )
    assert metrics_only == bare
    # The counter sees per-event work: tracing on must show up in both.
    assert full[0] > bare[0] and full[1] > bare[1]


def test_report_full_instrumentation_cost():
    """Informational: events/sec with the tracer on."""
    bare, full = _best_in_turns(None, Observatory.full)
    print(
        f"\nbare: {N_EVENTS / bare:,.0f} ev/s | "
        f"full: {N_EVENTS / full:,.0f} ev/s | "
        f"slowdown: {full / bare:.2f}x"
    )
    # Sanity only — full instrumentation is allowed to cost, but a >20x
    # slowdown would mean per-event tracing regressed badly.
    assert full / bare < 20.0
