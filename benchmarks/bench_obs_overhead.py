"""Overhead of the observability layer on the scheduler hot path.

The contract (DESIGN.md "Observability") is that an *uninstrumented* run
pays nearly nothing: a bare :class:`Simulator` defaults to
``NULL_OBSERVATORY``, and the default ``Observatory()`` (real registry,
null tracer) runs the same loop with tracing off, which
costs one local test per event.  ``Observatory.full()`` turns the
tracer on, so the loop also emits a ``sched.fire`` event per callback;
that cost we report but do not bound.

Timings use min-of-N: the minimum over several repeats is the least
noisy estimator for "how fast can this loop go", which is what an
overhead ratio needs.  The two setups of a ratio run in turns, so a
host-speed swing lands on both minima alike instead of reading as
overhead.
"""

import time

from repro.netsim.simulator import Simulator
from repro.obs import Observatory

N_EVENTS = 50_000
REPEATS = 7
MAX_OFF_OVERHEAD = 0.05  # 5%


def _noop():
    pass


def _run_scheduler(observatory=None) -> float:
    """Wall seconds to schedule+dispatch N_EVENTS no-op events."""
    sim = Simulator()
    if observatory is not None:
        sim.attach_observatory(observatory)
    for index in range(N_EVENTS):
        sim.schedule(index * 1e-6, _noop)
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


def test_off_mode_overhead_under_5_percent():
    """Default Observatory (metrics-only) must cost what a bare
    simulator does: the same loop, tracing off."""
    bare, metrics_only = _best_in_turns(None, Observatory)
    overhead = metrics_only / bare - 1.0
    print(
        f"\nbare: {N_EVENTS / bare:,.0f} ev/s | "
        f"metrics-only: {N_EVENTS / metrics_only:,.0f} ev/s | "
        f"overhead: {overhead:+.2%}"
    )
    assert overhead < MAX_OFF_OVERHEAD


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


def test_flight_recorder_note_cost_is_bounded():
    """The always-on recorder only sees low-rate landmarks, but a note
    must still be cheap (dict build + deque append) — its ring bounds
    memory, this bounds time.  Reported as notes/sec; the assertion only
    guards against an accidental O(capacity) note path."""
    from repro.obs.recorder import FlightRecorder

    n = 200_000
    small, large = FlightRecorder(capacity=64), FlightRecorder(capacity=4096)

    def loop(recorder) -> float:
        start = time.perf_counter()
        for index in range(n):
            recorder.note("container.spawn", float(index), name="dev0")
        return time.perf_counter() - start

    t_small = min(loop(small) for _ in range(REPEATS))
    t_large = min(loop(large) for _ in range(REPEATS))
    print(
        f"\nnote() cap=64: {n / t_small:,.0f}/s | "
        f"cap=4096: {n / t_large:,.0f}/s"
    )
    assert small.noted == n * REPEATS  # every call counted, ring or not
    # Cost must not scale with ring capacity (deque maxlen eviction).
    assert t_large < t_small * 3.0
