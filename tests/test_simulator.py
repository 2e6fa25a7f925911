"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.netsim.simulator import SimulationError


class TestScheduling:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_at_requested_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_callback_arguments_are_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(2.0, order.append, "middle")
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_ties_fire_in_scheduling_order(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_now_runs_after_current_event(self, sim):
        order = []

        def first():
            sim.schedule_now(order.append, "nested")
            order.append("first")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]

    def test_events_scheduled_during_run_execute(self, sim):
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 1)
        sim.run()
        assert seen == [1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "nope")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_one_of_several(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "keep")
        target = sim.schedule(1.0, seen.append, "drop")
        target.cancel()
        sim.run()
        assert seen == ["keep"]

    def test_peek_next_time_skips_cancelled(self, sim):
        cancelled = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        assert sim.peek_next_time() == 2.0


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self, sim):
        sim.schedule(10.0, lambda: None)
        final = sim.run(until=5.0)
        assert final == 5.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.schedule(1.0, lambda: None)
        final = sim.run(until=7.0)
        assert final == 7.0

    def test_stop_halts_after_current_event(self, sim):
        seen = []

        def first():
            seen.append("a")
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen == ["a"]

    def test_resume_after_stop(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.stop())
        sim.schedule(2.0, seen.append, "later")
        sim.run()
        assert seen == []
        sim.run()
        assert seen == ["later"]

    def test_reentrant_run_rejected(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()

    def test_event_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_clock_never_goes_backwards(self, sim):
        stamps = []
        for delay in (3.0, 1.0, 2.0, 1.0):
            sim.schedule(delay, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == sorted(stamps)


class TestBoundarySemantics:
    """Pin the ``run(until=T)`` boundary: it is INCLUSIVE (events at
    exactly T fire, later ones stay queued) and pads the clock to T
    unless the run was stopped first.  ``DDoSim.run`` drives every run
    through ``run(until=sim_duration)`` and reports ``sim_end_time``
    from the clock it leaves behind, so moving either edge would change
    which events a run executes and the bytes it writes."""

    def test_run_until_is_inclusive(self, sim):
        seen = []
        sim.schedule_at(5.0, seen.append, "at-bound")
        sim.schedule_at(5.0 + 1e-9, seen.append, "past-bound")
        final = sim.run(until=5.0)
        assert seen == ["at-bound"]
        assert final == 5.0
        assert sim.pending_events == 1

    def test_run_tail_padding_skipped_after_stop(self, sim):
        # The orchestrator's stop() must leave sim.now at the stop event,
        # not padded to sim_duration — results expose sim_end_time.
        sim.schedule_at(3.0, sim.stop)
        final = sim.run(until=10.0)
        assert final == 3.0
