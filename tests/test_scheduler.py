"""Event-queue semantics: freelist, tombstones, custom schedulers.

The load-bearing property is at the bottom: a wrapped scheduler, which
takes the simulator's generic run loop, dispatches the identical event
sequence to the inlined heap loop.
"""

import random

import pytest

from repro.netsim.scheduler import HeapScheduler
from repro.netsim.simulator import SimulationError, Simulator
from repro.serialization import config_from_dict
from repro.simlint.runtime import TieBreakAuditor


class TestSimulatorScheduling:
    def test_config_rejects_unknown_scheduler(self):
        # the event queue is not a config knob: a stored config that
        # still names one fails loudly instead of being ignored
        with pytest.raises(ValueError, match="scheduler"):
            config_from_dict({"scheduler": "calendar"})

    def test_scheduler_name_property(self):
        assert Simulator().scheduler_name == "heap"
        wrapped = Simulator(scheduler=TieBreakAuditor(HeapScheduler()))
        assert wrapped.scheduler_name == "tiebreak-audit"

    def test_schedule_bare_fires_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_bare(0.2, fired.append, "late")
        sim.schedule_bare(0.1, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_schedule_bare_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_bare(-0.1, lambda: None)

    def test_schedule_bare_recycles_event_objects(self):
        sim = Simulator()

        def chain(remaining):
            if remaining:
                sim.schedule_bare(0.1, chain, remaining - 1)

        chain(100)
        sim.run()
        # Strictly sequential wakeups reuse a single freelist event.
        assert sim.events_executed == 100
        assert len(sim._free) == 1

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        drop.cancel()
        assert sim.pending_events == 1
        assert keep is not drop

    def test_cancel_after_fire_keeps_live_count_exact(self):
        sim = Simulator()
        handle = sim.schedule(0.5, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        handle.cancel()  # late cancel must be a no-op
        assert sim.pending_events == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_executed == 0

    def test_tombstone_compaction_shrinks_queue(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i * 1e-3, lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        # Compaction fires once cancellations outnumber live events, so
        # the physical queue holds far fewer than 150 tombstones.
        assert sim.pending_events == 50
        assert sim.queued_entries < 100
        sim.run()
        assert sim.events_executed == 50


def test_schedulers_dispatch_identically():
    """Same churn-heavy workload, identical firing sequence on the
    inlined heap loop and the generic loop behind a wrapped heap."""

    def workload(sim):
        rng = random.Random(1234)
        order = []
        handles = []

        def callback(tag):
            order.append((sim.now, tag))
            if tag % 3 == 0 and sim.now < 4.0:
                handles.append(sim.schedule(rng.random(), callback, tag + 1000))
            if tag % 5 == 0 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()
            if tag % 2 == 0 and sim.now < 4.0:
                sim.schedule_bare(rng.random() * 0.3, callback, tag + 1)

        for index in range(300):
            sim.schedule(rng.random() * 2.0, callback, index)
        sim.run(until=8.0)
        return order

    baseline = workload(Simulator())
    wrapped = Simulator(scheduler=TieBreakAuditor(HeapScheduler()))
    assert wrapped._heap is None  # takes the generic loop
    assert workload(wrapped) == baseline
    assert len(baseline) > 300
