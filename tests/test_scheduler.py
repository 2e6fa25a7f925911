"""Event-queue semantics: entries, tombstones, the two run loops.

The load-bearing property is at the bottom: random mixes of every
scheduling call and cancellation fire in (time, scheduling order) on
both run loops — the default fast loop and the instrumented loop an
``Observatory.full()`` switches to.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import simulator as simulator_module
from repro.netsim.simulator import SimulationError, Simulator
from repro.obs import Observatory
from repro.serialization import config_from_dict


class TestSimulatorScheduling:
    def test_config_rejects_unknown_scheduler(self):
        # the event queue is not a config knob: a stored config that
        # still names one fails loudly instead of being ignored
        with pytest.raises(ValueError, match="scheduler"):
            config_from_dict({"scheduler": "calendar"})

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

    def test_schedule_bare_entry_carries_no_handle(self):
        sim = Simulator()
        assert sim.schedule_bare(1.0, print, "bare") is None
        handle = sim.schedule(1.0, print, "handled")
        entries = sorted(sim.fingerprint_events())
        assert entries == [
            (1.0, 1, print, ("bare",), None),
            (1.0, 2, print, ("handled",), handle),
        ]

    def test_peek_next_time_skips_cancelled_head(self):
        sim = Simulator()
        head = sim.schedule(1.0, lambda: None)
        sim.schedule_bare(2.0, lambda: None)
        head.cancel()
        assert sim.queued_entries == 2
        assert sim.peek_next_time() == 2.0
        assert sim.queued_entries == 1  # the tombstone head is gone
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_executed == 1
        assert sim.peek_next_time() is None

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
        times = [1.0 + i * 1e-3 for i in range(200)]
        random.Random(7).shuffle(times)  # a heap that is not a sorted list
        fired = []
        handles = [sim.schedule_at(when, fired.append, when) for when in times]
        for handle in handles[:150]:
            handle.cancel()
        # Compaction fires once cancellations outnumber live events, so
        # the physical queue holds far fewer than 150 tombstones.
        assert sim.pending_events == 50
        assert sim.queued_entries < 100
        sim.run()
        assert sim.events_executed == 50
        assert fired == sorted(times[150:])  # the rebuilt heap still orders


OFFSETS = (0.0, 0.25, 0.5, 1.0)  # few distinct times: ties are common
SCHEDULE_CALLS = ("schedule", "schedule_at", "schedule_now", "schedule_bare",
                  "schedule_bare_at")

# (call, offset, cancel target); cancels are half the mix so that
# tombstones pile up and compaction runs mid-run
operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(SCHEDULE_CALLS), st.sampled_from(OFFSETS),
                  st.just(0)),
        st.tuples(st.just("cancel"), st.just(0.0),
                  st.integers(min_value=0, max_value=63)),
    ),
    min_size=1,
    max_size=80,
)


def play(sim, program, initial, until):
    """Run ``program`` against ``sim``: its first ``initial`` operations
    before the run, then one more as each event fires.

    Returns the fired ``(now, tag)`` sequence, the expected one (every
    event that was live when its time came, sorted by time, then by
    scheduling order) and how many live events are left unfired.
    """
    fired = []
    scheduled = []  # (time, tag) in scheduling order; tag = the position
    handles = []    # (handle, tag) of the cancellable events
    cancelled = set()
    fired_tags = set()
    ops = iter(program)

    def step():
        op = next(ops, None)
        if op is None:
            return
        call, offset, target = op
        if call == "cancel":
            if handles:
                handle, tag = handles[target % len(handles)]
                handle.cancel()
                if tag not in fired_tags:
                    cancelled.add(tag)
            return
        tag = len(scheduled)
        when = sim.now if call == "schedule_now" else sim.now + offset
        scheduled.append((when, tag))
        if call == "schedule":
            handles.append((sim.schedule(offset, fire, tag), tag))
        elif call == "schedule_at":
            handles.append((sim.schedule_at(when, fire, tag), tag))
        elif call == "schedule_now":
            handles.append((sim.schedule_now(fire, tag), tag))
        elif call == "schedule_bare":
            assert sim.schedule_bare(offset, fire, tag) is None
        else:
            assert sim.schedule_bare_at(when, fire, tag) is None

    def fire(tag):
        fired.append((sim.now, tag))
        fired_tags.add(tag)
        step()

    for _ in range(initial):
        step()
    sim.run(until=until)
    live = [(when, tag) for when, tag in scheduled if tag not in cancelled]
    expected = sorted(
        (when, tag) for when, tag in live if until is None or when <= until
    )
    return fired, expected, len(live) - len(fired)


@settings(max_examples=200, deadline=None)
@given(
    program=operations,
    initial=st.integers(min_value=1, max_value=20),
    until=st.sampled_from([None, 0.5, 1.5]),
)
def test_schedulers_dispatch_identically(program, initial, until):
    """Random mixes of every scheduling call and cancellation fire in
    (time, scheduling order) on the fast loop and on the instrumented
    loop, and both leave the same queue behind."""
    # A low compaction threshold makes cancellations rebuild the heap
    # mid-run, under the running loop's alias of it.
    with mock.patch.object(simulator_module, "COMPACT_MIN_TOMBSTONES", 2):
        fast = Simulator()
        instrumented = Simulator()
        instrumented.attach_observatory(Observatory.full())
        assert instrumented.obs.instrumented and not fast.obs.instrumented
        fired, expected, unfired = play(fast, program, initial, until)
        instrumented_fired, _, _ = play(instrumented, program, initial, until)
    assert fired == expected
    assert instrumented_fired == expected
    assert fast.events_executed == instrumented.events_executed == len(fired)
    assert fast.pending_events == instrumented.pending_events == unfired
    assert fast.queued_entries == instrumented.queued_entries
