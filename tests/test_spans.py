"""Tests for causal span tracking (repro.obs.spans): deterministic IDs,
parent/child links, packet attribution, and the end-to-end guarantee
that the reconstructed attack tree is byte-identical run-to-run and
across --jobs."""

import pytest

from repro.core import DDoSim, SimulationConfig
from repro.obs import Observatory
from repro.obs.spans import NULL_SPANS, SpanTracker, canonical_spans_run
from repro.parallel import run_map


def spans_config(**overrides):
    base = dict(
        n_devs=2,
        seed=1,
        attack_duration=10.0,
        recruit_timeout=30.0,
        sim_duration=120.0,
        # All-unprotected fleets recruit deterministically, so the tree
        # always contains the full exploit -> recruit -> attack chain.
        protection_profiles=((),),
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestSpanIds:
    def test_ids_are_deterministic_functions_of_position(self):
        first, second = SpanTracker(seed=3), SpanTracker(seed=3)
        a = first.start("exploit", 1.0, entity="dev0")
        b = second.start("exploit", 1.0, entity="dev0")
        assert a.span_id == b.span_id

    def test_different_seed_changes_root_namespace(self):
        a = SpanTracker(seed=1).start("exploit", 1.0, entity="dev0")
        b = SpanTracker(seed=2).start("exploit", 1.0, entity="dev0")
        assert a.span_id != b.span_id

    def test_repeated_same_position_gets_fresh_index(self):
        tracker = SpanTracker(seed=0)
        a = tracker.start("probe", 1.0, entity="dev0")
        b = tracker.start("probe", 2.0, entity="dev0")
        assert a.span_id != b.span_id

    def test_reseed_resets_counters_and_state(self):
        tracker = SpanTracker(seed=5)
        first = tracker.start("probe", 1.0, entity="dev0")
        tracker.bind(("k",), first)
        tracker.reseed(5)
        assert len(tracker) == 0
        assert tracker.lookup(("k",)) is None
        again = tracker.start("probe", 1.0, entity="dev0")
        assert again.span_id == first.span_id


class TestLifecycle:
    def test_parent_links_and_tree_nesting(self):
        tracker = SpanTracker(seed=0)
        parent = tracker.start("exploit", 1.0, entity="a")
        child = tracker.start("cnc.recruit", 2.0, entity="a", parent=parent)
        assert child.parent_id == parent.span_id
        tree = tracker.tree()
        assert [node["kind"] for node in tree] == ["exploit"]
        assert tree[0]["children"][0]["kind"] == "cnc.recruit"

    def test_end_records_status_and_fields(self):
        tracker = SpanTracker(seed=0)
        span = tracker.start("exploit", 1.0, entity="a")
        tracker.end(span, 3.5, status="sent", vector="dns")
        assert span.t_end == 3.5
        assert span.status == "sent"
        assert span.duration == pytest.approx(2.5)
        assert span.to_dict()["vector"] == "dns"

    def test_bind_and_lookup_cross_layer_keys(self):
        tracker = SpanTracker(seed=0)
        span = tracker.start("exploit", 1.0, entity="a")
        tracker.bind(("exploit", "2001:db8::1"), span)
        assert tracker.lookup(("exploit", "2001:db8::1")) is span
        assert tracker.lookup(("exploit", "unknown")) is None

    def test_drop_and_deliver_attribute_to_span(self):
        tracker = SpanTracker(seed=0)
        span = tracker.start("attack.train", 1.0, entity="a")
        tracker.drop(span.span_id, 3)
        tracker.deliver(span.span_id, 2, nbytes=1024)
        record = span.to_dict()
        assert record["packets_dropped"] == 3
        assert record["packets_delivered"] == 2
        assert record["bytes_delivered"] == 1024
        # Unknown IDs (e.g. a truncated span) are silently ignored.
        tracker.drop("ffffffffffffffff")

    def test_capacity_truncates_but_callers_keep_working(self):
        tracker = SpanTracker(seed=0, max_spans=2)
        kept = [tracker.start("x", float(i), entity=str(i)) for i in range(2)]
        extra = tracker.start("x", 9.0, entity="overflow")
        assert extra is not None
        tracker.end(extra, 10.0)  # no-op retention, no crash
        assert len(tracker) == 2
        assert tracker.truncated == 1
        assert tracker.get(kept[0].span_id) is not None
        assert tracker.get(extra.span_id) is None

    def test_ended_spans_noted_into_flight_recorder(self):
        from repro.obs.recorder import FlightRecorder

        tracker = SpanTracker(seed=0)
        tracker.recorder = FlightRecorder()
        span = tracker.start("exploit", 1.0, entity="a")
        tracker.end(span, 2.0, status="sent")
        note = tracker.recorder.recent()[-1]
        assert note["kind"] == "span"
        assert note["span"] == "exploit"
        assert note["status"] == "sent"


class TestNullSpans:
    def test_null_tracker_is_inert(self):
        assert NULL_SPANS.enabled is False
        span = NULL_SPANS.start("exploit", 1.0, entity="a")
        assert span is None
        NULL_SPANS.end(span, 2.0)
        NULL_SPANS.bind(("k",), span)
        assert NULL_SPANS.lookup(("k",)) is None
        assert NULL_SPANS.spans() == []
        assert NULL_SPANS.canonical_json() == "[]"


class TestExport:
    def test_to_dicts_ordered(self):
        tracker = SpanTracker(seed=0)
        late = tracker.start("b", 5.0, entity="x")
        early = tracker.start("a", 1.0, entity="y")
        tracker.end(late, 6.0)
        tracker.end(early, 2.0)
        records = tracker.to_dicts()
        assert [r["kind"] for r in records] == ["a", "b"]


@pytest.fixture(scope="module")
def traced_run():
    ddosim = DDoSim(spans_config(), observatory=Observatory.full())
    result = ddosim.run()
    return ddosim, result


class TestEndToEndTree:
    def test_recruitment_chain_reconstructs(self, traced_run):
        ddosim, result = traced_run
        kinds = ddosim.obs.spans.kinds()
        assert kinds["cnc.recruit"] == result.recruitment.bots_recruited == 2
        for root in ddosim.obs.spans.tree():
            if root["kind"] != "exploit":
                continue
            outcome = root["children"][0]
            assert outcome["kind"] == "exploit.outcome"
            assert outcome["children"][0]["kind"] == "cnc.recruit"

    def test_attack_trains_parent_under_command(self, traced_run):
        ddosim, _result = traced_run
        command = next(root for root in ddosim.obs.spans.tree()
                       if root["kind"] == "cnc.command")
        trains = [c for c in command["children"] if c["kind"] == "attack.train"]
        assert len(trains) == 2
        assert all(t["packets_delivered"] > 0 for t in trains)
        assert all(t["bytes_delivered"] > 0 for t in trains)

    def test_span_ids_contain_no_wall_clock(self, traced_run):
        ddosim, _result = traced_run
        for span in ddosim.obs.spans.spans():
            int(span.span_id, 16)  # pure hex digest
            assert len(span.span_id) == 16


class TestDeterminism:
    def test_tree_byte_identical_across_runs_and_jobs(self):
        config = spans_config()
        serial = canonical_spans_run(config)
        again = canonical_spans_run(config)
        assert serial == again
        parallel = run_map(canonical_spans_run, [config, config], jobs=2)
        assert parallel == [serial, serial]

    def test_different_seed_differs(self):
        base = canonical_spans_run(spans_config())
        other = canonical_spans_run(spans_config(seed=2))
        assert base != other
