"""Tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.core import DDoSim, SimulationConfig
from repro.core.telemetry import TelemetrySampler
from repro.netsim.simulator import Simulator
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    NULL_OBSERVATORY,
    NULL_TRACER,
    Observatory,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        assert registry.value("requests_total") == 5.0

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        first.inc()
        again = registry.counter("x_total")
        assert again is first
        assert again.value == 1.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_labeled_family(self):
        registry = MetricsRegistry()
        family = registry.counter("exploits_total", labels=("vector",))
        family.labels("dns").inc()
        family.labels("dns").inc()
        family.labels("dhcp6").inc()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["exploits_total"] == {
            "vector=dns": 2.0,
            "vector=dhcp6": 1.0,
        }

    def test_label_arity_mismatch_raises(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0

    def test_callback_gauge_reads_live(self):
        state = {"n": 3}
        gauge = MetricsRegistry().gauge("live", fn=lambda: state["n"])
        assert gauge.value == 3.0
        state["n"] = 7
        assert gauge.value == 7.0

    def test_set_clears_callback(self):
        gauge = MetricsRegistry().gauge("live", fn=lambda: 99)
        gauge.set(1)
        assert gauge.value == 1.0


class TestHistogram:
    def test_snapshot_shape(self):
        """The histogram kind is gone, but snapshots (and so
        ``--metrics-out`` files) keep an always-empty ``histograms`` key."""
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.gauge("g").set(2)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert snapshot["histograms"] == {}
        assert MetricsRegistry.delta(snapshot, snapshot)["histograms"] == {}
        assert not hasattr(registry, "histogram")


class TestRegistryExport:
    def test_delta_subtracts_counters_keeps_gauges(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        gauge = registry.gauge("g")
        counter.inc(3)
        gauge.set(10)
        before = registry.snapshot()
        counter.inc(4)
        gauge.set(20)
        delta = MetricsRegistry.delta(before, registry.snapshot())
        assert delta["counters"]["c_total"][""] == 4.0
        assert delta["gauges"]["g"][""] == 20.0


class TestEventTracer:
    def test_emit_and_merged_time_order(self):
        tracer = EventTracer()
        tracer.emit("b.late", 2.0, x=1)
        tracer.emit("a.early", 1.0)
        names = [event.name for event in tracer.events()]
        assert names == ["a.early", "b.late"]
        assert tracer.events("b.late")[0].fields == {"x": 1}

    def test_same_time_events_come_back_in_emission_order(self):
        tracer = EventTracer()
        for name in ("z.first", "a.second", "m.third", "a.fourth"):
            tracer.emit(name, 5.0)
        tracer.emit("a.earlier", 4.0)
        order = ["a.earlier", "z.first", "a.second", "m.third", "a.fourth"]
        assert [event.name for event in tracer.events()] == order
        subset = tracer.events("m.third", "a.second", "z.first")
        assert [event.name for event in subset] == order[1:4]
        assert [event.seq for event in tracer.events()] == [5, 1, 2, 3, 4]
        assert not hasattr(tracer.events()[0], "wall")

    def test_ring_eviction_is_per_type_and_counted(self):
        tracer = EventTracer(capacity_per_type=3)
        for i in range(10):
            tracer.emit("chatty", float(i))
        tracer.emit("rare", 100.0)
        # chatty keeps only the newest 3; rare survives untouched.
        assert [e.t for e in tracer.events("chatty")] == [7.0, 8.0, 9.0]
        assert len(tracer.events("rare")) == 1
        assert tracer.evicted["chatty"] == 7
        assert tracer.counts() == {"chatty": 10, "rare": 1}

    def test_chrome_export_carries_eviction_counts(self):
        tracer = EventTracer(capacity_per_type=1)
        tracer.emit("chatty", 1.0)
        tracer.emit("chatty", 2.0)
        document = json.loads(tracer.to_chrome_json())
        assert document["otherData"]["evicted"] == {"chatty": 1}
        assert document["otherData"]["total_evicted"] == 1
        # An untruncated trace carries no eviction record.
        clean = EventTracer()
        clean.emit("x", 1.0)
        assert "evicted" not in json.loads(clean.to_chrome_json())["otherData"]

    def test_chrome_trace_shape(self):
        tracer = EventTracer()
        tracer.emit("queue.drop", 0.25, queue="q0")
        tracer.emit("cnc.recruit", 1.0, bot_id=3)
        document = json.loads(tracer.to_chrome_json())
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {m["args"]["name"] for m in metadata} == {"queue.drop", "cnc.recruit"}
        drop = next(e for e in instants if e["name"] == "queue.drop")
        assert drop["ts"] == pytest.approx(250_000)  # virtual s -> µs
        assert drop["cat"] == "queue"
        assert drop["args"]["queue"] == "q0"
        # one lane per event type
        assert len({e["tid"] for e in instants}) == 2

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("anything", 1.0, huge="payload")
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.counts() == {}
        assert json.loads(NULL_TRACER.to_chrome_json())["traceEvents"] == []


class TestObservatory:
    def test_bare_simulator_stays_null(self):
        sim = Simulator()
        assert sim.obs is NULL_OBSERVATORY
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.obs.tracer.events() == []

    def test_default_is_metrics_only(self):
        obs = Observatory()
        assert obs.tracer is NULL_TRACER
        assert obs.recorder.enabled

    def test_full_is_instrumented(self):
        sim = Simulator()
        obs = sim.attach_observatory(Observatory.full())
        assert obs.tracer.enabled
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert [e.name for e in obs.tracer.events()] == ["sched.fire"] * 2


@pytest.fixture(scope="module")
def instrumented_run():
    config = SimulationConfig(
        n_devs=6, seed=11, attack_duration=15.0,
        recruit_timeout=30.0, sim_duration=120.0,
        queue_packets=8,  # small queues so the flood visibly drops
    )
    ddosim = DDoSim(config, observatory=Observatory.full())
    sampler = TelemetrySampler(ddosim, interval=5.0)
    result = ddosim.run()
    return ddosim, sampler, result


class TestEndToEnd:
    def test_expected_event_types_present(self, instrumented_run):
        ddosim, _sampler, _result = instrumented_run
        types = set(ddosim.obs.tracer.event_types())
        assert {"sched.fire", "link.tx", "queue.drop",
                "container.spawn", "cnc.recruit", "exploit.attempt",
                "exploit.success"} <= types

    def test_recruit_events_match_result(self, instrumented_run):
        ddosim, _sampler, result = instrumented_run
        recruits = ddosim.obs.tracer.events("cnc.recruit")
        assert len(recruits) == result.recruitment.bots_recruited == 6

    def test_metrics_cover_all_subsystems(self, instrumented_run):
        ddosim, _sampler, _result = instrumented_run
        snapshot = ddosim.obs.metrics.snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        assert counters["queue_drops_total"][""] > 0
        assert counters["container_spawns_total"][""] >= 7  # devs + attacker
        assert counters["cnc_recruits_total"][""] == 6
        assert counters["link_tx_packets_total"][""] > 0
        assert gauges["tserver_rx_bytes_total"][""] > 0

    def test_queue_drop_counter_matches_star_accounting(self, instrumented_run):
        ddosim, _sampler, result = instrumented_run
        assert (
            ddosim.obs.metrics.value("queue_drops_total")
            == ddosim.star.total_queue_drops()
            == result.attack.queue_drops
        )

    def test_telemetry_sources_from_registry(self, instrumented_run):
        _ddosim, sampler, result = instrumented_run
        series = sampler.series
        assert series.samples[0].received_rate_kbps == 0.0  # no interval yet
        assert series.infection_curve()[-1] == result.recruitment.bots_recruited
        assert series.samples[-1].queue_drops_total == result.attack.queue_drops
        header = series.to_csv().splitlines()[0]
        assert header.split(",") == [
            "time", "bots_connected", "devs_online", "distinct_recruits",
            "tserver_rx_bytes_total", "received_rate_kbps",
            "container_memory_bytes", "queue_drops_total",
        ]
        first = json.loads(series.to_jsonl().splitlines()[0])
        assert first["time"] == 0.0

    def test_chrome_trace_loads_and_spans_subsystems(self, instrumented_run, tmp_path):
        ddosim, _sampler, _result = instrumented_run
        path = tmp_path / "trace.json"
        ddosim.obs.write_trace_chrome(str(path))
        document = json.loads(path.read_text())
        instants = [e for e in document["traceEvents"] if e.get("ph") == "i"]
        assert len({e["name"] for e in instants}) >= 3
