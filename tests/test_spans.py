"""Tests for the causal attack tree (repro.obs.report.causal_tree): the
lifecycle spans of a run — probe, exploit, hijack outcome, loader
attempt, C&C recruit, attack order, flood train — joined from the event
trace, with each train's delivered totals read from the sink's flow
records, and the end-to-end guarantee that the tree is byte-identical
run-to-run and across --jobs."""

import json

import pytest

from repro.core import DDoSim, SimulationConfig
from repro.obs import NULL_TRACER, EventTracer, Observatory, causal_tree
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


def traced(config) -> DDoSim:
    ddosim = DDoSim(config, observatory=Observatory.full())
    ddosim.run()
    return ddosim


def tree_of(ddosim):
    return causal_tree(ddosim.obs.tracer, ddosim.tserver.sink.flow_records())


def nodes_of(tree):
    for node in tree:
        yield node
        yield from nodes_of(node["children"])


def canonical_tree_run(config) -> str:
    """One traced run's causal tree as canonical JSON (module-level so it
    pickles into run_map workers)."""
    return json.dumps(tree_of(traced(config)), sort_keys=True)


def _hijack_chain(tracer, address="2001:db8::5"):
    tracer.emit("exploit.attempt", 1.0, vector="dns", target=address,
                slide=0, program="connmand")
    tracer.emit("exploit.success", 1.5, program="connmand",
                container="dev000", address=address)
    tracer.emit("cnc.recruit", 2.0, bot_id=1, address=address,
                architecture="x86_64")


def _order_and_train(tracer, stop=True):
    tracer.emit("cnc.attack", 3.0, method="udpplain", target="2001:db8::2",
                port=7777, duration=10.0, bots=1)
    tracer.emit("attack.start", 3.5, address="2001:db8::5", src_port=49152,
                method="udpplain", target="2001:db8::2", port=7777)
    if stop:
        tracer.emit("attack.stop", 13.5, address="2001:db8::5",
                    src_port=49152, packets_sent=100, bytes_sent=56000)


_FLOW_RECORD = {"src": "2001:db8::5", "src_port": 49152, "dst_port": 7777,
                "packets": 60, "bytes": 33600}


class TestLifecycle:
    def test_parent_links_and_tree_nesting(self):
        tracer = EventTracer()
        _hijack_chain(tracer)
        tree = causal_tree(tracer)
        assert [node["kind"] for node in tree] == ["exploit"]
        outcome = tree[0]["children"][0]
        assert (outcome["kind"], outcome["entity"], outcome["status"]) == (
            "exploit.outcome", "dev000", "hijacked")
        assert outcome["children"][0]["kind"] == "cnc.recruit"

    def test_end_records_status_and_fields(self):
        tracer = EventTracer()
        _order_and_train(tracer)
        train = causal_tree(tracer, [_FLOW_RECORD])[0]["children"][0]
        assert (train["t_start"], train["t_end"], train["status"]) == (
            3.5, 13.5, "ok")
        assert (train["packets_sent"], train["bytes_sent"]) == (100, 56000)
        assert (train["packets_delivered"], train["bytes_delivered"]) == (
            60, 33600)

    def test_bind_and_lookup_cross_layer_keys(self):
        tracer = EventTracer()
        _hijack_chain(tracer)
        # A crash at an address no exploit targeted becomes its own root.
        tracer.emit("exploit.crash", 4.0, program="dnsmasq",
                    container="dev009", address="2001:db8::9", reason="SIGSEGV")
        roots = causal_tree(tracer)
        assert [root["kind"] for root in roots] == ["exploit", "exploit.outcome"]
        assert roots[1]["status"] == "crashed"
        assert roots[1]["reason"] == "SIGSEGV"

    def test_capacity_truncates_but_callers_keep_working(self):
        tracer = EventTracer(capacity_per_type=1)
        _order_and_train(tracer, stop=False)
        # A second start evicts the first; the first train's stop then
        # has nothing to close and is skipped.
        tracer.emit("attack.start", 4.0, address="2001:db8::6",
                    src_port=49152, method="udpplain", target="2001:db8::2",
                    port=7777)
        tracer.emit("attack.stop", 13.5, address="2001:db8::5",
                    src_port=49152, packets_sent=100, bytes_sent=56000)
        trains = causal_tree(tracer)[0]["children"]
        assert [train["entity"] for train in trains] == ["2001:db8::6"]
        assert tracer.evicted["attack.start"] == 1


class TestNullSpans:
    def test_null_tracker_is_inert(self):
        assert causal_tree(NULL_TRACER, [_FLOW_RECORD]) == []
        assert not hasattr(Observatory(), "spans")


@pytest.fixture(scope="module")
def traced_run():
    ddosim = traced(spans_config())
    return ddosim, tree_of(ddosim)


class TestEndToEndTree:
    def test_recruitment_chain_reconstructs(self, traced_run):
        ddosim, tree = traced_run
        recruits = [n for n in nodes_of(tree) if n["kind"] == "cnc.recruit"]
        assert len(recruits) == 2
        starts = [root["t_start"] for root in tree]
        assert starts == sorted(starts)
        chains = [root for root in tree if root["kind"] == "exploit"]
        assert len(chains) == 2
        for root in chains:
            outcome = root["children"][0]
            assert outcome["kind"] == "exploit.outcome"
            assert outcome["children"][0]["kind"] == "cnc.recruit"

    def test_attack_trains_parent_under_command(self, traced_run):
        ddosim, tree = traced_run
        command = next(root for root in tree if root["kind"] == "cnc.command")
        trains = [c for c in command["children"] if c["kind"] == "attack.train"]
        assert len(trains) == 2
        assert all(t["status"] == "ok" for t in trains)
        assert all(t["packets_delivered"] > 0 for t in trains)
        assert all(t["bytes_delivered"] > 0 for t in trains)
        # Every delivered packet was sent: sent - delivered is the loss.
        assert all(t["packets_sent"] >= t["packets_delivered"] for t in trains)
        sink = ddosim.tserver.sink
        assert sum(t["packets_delivered"] for t in trains) == sink.total_packets


class TestOpenNodes:
    def test_a_flood_still_running_at_the_end_leaves_its_train_open(self):
        # Churn held three bots' links down when the order went out (t=47):
        # they got it at t=61-94, so their floods outlast the run and
        # their trains have an attack.start but no attack.stop.
        ddosim = traced(SimulationConfig(
            n_devs=30, seed=2, churn="dynamic", flood_flow="auto",
            flood_train=8))
        trains = [n for n in nodes_of(tree_of(ddosim))
                  if n["kind"] == "attack.train"]
        still_open = [t for t in trains if t["status"] == "open"]
        assert len(trains) == 30
        assert len(still_open) == 3
        assert all(t["t_end"] is None and "packets_sent" not in t
                   for t in still_open)
        assert all(t["packets_delivered"] > 0 for t in still_open)


class TestLoaderPath:
    def test_loader_infection_parents_the_recruit(self):
        ddosim = traced(SimulationConfig(
            n_devs=10, seed=1, recruitment_vector="credentials",
            attack_duration=10.0, sim_duration=160.0))
        tree = tree_of(ddosim)
        attempts = [root for root in tree if root["kind"] == "loader.attempt"]
        assert len(attempts) == 10
        infected = [a for a in attempts if a["status"] == "infected"]
        recruited = ddosim.attacker.cnc.seen_addresses
        assert infected and len(infected) == len(recruited)
        for attempt in infected:
            assert attempt["attempts"] >= 1
            assert [c["kind"] for c in attempt["children"]] == ["cnc.recruit"]
        assert all(a["status"] == "failed" and not a["children"]
                   for a in attempts if a not in infected)


class TestDeterminism:
    def test_tree_byte_identical_across_runs_and_jobs(self):
        config = spans_config()
        serial = canonical_tree_run(config)
        again = canonical_tree_run(config)
        assert serial == again
        parallel = run_map(canonical_tree_run, [config, config], jobs=2)
        assert parallel == [serial, serial]

    def test_different_seed_differs(self):
        base = canonical_tree_run(spans_config())
        other = canonical_tree_run(spans_config(seed=2))
        assert base != other
