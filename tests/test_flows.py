"""Fluid-flow datapath (repro.netsim.flows): analytic flood traffic.

The contract: a steady flood represented as a FluidFlow must account
bytes, packets and drops *exactly in expectation* against the
packet path, re-solving only at rate-change epochs — while ``--flow
off`` keeps the packet datapath bit-identical to the seed.
"""

import json

import pytest

from repro.core import DDoSim, SimulationConfig
from repro.netsim.flows import (
    FLOW_MODES,
    FlowEngine,
    FlowPathError,
    resolve_path,
)
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.sink import PacketSink
from repro.netsim.topology import StarInternet
from repro.serialization import result_to_json

WIRE = 560  # 512 B payload + UDP 8 + IPv6 40


def _star(uplink_bps=1e6, downlink_bps=None, queue_packets=None):
    """sender -> router -> receiver star with a PacketSink listening."""
    sim = Simulator()
    star = StarInternet(sim)
    sender = Node(sim, "sender")
    receiver = Node(sim, "receiver")
    star.attach_host(sender, uplink_bps, delay=0.001)
    star.attach_host(receiver, 100e6, delay=0.001,
                     downlink_rate_bps=downlink_bps,
                     queue_packets=queue_packets)
    sink = PacketSink(receiver)
    sink.start()
    return sim, star, sender, receiver, sink


class TestResolvePath:
    def test_walks_host_router_host(self):
        sim, star, sender, receiver, _sink = _star()
        hops, final = resolve_path(sender, star.address_of(receiver))
        assert final is receiver
        assert len(hops) == 2
        assert hops[0] is star.links[sender].host_device
        assert hops[1] is star.links[receiver].router_device

    def test_no_route_raises(self):
        sim = Simulator()
        lonely = Node(sim, "lonely")
        other = Node(sim, "other")
        sim2, star, _s, receiver, _sink = _star()
        with pytest.raises(FlowPathError):
            resolve_path(lonely, star.address_of(receiver))

    def test_engine_rejects_off_mode(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FlowEngine(sim, mode="off")
        assert FLOW_MODES == ("off", "auto", "all")


class TestFluidSolver:
    def test_uncongested_flow_delivers_offered_bytes(self):
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        offered = 1e6 * 10.0 / 8.0
        assert flow.offered_bytes == pytest.approx(offered)
        # Everything fits: delivered equals offered minus sub-byte
        # quantization remainder.
        assert sink.total_bytes == pytest.approx(offered, abs=2.0)
        assert sink.total_packets == pytest.approx(offered / WIRE, abs=1.0)
        assert star.total_queue_drops() == 0
        # Three epochs: flow start, flow stop — plus none in between.
        assert engine.epochs <= 4

    def test_bottleneck_drops_excess_analytically(self):
        sim, star, sender, receiver, sink = _star(
            uplink_bps=1e6, downlink_bps=500e3, queue_packets=10,
        )
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        # The 500 kbps bottleneck passes half; one queue of backlog
        # (10 x 560 B) survives as the fill transient.
        cap_bytes = 500e3 * 10.0 / 8.0
        assert sink.total_bytes == pytest.approx(cap_bytes, rel=0.02)
        dropped = star.total_queue_drops()
        expected_dropped = (flow.offered_bytes - cap_bytes - 10 * WIRE) / WIRE
        assert dropped == pytest.approx(expected_dropped, rel=0.02)
        assert flow.dropped_bytes == pytest.approx(dropped * WIRE, rel=0.02)

    def test_link_down_epoch_stops_delivery(self):
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        link = star.links[sender]
        sim.schedule(5.0, link.host_device.set_down)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        # Only the first 5 s of the flow arrives; the rest is counted
        # against the downed device exactly like packet-mode drops_down.
        half = 1e6 * 5.0 / 8.0
        assert sink.total_bytes == pytest.approx(half, abs=2.0)
        assert link.host_device.drops_down == pytest.approx(half / WIRE, abs=1.0)
        # The down transition re-linearized the solver.
        assert engine.epochs >= 3

    def test_far_end_down_blackholes_the_hop(self):
        """A partition downs only the router-side device of the sender's
        link: the sender still transmits, and what arrives at the router
        is dropped there, as NetDevice.receive counts it."""
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        link = star.links[sender]
        sim.schedule(5.0, link.set_router_admin_up, False)
        sim.schedule(8.0, link.set_router_admin_up, True)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        second = 1e6 / 8.0
        assert sink.total_bytes == pytest.approx(7 * second, abs=2.0)
        assert link.router_device.drops_down == pytest.approx(
            3 * second / WIRE, abs=1.0)
        assert link.host_device.drops_down == 0
        assert link.host_device.tx_packets == pytest.approx(
            10 * second / WIRE, abs=1.0)
        assert flow.dropped_bytes == pytest.approx(3 * second, abs=2.0)

    def test_rate_degrade_epoch_thins_delivery(self):
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        device = star.links[sender].host_device
        sim.schedule(5.0, device.override_data_rate, 250e3)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        # 5 s at the full 1 Mbps, then 5 s clamped to 250 kbps (the
        # degraded link's analytic pass fraction), plus <= one queue of
        # backlog drained as the residual flush.
        expected = (1e6 * 5.0 + 250e3 * 5.0) / 8.0
        backlog_allowance = 100 * WIRE
        assert expected <= sink.total_bytes <= expected + backlog_allowance

    def test_two_flows_share_bottleneck_proportionally(self):
        sim = Simulator()
        star = StarInternet(sim)
        fast = Node(sim, "fast")
        slow = Node(sim, "slow")
        receiver = Node(sim, "receiver")
        star.attach_host(fast, 2e6, delay=0.001)
        star.attach_host(slow, 1e6, delay=0.001)
        star.attach_host(receiver, 100e6, delay=0.001,
                         downlink_rate_bps=1.5e6, queue_packets=10)
        sink = PacketSink(receiver)
        sink.start()
        engine = FlowEngine(sim, mode="all")
        destination = star.address_of(receiver)
        flow_a = engine.start_flow(fast, destination, 7777, 9,
                                   rate_bps=2e6, payload_size=512,
                                   packet_size=WIRE)
        flow_b = engine.start_flow(slow, destination, 7777, 10,
                                   rate_bps=1e6, payload_size=512,
                                   packet_size=WIRE)
        sim.schedule(10.0, engine.stop_flow, flow_a)
        sim.schedule(10.0, engine.stop_flow, flow_b)
        sim.run(until=12.0)
        # 3 Mbps offered into a 1.5 Mbps bottleneck: half passes, and
        # the per-flow split follows the 2:1 demand ratio.
        assert sink.total_bytes == pytest.approx(1.5e6 * 10 / 8, rel=0.02)
        assert flow_a.delivered_bytes == pytest.approx(
            2 * flow_b.delivered_bytes, rel=0.05
        )
        sources = sink.per_source
        assert len(sources) == 2

    def test_sink_quantization_never_drifts(self):
        """Integer bin credits + persistent remainders: the histogram sum
        equals the sink's byte total exactly, whatever the segmentation."""
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=123_457.0, payload_size=512,
                                 packet_size=WIRE)
        # Force many tiny awkward segments.
        for step in range(1, 40):
            sim.schedule(step * 0.137, engine.on_link_change)
        sim.schedule(7.0, engine.stop_flow, flow)
        sim.run(until=9.0)
        assert sum(sink.bytes_per_bin.values()) == sink.total_bytes
        assert sink.total_bytes == pytest.approx(flow.offered_bytes, abs=2.0)
        assert all(isinstance(v, int) for v in sink.bytes_per_bin.values())


class TestEngineScale:
    def test_epoch_cost_is_independent_of_active_flows(self, monkeypatch):
        """Each epoch integrates and credits only its path's groups: the
        work for 200 flows started one by one, then stopped, stays within
        4 per epoch (re-integrating every active flow would be ~40,000)."""
        calls = [0]

        def counted(method):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(FlowEngine, "_integrate_group",
                            counted(FlowEngine._integrate_group))
        monkeypatch.setattr(PacketSink, "account_fluid",
                            counted(PacketSink.account_fluid))
        sim = Simulator()
        star = StarInternet(sim)
        receiver = Node(sim, "receiver")
        senders = [Node(sim, f"bot{index}") for index in range(200)]
        for node in senders:
            star.attach_host(node, 200e3, delay=0.02)
        star.attach_host(receiver, 100e6, delay=0.005,
                         downlink_rate_bps=20e6, queue_packets=100)
        sink = PacketSink(receiver)
        sink.start()
        engine = FlowEngine(sim, mode="all")
        destination = star.address_of(receiver)

        def run(index):
            flow = engine.start_flow(senders[index], destination, 7777, 9,
                                     rate_bps=200e3, payload_size=512,
                                     packet_size=WIRE)
            sim.schedule(40.0, engine.stop_flow, flow)

        for index in range(200):
            sim.schedule_at(0.1 * index, run, index)
        sim.run(until=70.0)
        engine.flush()
        assert engine.epochs == 400
        assert calls[0] <= 4 * engine.epochs
        # 40 Mbps offered into a 20 Mbps downlink while all 200 overlap.
        assert star.total_queue_drops() > 0
        assert sum(sink.bytes_per_bin.values()) == sink.total_bytes

    @pytest.mark.parametrize("churn, packet_kbps", [
        # the packet tier's avg_received_kbps, perfbench/refs.json, seed 1
        ("none", 29756.0256),
        ("dynamic", 28402.3488),
    ])
    def test_saturated_fleet_matches_packet_tier(self, churn, packet_kbps):
        config = SimulationConfig(n_devs=100, seed=1, flood_flow="all",
                                  churn=churn)
        result = DDoSim(config).run()
        assert result.recruitment.bots_at_attack == 100
        assert result.attack.avg_received_kbps == pytest.approx(
            packet_kbps, rel=0.001
        )


class TestStalledSink:
    def test_bytes_reaching_a_stopped_sink_count_as_dropped(self):
        """During a sink stall the fluid flows' bytes are dropped as
        unreachable at TServer, as the packet path counts them, instead
        of vanishing from the flows' accounting."""
        from repro.faults import FaultPlan

        config = SimulationConfig(
            n_devs=4, seed=6, flood_flow="all", attack_duration=20.0,
            faults=FaultPlan.from_dict({"faults": [
                {"kind": "sink_stall", "at": 60.0, "duration": 10.0},
            ]}),
        )
        ddosim = DDoSim(config)
        ddosim.run()
        engine = ddosim.flow_engine
        flows = engine.finished
        assert flows and not engine.flows
        for flow in flows:
            gap = flow.offered_bytes - flow.delivered_bytes - flow.dropped_bytes
            assert abs(gap) <= 1.0
        unreachable = ddosim.tserver.node.udp.rx_unreachable
        dropped = sum(flow.dropped_bytes for flow in flows)
        # No queue drops on this uncongested run: every dropped byte hit
        # the stopped sink, and whole packets are counted there.
        assert ddosim.star.total_queue_drops() == 0
        assert unreachable > 0
        assert unreachable == pytest.approx(dropped / WIRE, abs=1.0)


class TestPartitionedDevs:
    """Every Dev's link partitioned at the router for 8 s of a 20 s
    attack: the fluid tiers must blackhole the floods as the packet tier
    does, within the 1% flow-equivalence budget."""

    @staticmethod
    def _kbps(flow_mode):
        from repro.faults import FaultPlan

        config = SimulationConfig(
            n_devs=4, seed=6, flood_flow=flow_mode, attack_duration=20.0,
            faults=FaultPlan.from_dict({"faults": [
                {"kind": "partition", "target": "dev*", "at": 62.0,
                 "duration": 8.0},
            ]}),
        )
        return DDoSim(config).run().attack.avg_received_kbps

    @pytest.fixture(scope="class")
    def packet_kbps(self):
        return self._kbps("off")

    @pytest.mark.parametrize("mode", ["all", "auto"])
    def test_fluid_tiers_match_packet_tier(self, packet_kbps, mode):
        assert packet_kbps == pytest.approx(842.016)
        assert self._kbps(mode) == pytest.approx(packet_kbps, rel=0.01)


class TestCrossoverModes:
    def _run(self, flow_mode):
        config = SimulationConfig(
            n_devs=3, seed=1, attack_duration=20.0, recruit_timeout=30.0,
            sim_duration=150.0, flood_flow=flow_mode,
        )
        ddosim = DDoSim(config)
        result = ddosim.run()
        return ddosim, result

    @pytest.fixture(scope="class")
    def packet_run(self):
        return self._run("off")

    def test_off_mode_is_byte_identical_to_default(self, packet_run):
        _ddosim, result = packet_run
        config = SimulationConfig(
            n_devs=3, seed=1, attack_duration=20.0, recruit_timeout=30.0,
            sim_duration=150.0,
        )
        baseline = DDoSim(config)
        assert result_to_json(baseline.run()) == result_to_json(result)

    @pytest.mark.parametrize("mode", ["all", "auto"])
    def test_flow_mode_matches_packet_mode_in_expectation(self, packet_run,
                                                          mode):
        _p_sim, p_result = packet_run
        f_sim, f_result = self._run(mode)
        assert f_result.attack.received_bytes == pytest.approx(
            p_result.attack.received_bytes, rel=0.02
        )
        assert f_result.attack.offered_bytes == pytest.approx(
            p_result.attack.offered_bytes, rel=0.02
        )
        # NetFlow records: same sources, comparable volumes.
        p_flows = _p_sim.tserver.sink.flow_records()
        f_flows = f_sim.tserver.sink.flow_records()
        assert [f["src"] for f in f_flows] == [f["src"] for f in p_flows]

    def test_all_mode_slashes_event_count(self, packet_run):
        _p_sim, p_result = packet_run
        f_sim, f_result = self._run("all")
        assert f_result.events_executed * 5 <= p_result.events_executed
        assert f_sim.flow_engine is not None
        assert f_sim.flow_engine.finished  # flows opened and closed

    def test_auto_mode_keeps_real_packets_at_sink(self):
        f_sim, _f_result = self._run("auto")
        sink = f_sim.tserver.sink
        # Crossover injection delivers genuine trains: the sink's fluid
        # quantization state stays untouched in auto mode.
        assert sink.total_packets > 0
        assert not sink._fluid

    def test_all_mode_double_run_is_deterministic(self):
        _a_sim, a_result = self._run("all")
        _b_sim, b_result = self._run("all")
        assert result_to_json(a_result) == result_to_json(b_result)

    def test_flow_mode_span_attribution_survives(self):
        """The fluid flood's trains in the causal tree read their
        delivered totals from the sink's analytically credited flows."""
        from repro.obs import Observatory, causal_tree

        config = SimulationConfig(
            n_devs=2, seed=1, attack_duration=10.0, recruit_timeout=30.0,
            sim_duration=120.0, protection_profiles=((),),
            flood_flow="all",
        )
        ddosim = DDoSim(config, observatory=Observatory.full())
        ddosim.run()
        sink = ddosim.tserver.sink
        command = next(
            root for root in causal_tree(ddosim.obs.tracer, sink.flow_records())
            if root["kind"] == "cnc.command"
        )
        trains = command["children"]
        assert [train["kind"] for train in trains] == ["attack.train"] * 2
        delivered = sum(train["packets_delivered"] for train in trains)
        assert delivered == sink.total_packets > 0

    def test_flow_knob_changes_cache_key(self):
        from repro.serialization import config_to_canonical_json

        base = SimulationConfig(n_devs=3, seed=1)
        fluid = SimulationConfig(n_devs=3, seed=1, flood_flow="all")
        assert config_to_canonical_json(base) != config_to_canonical_json(fluid)
        assert json.loads(config_to_canonical_json(fluid))["flood_flow"] == "all"

    def test_invalid_flow_mode_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_devs=1, flood_flow="fluid")
