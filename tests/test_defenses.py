"""Tests for the deployable defense (the per-source policer)."""

import pytest

from repro.analysis.defenses import PerSourcePolicer
from repro.core import DDoSim, SimulationConfig
from repro.faults import FaultPlan, FaultSpec
from repro.netsim.node import Node
from repro.netsim.sink import PacketSink


class TestPerSourcePolicerUnit:
    def _setup(self, sim, star, rate_bps=80_000, burst=10_000):
        sender = Node(sim, "sender")
        victim = Node(sim, "victim")
        star.attach_host(sender, 10e6)
        star.attach_host(victim, 10e6)
        sink = PacketSink(victim)
        sink.start()
        policer = PerSourcePolicer(victim, rate_bps=rate_bps, burst_bytes=burst)
        policer.install()
        return sender, victim, sink, policer

    def test_conforming_traffic_passes(self, sim, star):
        sender, victim, sink, policer = self._setup(sim, star)
        # 10 packets of 500 B over 10 s = 4 kbps << 80 kbps budget.
        for index in range(10):
            sim.schedule(
                index * 1.0,
                sender.udp.send_datagram,
                None, star.address_of(victim), 7, 9, 500,
            )
        sim.run(until=20.0)
        assert sink.total_packets == 10
        assert policer.dropped_packets == 0

    def test_flood_is_policed(self, sim, star):
        sender, victim, sink, policer = self._setup(sim, star)
        # 2 Mbps offered against an 80 kbps per-source budget.
        for index in range(500):
            sim.schedule(
                index * 0.002,
                sender.udp.send_datagram,
                None, star.address_of(victim), 7, 9, 500,
            )
        sim.run(until=5.0)
        assert policer.dropped_packets > 300
        assert policer.drop_ratio > 0.6
        assert sink.total_packets < 200

    def test_budget_is_per_source(self, sim, star):
        sender_a = Node(sim, "a")
        sender_b = Node(sim, "b")
        victim = Node(sim, "victim")
        for node in (sender_a, sender_b, victim):
            star.attach_host(node, 10e6)
        sink = PacketSink(victim)
        sink.start()
        policer = PerSourcePolicer(victim, rate_bps=80_000, burst_bytes=4_000)
        policer.install()
        # A floods; B sends one small packet and must get through.
        for index in range(200):
            sim.schedule(
                index * 0.001,
                sender_a.udp.send_datagram,
                None, star.address_of(victim), 7, 9, 500,
            )
        sim.schedule(
            0.15, sender_b.udp.send_datagram,
            None, star.address_of(victim), 7, 9, 200,
        )
        sim.run(until=2.0)
        victim_sources = {str(source) for source, _port in sink.per_source}
        assert str(star.address_of(sender_b)) in victim_sources

    def test_uninstall_restores_sink(self, sim, star):
        sender, victim, sink, policer = self._setup(sim, star, rate_bps=1_000,
                                                    burst=1_000)
        policer.uninstall()
        for _ in range(5):
            sender.udp.send_datagram(
                None, star.address_of(victim), 7, src_port=9, payload_size=900
            )
        sim.run(until=2.0)
        assert sink.total_packets == 5

    def test_invalid_parameters(self, sim, star):
        victim = Node(sim, "victim")
        star.attach_host(victim, 1e6)
        with pytest.raises(ValueError):
            PerSourcePolicer(victim, rate_bps=0)


class TestPacketTrains:
    """A train of K members is K packets: counted member by member and
    accepted or dropped whole, with the bucket charged K sizes."""

    MEMBERS = 8
    PAYLOAD = 500

    def _victim(self, sim, star):
        sender = Node(sim, "sender")
        victim = Node(sim, "victim")
        star.attach_host(sender, 10e6)
        star.attach_host(victim, 10e6)
        sink = PacketSink(victim)
        sink.start()
        return sender, victim, sink

    def _send_train(self, sim, star, sender, victim):
        sim.schedule(
            0.0, sender.udp.send_train, star.address_of(victim), 7,
            self.MEMBERS, 9, self.PAYLOAD,
        )

    def test_policer_counts_every_member(self, sim, star):
        sender, victim, sink = self._victim(sim, star)
        policer = PerSourcePolicer(victim, rate_bps=80_000, burst_bytes=32_000)
        policer.install()
        self._send_train(sim, star, sender, victim)
        sim.run(until=1.0)
        assert sink.total_packets == self.MEMBERS
        assert policer.accepted_packets == self.MEMBERS
        assert policer.accepted_bytes == sink.total_bytes

    def test_policer_charges_and_drops_the_whole_train(self, sim, star):
        sender, victim, sink = self._victim(sim, star)
        # One member fits the burst; the whole train does not.
        policer = PerSourcePolicer(victim, rate_bps=80_000, burst_bytes=1_000)
        policer.install()
        self._send_train(sim, star, sender, victim)
        sim.run(until=1.0)
        assert sink.total_packets == 0
        assert policer.dropped_packets == self.MEMBERS
        assert policer.dropped_bytes == self.MEMBERS * (
            self.PAYLOAD + 8 + 40  # UDP + IPv6 headers
        )


class TestFluidFloodIsRefused:
    """Under ``flood_flow="all"`` the sink is credited analytically and
    the flood never reaches a defense on the UDP handler."""

    def test_install_raises(self):
        ddosim = DDoSim(SimulationConfig(n_devs=2, seed=1, flood_flow="all"))
        policer = PerSourcePolicer(ddosim.tserver.node)
        with pytest.raises(ValueError, match="flood_flow"):
            policer.install()

    def test_hybrid_flood_still_installs(self):
        ddosim = DDoSim(SimulationConfig(n_devs=2, seed=1, flood_flow="auto"))
        ddosim.tserver.start()
        PerSourcePolicer(ddosim.tserver.node).install()


class TestSinkHandlerChain:
    """A defense wraps the sink's UDP handler; the chain must survive a
    sink stall, and there must be a handler to wrap at all."""

    def test_install_before_the_sink_starts_raises(self):
        ddosim = DDoSim(SimulationConfig(n_devs=2, seed=1)).build()
        policer = PerSourcePolicer(ddosim.tserver.node)
        with pytest.raises(ValueError, match="no UDP default handler"):
            policer.install()

    def test_policer_survives_a_sink_stall(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="sink_stall", at=50.0, duration=5.0),
        ))
        config = SimulationConfig(n_devs=4, seed=6, attack_duration=20.0,
                                  faults=plan)
        undefended = DDoSim(config)
        undefended.run()
        defended = DDoSim(config).build()
        # permissive: it sees and passes every datagram the sink gets
        policer = PerSourcePolicer(defended.tserver.node, rate_bps=1e12,
                                   burst_bytes=10**12)
        defended.sim.schedule(0.01, policer.install)
        defended.run()
        sink = defended.tserver.sink
        assert policer.accepted_packets == sink.total_packets > 0
        assert policer.accepted_bytes == sink.total_bytes
        assert policer.dropped_packets == 0
        assert (sink.total_packets, sink.total_bytes) == (
            undefended.tserver.sink.total_packets,
            undefended.tserver.sink.total_bytes,
        )

    def test_policer_uninstalled_during_a_sink_stall(self):
        """Uninstalling mid-stall must neither wake the stalled sink nor
        leave the policer in front of it after the restart."""
        plan = FaultPlan(faults=(
            FaultSpec(kind="sink_stall", at=50.0, duration=5.0),
        ))
        config = SimulationConfig(n_devs=4, seed=6, attack_duration=20.0,
                                  faults=plan)
        undefended = DDoSim(config)
        undefended.run()
        defended = DDoSim(config).build()
        policer = PerSourcePolicer(defended.tserver.node, rate_bps=1e12,
                                   burst_bytes=10**12)
        defended.sim.schedule(0.01, policer.install)
        defended.sim.schedule(52.0, policer.uninstall)
        defended.run()
        sink = defended.tserver.sink
        assert (sink.total_packets, sink.total_bytes) == (
            undefended.tserver.sink.total_packets,
            undefended.tserver.sink.total_bytes,
        )
        assert defended.tserver.node.udp.default_handler == sink._on_datagram


class TestPolicerAgainstRealAttack:
    def test_policer_collapses_accepted_attack_volume(self):
        """Full-stack mitigation check: same botnet, with and without."""
        config = SimulationConfig(
            n_devs=10, seed=6, attack_duration=20.0,
            recruit_timeout=40.0, sim_duration=200.0,
        )
        undefended = DDoSim(config).run()

        defended_sim = DDoSim(config)
        policer = PerSourcePolicer(
            defended_sim.tserver.node, rate_bps=32_000, burst_bytes=8_000
        )
        defended_sim.build()
        # Install after the sink starts (run() starts the sink; schedule
        # the interposition just after t=0).
        defended_sim.sim.schedule(0.01, policer.install)
        defended = defended_sim.run()

        accepted = defended_sim.tserver.sink.total_bytes
        assert undefended.attack.received_bytes > 0
        assert accepted < undefended.attack.received_bytes * 0.35
        assert policer.dropped_packets > 0
