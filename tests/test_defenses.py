"""Tests for the deployable defenses (policer, classifier firewall)."""

import numpy as np
import pytest

from repro.analysis.defenses import ClassifierFirewall, PerSourcePolicer
from repro.core import DDoSim, SimulationConfig
from repro.faults import FaultPlan, FaultSpec
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.sink import PacketSink
from repro.netsim.topology import StarInternet

#: parametrizes a test over both defenses, built on a given node
each_defense = pytest.mark.parametrize("make", [
    lambda node: PerSourcePolicer(node),
    lambda node: ClassifierFirewall(node, classifier=None),
], ids=["policer", "firewall"])


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

    def _send_train(self, sim, star, sender, victim, at=0.0):
        sim.schedule(
            at, sender.udp.send_train, star.address_of(victim), 7,
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

    def test_firewall_counts_every_dropped_member(self, sim, star):
        sender, victim, sink = self._victim(sim, star)

        class AlwaysAttack:
            def predict(self, X):
                return np.array([1])

        firewall = ClassifierFirewall(victim, AlwaysAttack(), window=1.0)
        firewall.install()
        self._send_train(sim, star, sender, victim, at=0.0)  # window 1 passes
        self._send_train(sim, star, sender, victim, at=1.5)  # blocked
        sim.run(until=3.0)
        assert sink.total_packets == self.MEMBERS
        assert firewall.packets_dropped == self.MEMBERS

    def test_firewall_features_a_train_as_its_members(self):
        """The classifier was trained on one row per packet, so a train
        must featurize like the same packets sent one by one."""

        class Recording:
            def __init__(self):
                self.features = []

            def predict(self, X):
                self.features.append(X[0].tolist())
                return np.array([0])

        def window_features_of(send):
            sim = Simulator()
            star = StarInternet(sim)
            sender, victim, sink = self._victim(sim, star)
            classifier = Recording()
            ClassifierFirewall(victim, classifier, window=1.0).install()
            send(sim, star, sender, victim)
            sim.run(until=1.5)
            assert sink.total_packets == self.MEMBERS
            return classifier.features

        def one_train(sim, star, sender, victim):
            self._send_train(sim, star, sender, victim)

        def single_datagrams(sim, star, sender, victim):
            for index in range(self.MEMBERS):
                sim.schedule(
                    index * 0.01, sender.udp.send_datagram,
                    None, star.address_of(victim), 7, 9, self.PAYLOAD,
                )

        train = window_features_of(one_train)
        assert train == window_features_of(single_datagrams)
        assert train[0][0] == self.MEMBERS  # packet_rate over a 1 s window


class TestFluidFloodIsRefused:
    """Under ``flood_flow="all"`` the sink is credited analytically and
    the flood never reaches a defense on the UDP handler."""

    @each_defense
    def test_install_raises(self, make):
        ddosim = DDoSim(SimulationConfig(n_devs=2, seed=1, flood_flow="all"))
        defense = make(ddosim.tserver.node)
        with pytest.raises(ValueError, match="flood_flow"):
            defense.install()

    def test_hybrid_flood_still_installs(self):
        ddosim = DDoSim(SimulationConfig(n_devs=2, seed=1, flood_flow="auto"))
        ddosim.tserver.start()
        PerSourcePolicer(ddosim.tserver.node).install()


class TestSinkHandlerChain:
    """A defense wraps the sink's UDP handler; the chain must survive a
    sink stall, and there must be a handler to wrap at all."""

    @each_defense
    def test_install_before_the_sink_starts_raises(self, make):
        ddosim = DDoSim(SimulationConfig(n_devs=2, seed=1)).build()
        defense = make(ddosim.tserver.node)
        with pytest.raises(ValueError, match="no UDP default handler"):
            defense.install()

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


class TestClassifierFirewall:
    def test_blocks_after_detected_window(self, sim, star):
        sender = Node(sim, "sender")
        victim = Node(sim, "victim")
        star.attach_host(sender, 10e6)
        star.attach_host(victim, 10e6)
        sink = PacketSink(victim)
        sink.start()

        class AlwaysAttack:
            def predict(self, X):
                return np.array([1])

        firewall = ClassifierFirewall(victim, AlwaysAttack(), window=1.0)
        firewall.install()
        for index in range(40):
            sim.schedule(
                index * 0.1,
                sender.udp.send_datagram,
                None, star.address_of(victim), 7, 9, 500,
            )
        sim.run(until=5.0)
        # First window passes (no verdict yet), later windows are blocked.
        assert firewall.windows_blocked >= 2
        assert firewall.packets_dropped > 0
        assert sink.total_packets < 40

    def test_benign_verdict_keeps_traffic_flowing(self, sim, star):
        sender = Node(sim, "sender")
        victim = Node(sim, "victim")
        star.attach_host(sender, 10e6)
        star.attach_host(victim, 10e6)
        sink = PacketSink(victim)
        sink.start()

        class AlwaysBenign:
            def predict(self, X):
                return np.array([0])

        firewall = ClassifierFirewall(victim, AlwaysBenign(), window=1.0)
        firewall.install()
        for index in range(20):
            sim.schedule(
                index * 0.2,
                sender.udp.send_datagram,
                None, star.address_of(victim), 7, 9, 500,
            )
        sim.run(until=6.0)
        assert sink.total_packets == 20
        assert firewall.packets_dropped == 0
