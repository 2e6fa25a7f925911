"""Unit tests for the star-Internet topology builder."""

import pytest

from repro.netsim.node import Node
from repro.netsim.sink import PacketSink


class TestAttachment:
    def test_each_host_gets_unique_addresses(self, sim, star):
        links = [star.attach_host(Node(sim, f"h{i}"), 1e6) for i in range(5)]
        v6 = {link.ipv6 for link in links}
        v4 = {link.ipv4 for link in links}
        assert len(v6) == 5
        assert len(v4) == 5

    def test_double_attach_rejected(self, sim, star):
        node = Node(sim, "h")
        star.attach_host(node, 1e6)
        with pytest.raises(ValueError):
            star.attach_host(node, 1e6)

    def test_router_has_route_per_host(self, sim, star):
        node = Node(sim, "h")
        link = star.attach_host(node, 1e6)
        assert star.router.ip.routes[link.ipv6] is link.router_device
        assert star.router.ip.routes[link.ipv4] is link.router_device

    def test_asymmetric_downlink(self, sim, star):
        node = Node(sim, "h")
        link = star.attach_host(node, 1e6, downlink_rate_bps=5e5)
        assert link.host_device.data_rate_bps == 1e6
        assert link.router_device.data_rate_bps == 5e5

    def test_address_of_lookup(self, sim, star):
        node = Node(sim, "h")
        link = star.attach_host(node, 1e6)
        assert star.address_of(node) == link.ipv6
        assert star.address_of(node, want_ipv6=False) == link.ipv4


class TestLinkStateControl:
    def test_set_host_up_toggles_both_directions(self, sim, star):
        node = Node(sim, "h")
        link = star.attach_host(node, 1e6)
        star.set_host_up(node, False)
        assert not link.host_device.up
        assert not link.router_device.up
        assert not link.up
        star.set_host_up(node, True)
        assert link.up

    def test_offline_host_receives_nothing(self, sim, star):
        sender = Node(sim, "s")
        receiver = Node(sim, "r")
        star.attach_host(sender, 1e6)
        star.attach_host(receiver, 1e6)
        sink = PacketSink(receiver)
        sink.start()
        star.set_host_up(receiver, False)
        sender.udp.send_datagram(
            None, star.address_of(receiver), 7, src_port=1, payload_size=10
        )
        sim.run()
        assert sink.total_packets == 0

    def test_host_participates_again_after_rejoin(self, sim, star):
        sender = Node(sim, "s")
        receiver = Node(sim, "r")
        star.attach_host(sender, 1e6)
        star.attach_host(receiver, 1e6)
        sink = PacketSink(receiver)
        sink.start()
        star.set_host_up(receiver, False)
        sim.schedule(1.0, star.set_host_up, receiver, True)
        sim.schedule(
            2.0,
            sender.udp.send_datagram,
            None, star.address_of(receiver), 7, 1, 10,
        )
        sim.run()
        assert sink.total_packets == 1


class TestCongestionAccounting:
    def test_queue_drops_aggregated(self, sim, star):
        fast = Node(sim, "fast")
        slow = Node(sim, "slow")
        star.attach_host(fast, 1e8, queue_packets=10)
        star.attach_host(slow, 1e4, queue_packets=10)  # 10 kbps bottleneck
        PacketSink(slow).start()
        for _ in range(100):
            fast.udp.send_datagram(
                None, star.address_of(slow), 7, src_port=1, payload_size=1000
            )
        sim.run(until=5.0)
        assert star.total_queue_drops() > 0
