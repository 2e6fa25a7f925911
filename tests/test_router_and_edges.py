"""Edge-case tests across netsim: router behaviour, sink bin widths,
ephemeral exhaustion resilience, misc error paths."""

import pytest

from repro.netsim.headers import PROTO_UDP, UdpHeader
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.sink import PacketSink


class TestRouterBehaviour:
    def test_router_drops_traffic_to_unknown_destination(self, sim, two_hosts):
        node_a, _node_b, star = two_hosts
        from repro.netsim.address import Ipv6Address

        packet = Packet(payload_size=10)
        packet.add_header(UdpHeader(1, 2))
        node_a.ip.send(packet, Ipv6Address.parse("2001:db8:dead::1"), PROTO_UDP)
        before = star.router.ip.dropped_no_route
        sim.run()
        assert star.router.ip.dropped_no_route >= before

    def test_router_never_reflects_to_ingress(self, sim, star):
        """A packet addressed to its own sender's address must not loop."""
        node = Node(sim, "self-talker")
        link = star.attach_host(node, 1e6)
        inbox = []
        node.udp.bind(9, lambda p, u, i: inbox.append(p))
        # Loopback happens at the host, never transits the router.
        node.udp.send_datagram(b"me", link.ipv6, 9, src_port=1)
        sim.run()
        assert len(inbox) == 1
        assert star.router.ip.forwarded == 0

    def test_many_hosts_star_scales(self, sim, star):
        receiver = Node(sim, "receiver")
        star.attach_host(receiver, 50e6)
        sink = PacketSink(receiver)
        sink.start()
        for index in range(40):
            sender = Node(sim, f"s{index}")
            star.attach_host(sender, 1e6)
            sender.udp.send_datagram(
                None, star.address_of(receiver), 7, src_port=1, payload_size=100
            )
        sim.run()
        assert sink.total_packets == 40
        assert sink.distinct_sources() == 40


class TestSinkBinWidths:
    def test_custom_bin_width(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b, bin_width=0.5)
        sink.start()
        for delay in (0.1, 0.4, 0.7):
            sim.schedule(delay, node_a.udp.send_datagram,
                         None, star.address_of(node_b), 7, 9, 100)
        sim.run()
        assert sink.bytes_per_bin[0] == 2 * 148
        assert sink.bytes_per_bin[1] == 148
        series = sink.rate_series_kbps(0.0, 1.0)
        assert len(series) == 2


class TestUdpEdgeCases:
    def test_many_ephemeral_allocations_stay_unique(self, sim, two_hosts):
        node_a, _b, _star = two_hosts
        seen = set()
        for _ in range(1000):
            port = node_a.udp.allocate_ephemeral_port()
            seen.add(port)
        assert len(seen) == 1000

    def test_rebinding_after_unbind_in_loop(self, sim, two_hosts):
        node_a, _b, _star = two_hosts
        for _ in range(50):
            port = node_a.udp.bind(7000, lambda p, u, i: None)
            node_a.udp.unbind(port)

    def test_handler_exception_does_not_break_stack(self, sim, two_hosts):
        """A crashing handler only affects that datagram's event."""
        node_a, node_b, star = two_hosts

        def bad_handler(packet, udp_header, ip_header):
            raise RuntimeError("handler bug")

        node_b.udp.bind(9, bad_handler)
        node_a.udp.send_datagram(b"x", star.address_of(node_b), 9, src_port=1)
        with pytest.raises(RuntimeError):
            sim.run()
        # The stack still works for later traffic.
        inbox = []
        node_b.udp.bind(10, lambda p, u, i: inbox.append(p))
        node_a.udp.send_datagram(b"y", star.address_of(node_b), 10, src_port=1)
        sim.run()
        assert len(inbox) == 1


class TestContainerEdgeCases:
    def test_container_log_timestamps(self, sim):
        from repro.container.image import Image
        from repro.container.runtime import ContainerRuntime

        runtime = ContainerRuntime(sim)
        runtime.add_image(Image("img"))
        container = runtime.create("img")
        container.log("first")
        sim.schedule(5.0, container.log, "later")
        sim.run()
        assert "0.000" in container.logs[0]
        assert "5.000" in container.logs[1]

    def test_image_reference_defaults_latest(self, sim):
        from repro.container.image import Image
        from repro.container.runtime import ContainerRuntime

        runtime = ContainerRuntime(sim)
        runtime.add_image(Image("named", tag="v2"))
        assert runtime.get_image("named:v2").tag == "v2"
        with pytest.raises(Exception):
            runtime.get_image("named")  # defaults to :latest, absent
