"""Unit tests for the UDP transport."""

import pytest


def inbox_handler(inbox):
    return lambda packet, udp_header, ip_header: inbox.append(
        (packet, udp_header, ip_header)
    )


class TestBinding:
    def test_bind_and_receive(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        inbox = []
        node_b.udp.bind(5000, inbox_handler(inbox))
        node_a.udp.send_datagram(b"ping", star.address_of(node_b), 5000, src_port=1)
        sim.run()
        assert len(inbox) == 1
        assert inbox[0][0].payload == b"ping"

    def test_double_bind_rejected(self, sim, two_hosts):
        node_a, _, _ = two_hosts
        node_a.udp.bind(53, inbox_handler([]))
        with pytest.raises(OSError):
            node_a.udp.bind(53, inbox_handler([]))

    def test_bind_zero_allocates_ephemeral(self, sim, two_hosts):
        node_a, _, _ = two_hosts
        port = node_a.udp.bind(0, inbox_handler([]))
        assert port >= 49152

    def test_unbind_frees_port(self, sim, two_hosts):
        node_a, _, _ = two_hosts
        node_a.udp.bind(53, inbox_handler([]))
        node_a.udp.unbind(53)
        node_a.udp.bind(53, inbox_handler([]))  # no error

    def test_ephemeral_ports_unique(self, sim, two_hosts):
        node_a, _, _ = two_hosts
        ports = {node_a.udp.allocate_ephemeral_port() for _ in range(50)}
        assert len(ports) == 50


class TestDispatch:
    def test_unbound_port_counts_unreachable(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        node_a.udp.send_datagram(b"x", star.address_of(node_b), 9999, src_port=1)
        sim.run()
        assert node_b.udp.rx_unreachable == 1

    def test_unbound_port_counts_every_train_member(self, sim, two_hosts):
        # A --train K flood into a stopped sink is K datagrams unreachable.
        node_a, node_b, star = two_hosts
        node_a.udp.send_train(star.address_of(node_b), 9999, count=8,
                              src_port=1, payload_size=64)
        sim.run()
        assert node_b.udp.rx_datagrams == 8
        assert node_b.udp.rx_unreachable == 8

    def test_default_handler_catches_everything(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        inbox = []
        node_b.udp.set_default_handler(inbox_handler(inbox))
        for port in (1, 5353, 60000):
            node_a.udp.send_datagram(b"y", star.address_of(node_b), port, src_port=1)
        sim.run()
        assert len(inbox) == 3

    def test_bound_port_wins_over_default(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        bound, default = [], []
        node_b.udp.bind(53, inbox_handler(bound))
        node_b.udp.set_default_handler(inbox_handler(default))
        node_a.udp.send_datagram(b"z", star.address_of(node_b), 53, src_port=1)
        sim.run()
        assert len(bound) == 1
        assert default == []

    def test_source_port_visible_to_receiver(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        inbox = []
        node_b.udp.bind(53, inbox_handler(inbox))
        node_a.udp.send_datagram(b"q", star.address_of(node_b), 53, src_port=777)
        sim.run()
        assert inbox[0][1].src_port == 777

    def test_virtual_payload_datagram(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        inbox = []
        node_b.udp.bind(7, inbox_handler(inbox))
        node_a.udp.send_datagram(
            None, star.address_of(node_b), 7, src_port=1, payload_size=512
        )
        sim.run()
        assert inbox[0][0].payload is None
        assert inbox[0][0].payload_size == 512
