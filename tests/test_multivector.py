"""Tests for the extra Mirai attack vectors (SYN/ACK floods end to end)."""

import pytest

from repro.netsim.node import Node
from tests.helpers import MiniNet
from tests.test_botnet import make_bot_host, make_cnc_host


@pytest.fixture
def botnet_with_target():
    mininet = MiniNet()
    cnc, cnc_node = make_cnc_host(mininet)
    target = Node(mininet.sim, "target")
    mininet.star.attach_host(target, 5e6)
    make_bot_host(mininet, cnc_node, name="bot0")
    mininet.sim.run(until=20.0)
    assert cnc.bot_count() == 1
    return mininet, cnc, target


class TestSynAckVectors:
    def test_syn_flood_order(self, botnet_with_target):
        mininet, cnc, target = botnet_with_target
        order = cnc.issue_attack(
            str(mininet.star.address_of(target)), 80, duration=5.0, method="syn"
        )
        assert order.method == "syn"
        mininet.sim.run(until=40.0)
        # No listener on 80: the victim answered SYNs with RSTs.
        assert target.tcp.rst_sent > 10

    def test_ack_flood_order(self, botnet_with_target):
        mininet, cnc, target = botnet_with_target
        cnc.issue_attack(
            str(mininet.star.address_of(target)), 80, duration=5.0, method="ack"
        )
        mininet.sim.run(until=40.0)
        assert target.tcp.rst_sent > 10

    def test_unknown_vector_ignored(self, botnet_with_target):
        mininet, cnc, target = botnet_with_target
        cnc.issue_attack(
            str(mininet.star.address_of(target)), 80, duration=5.0, method="teardrop"
        )
        mininet.sim.run(until=30.0)
        assert target.tcp.rst_sent == 0

    def test_console_syn_command(self, botnet_with_target):
        mininet, cnc, target = botnet_with_target
        reply = cnc.console_handler(
            f"syn {mininet.star.address_of(target)} 80 5"
        )
        assert "attack sent to 1 bots" in reply
