"""Attack orders for vectors this bot build does not carry.

Mirai ships about ten attack vectors; the bot here floods only
udpplain, the one the paper measures.  Any other order is logged and
ignored, and the C&C console offers no command for it.
"""

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
    bot, _node, _process = make_bot_host(mininet, cnc_node, name="bot0")
    mininet.sim.run(until=20.0)
    assert cnc.bot_count() == 1
    return mininet, cnc, target, bot


class TestSynAckVectors:
    def test_unknown_vector_ignored(self, botnet_with_target):
        mininet, cnc, target, bot = botnet_with_target
        address = str(mininet.star.address_of(target))
        methods = ("syn", "ack", "teardrop")
        for method in methods:
            cnc.issue_attack(address, 80, duration=5.0, method=method)
        mininet.sim.run(until=30.0)
        assert bot.attack_stats == []
        assert target.ip.delivered == 0
        assert target.tcp.rst_sent == 0
        unsupported = [line for line in bot.logs if "unsupported attack" in line]
        assert [line.rsplit(" ", 1)[1] for line in unsupported] == [
            f"{method!r}" for method in methods
        ]
        assert (cnc.console_handler(f"syn {address} 80 5")
                == "unknown command: syn")
