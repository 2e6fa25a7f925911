"""Tests for the Mirai model: bot behaviours, C&C, attacks, scanner."""

import pytest

from repro.binaries.busybox import (
    make_dropbear_binary,
    make_qbot_binary,
    make_telnetd_binary,
)
from repro.botnet.attacks import AttackStats, udp_plain_flood
from repro.botnet.bot import make_mirai_binary
from repro.botnet.cnc import CncServer
from repro.netsim.node import Node
from repro.netsim.process import SimProcess
from repro.netsim.sink import PacketSink
from tests.helpers import MiniNet


def make_cnc_host(mininet, name="cnc-host"):
    cnc = CncServer()
    container, node, _ = mininet.host_container(
        name,
        rate_bps=10e6,
        files={"/usr/sbin/cnc": (b"\x7fcnc", 0o755, cnc.program())},
    )
    container.exec_run(["/usr/sbin/cnc"])
    return cnc, node


def make_bot_host(mininet, cnc_node, name="bot-host", extra_files=None,
                  rate_bps=300e3):
    mirai = make_mirai_binary()
    files = {"/tmp/.mirai": (mirai.serialize(), 0o755)}
    files.update(extra_files or {})
    container, node, link = mininet.host_container(name, rate_bps=rate_bps, files=files)
    cnc_address = mininet.star.address_of(cnc_node)
    process = container.exec_run(["/tmp/.mirai", str(cnc_address), "23"])
    return container, node, process


class TestBotBehaviour:
    def test_bot_registers_with_cnc(self):
        mininet = MiniNet()
        cnc, cnc_node = make_cnc_host(mininet)
        make_bot_host(mininet, cnc_node)
        mininet.sim.run(until=20.0)
        assert cnc.bot_count() == 1
        assert cnc.connected_bots()[0].architecture == "x86_64"

    def test_bot_obfuscates_name(self):
        mininet = MiniNet()
        _cnc, cnc_node = make_cnc_host(mininet)
        container, _node, process = make_bot_host(mininet, cnc_node)
        mininet.sim.run(until=20.0)
        assert process.name != "mirai"
        assert len(process.name) == 10

    def test_bot_deletes_own_binary(self):
        mininet = MiniNet()
        _cnc, cnc_node = make_cnc_host(mininet)
        container, _node, _process = make_bot_host(mininet, cnc_node)
        mininet.sim.run(until=20.0)
        assert not container.fs.exists("/tmp/.mirai")

    def test_bot_kills_port_binders_and_rivals(self):
        mininet = MiniNet()
        _cnc, cnc_node = make_cnc_host(mininet)
        extra = {
            "/usr/sbin/telnetd": (make_telnetd_binary().serialize(), 0o755),
            "/usr/sbin/dropbear": (make_dropbear_binary().serialize(), 0o755),
            "/usr/sbin/qbot": (make_qbot_binary().serialize(), 0o755),
        }
        container, _node, _process = make_bot_host(
            mininet, cnc_node, extra_files=extra
        )
        # Pre-start the services before the bot fortifies (the bot's exec
        # happens at t=0, so re-exec the services first via direct calls).
        mininet.sim.run(until=0.0)
        container.exec_run(["/usr/sbin/telnetd"])
        container.exec_run(["/usr/sbin/dropbear"])
        container.exec_run(["/usr/sbin/qbot"])
        # Restart a fresh bot so fortification sees the running services.
        bot = container.exec_run(["/bin/sh", "-c", "echo"])  # placeholder tick
        mininet.sim.run(until=1.0)
        mirai = make_mirai_binary()
        container.fs.write_file("/tmp/.m2", mirai.serialize(), mode=0o755)
        container.exec_run(
            ["/tmp/.m2", str(mininet.star.address_of(cnc_node)), "23"]
        )
        mininet.sim.run(until=20.0)
        assert container.find_processes("telnetd") == []
        assert container.find_processes("dropbear") == []
        assert container.find_processes("qbot") == []

    def test_bot_reconnects_after_link_flap(self):
        mininet = MiniNet()
        cnc, cnc_node = make_cnc_host(mininet)
        container, node, _process = make_bot_host(mininet, cnc_node)
        mininet.sim.run(until=20.0)
        assert cnc.bot_count() == 1
        mininet.star.set_host_up(node, False)
        mininet.sim.run(until=200.0)  # retries exhaust, C&C reaps the bot
        assert cnc.bot_count() == 0
        mininet.star.set_host_up(node, True)
        mininet.sim.run(until=400.0)
        assert cnc.bot_count() == 1
        # Distinct-recruit accounting does not double count reconnects.
        assert len(cnc.seen_addresses) == 1
        assert cnc.total_registrations == 2

    def test_bot_without_args_exits(self):
        mininet = MiniNet()
        mirai = make_mirai_binary()
        container, _node, _ = mininet.host_container(
            "b", files={"/tmp/.mirai": (mirai.serialize(), 0o755)}
        )
        process = container.exec_run(["/tmp/.mirai"])
        mininet.sim.run(until=2.0)
        assert process.exited


class TestAttackDispatch:
    def _botnet(self, n_bots=2):
        mininet = MiniNet()
        cnc, cnc_node = make_cnc_host(mininet)
        target = Node(mininet.sim, "target")
        mininet.star.attach_host(target, 5e6)
        sink = PacketSink(target)
        sink.start()
        for index in range(n_bots):
            make_bot_host(mininet, cnc_node, name=f"bot{index}")
        mininet.sim.run(until=20.0)
        assert cnc.bot_count() == n_bots
        return mininet, cnc, target, sink

    def test_udpplain_order_floods_target(self):
        mininet, cnc, target, sink = self._botnet()
        order = cnc.issue_attack(
            str(mininet.star.address_of(target)), 7777, duration=10.0,
            payload_size=512,
        )
        assert order.bots_commanded == 2
        mininet.sim.run(until=60.0)
        assert sink.total_packets > 50
        assert sink.distinct_sources() == 2

    def test_ping_pong_keepalive(self):
        mininet, cnc, _target, _sink = self._botnet(n_bots=1)
        record = cnc.connected_bots()[0]
        before = record.last_seen
        cnc.broadcast("PING")
        mininet.sim.run(until=30.0)
        assert record.last_seen > before

    def test_stop_command_halts_attack(self):
        mininet, cnc, target, sink = self._botnet(n_bots=1)  # now t=20
        cnc.issue_attack(str(mininet.star.address_of(target)), 7777, duration=100.0)
        mininet.sim.run(until=30.0)
        assert sink.total_packets > 0
        cnc.broadcast("STOP")
        mininet.sim.run(until=32.0)  # STOP propagates
        count_after_stop = sink.total_packets
        mininet.sim.run(until=60.0)
        assert sink.total_packets <= count_after_stop + 2  # in-flight only

    def test_console_commands(self):
        mininet, cnc, target, _sink = self._botnet(n_bots=2)
        assert "2 bots connected" in cnc.console_handler("bots")
        reply = cnc.console_handler(
            f"udpplain {mininet.star.address_of(target)} 7777 5"
        )
        assert "attack sent to 2 bots" in reply
        assert "bots=2" in cnc.console_handler("status")
        assert "unknown command" in cnc.console_handler("frobnicate")
        assert "usage:" in cnc.console_handler("udpplain onlyone")

    def test_wait_for_bots_future(self):
        mininet = MiniNet()
        cnc, cnc_node = make_cnc_host(mininet)
        mininet.sim.run(until=1.0)
        future = cnc.wait_for_bots(2)
        assert not future.done
        for index in range(2):
            make_bot_host(mininet, cnc_node, name=f"late{index}")
        mininet.sim.run(until=30.0)
        assert future.done
        assert future.value == 2

    def test_standing_order_reaches_late_bot(self):
        mininet = MiniNet()
        cnc, cnc_node = make_cnc_host(mininet)
        mininet.sim.run(until=5.0)
        cnc.standing_orders.append("PING")  # any standing line works
        container, _node, process = make_bot_host(mininet, cnc_node, name="late")
        mininet.sim.run(until=30.0)
        record = cnc.connected_bots()[0]
        assert record.last_seen > record.connected_at  # PONG came back


class TestFloodGenerators:
    def test_udp_plain_paces_at_link_rate(self, sim, two_hosts):
        node_a, node_b, star = two_hosts  # 1 Mbps links
        sink = PacketSink(node_b)
        sink.start()
        stats = AttackStats()
        flood = udp_plain_flood(
            node_a, star.address_of(node_b), 7777, duration=10.0,
            payload_size=500, stats=stats,
        )
        SimProcess(sim, flood, name="flood")
        sim.run(until=30.0)
        # Paced by wire size: 1 Mbps / ((500+48) B * 8) = 228 pkt/s for 10 s.
        assert 2200 <= stats.packets_sent <= 2300
        assert stats.duration == pytest.approx(10.0, abs=0.1)

    def test_explicit_rate_override(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        stats = AttackStats()
        flood = udp_plain_flood(
            node_a, star.address_of(node_b), 7777, duration=5.0,
            payload_size=500, rate_bps=43_840, stats=stats,
        )
        SimProcess(sim, flood, name="flood")
        sim.run(until=30.0)
        assert 45 <= stats.packets_sent <= 55  # 43840/(548*8)=10 pkt/s * 5 s
