"""Unit tests for applications: OnOff traffic and the TServer sink."""

import pytest

from repro.netsim.application import OnOffApplication
from repro.netsim.flows import FlowEngine
from repro.netsim.sink import PacketSink


class TestOnOffApplication:
    def test_sends_at_configured_rate_during_on_period(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        app = OnOffApplication(
            node_a, star.address_of(node_b), 9000,
            rate_bps=80_000, packet_size=100,  # 100 pkt/s
            on_seconds=1.0, off_seconds=1.0,
        )
        app.start()
        sim.run(until=1.0)
        assert 95 <= app.packets_sent <= 105

    def test_off_period_pauses_sending(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        app = OnOffApplication(
            node_a, star.address_of(node_b), 9000,
            rate_bps=80_000, packet_size=100,
            on_seconds=1.0, off_seconds=9.0,
        )
        app.start()
        sim.run(until=1.0)
        after_on = app.packets_sent
        sim.run(until=9.5)
        assert app.packets_sent == after_on

    def test_stop_halts_traffic(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        app = OnOffApplication(
            node_a, star.address_of(node_b), 9000,
            rate_bps=80_000, packet_size=100,
        )
        app.start()
        sim.run(until=0.5)
        app.stop()
        sent = app.packets_sent
        sim.run(until=2.0)
        assert app.packets_sent == sent

    def test_invalid_parameters_rejected(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        with pytest.raises(ValueError):
            OnOffApplication(node_a, star.address_of(node_b), 1, rate_bps=0)

    def test_schedule_start_stop_window(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        app = OnOffApplication(
            node_a, star.address_of(node_b), 9000,
            rate_bps=80_000, packet_size=100, on_seconds=100.0,
        )
        app.schedule_start(1.0)
        app.schedule_stop(2.0)
        sim.run(until=5.0)
        assert 90 <= app.packets_sent <= 110


class TestPacketSink:
    def test_counts_any_udp_port(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        for port in (1, 7777, 50_000):
            node_a.udp.send_datagram(
                None, star.address_of(node_b), port, src_port=9, payload_size=100
            )
        sim.run()
        assert sink.total_packets == 3
        # 100 B payload + 8 B UDP + 40 B IPv6 per packet
        assert sink.total_bytes == 3 * 148

    def test_per_second_binning(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        for delay in (0.1, 0.2, 1.5):
            sim.schedule(
                delay,
                node_a.udp.send_datagram,
                None, star.address_of(node_b), 7, 9, 100,
            )
        sim.run()
        assert sink.bytes_per_bin[0] == 2 * 148
        assert sink.bytes_per_bin[1] == 148

    def test_bytes_received_between(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        sim.schedule(0.5, node_a.udp.send_datagram,
                     None, star.address_of(node_b), 7, 9, 100)
        sim.schedule(2.5, node_a.udp.send_datagram,
                     None, star.address_of(node_b), 7, 9, 100)
        sim.run()
        assert sink.bytes_received_between(0.0, 1.0) == 148
        assert sink.bytes_received_between(0.0, 3.0) == 296
        assert sink.bytes_received_between(1.0, 2.0) == 0

    def test_per_source_accounting(self, sim, star):
        from repro.netsim.node import Node

        receiver = Node(sim, "recv")
        star.attach_host(receiver, 1e6)
        sink = PacketSink(receiver)
        sink.start()
        senders = []
        for index in range(3):
            sender = Node(sim, f"s{index}")
            star.attach_host(sender, 1e6)
            senders.append(sender)
            sender.udp.send_datagram(
                None, star.address_of(receiver), 7, src_port=100, payload_size=10
            )
        sim.run()
        assert sink.distinct_sources() == 3

    def test_stopped_sink_ignores_traffic(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        sink.stop()
        node_a.udp.send_datagram(None, star.address_of(node_b), 7, 9, 100)
        sim.run()
        assert sink.total_packets == 0

    def test_reset_clears_state(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        node_a.udp.send_datagram(None, star.address_of(node_b), 7, 9, 100)
        sim.run()
        sink.reset()
        assert sink.total_bytes == 0
        assert sink.first_packet_time is None
        assert sink.distinct_sources() == 0

    def test_rate_series(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        sim.schedule(0.5, node_a.udp.send_datagram,
                     None, star.address_of(node_b), 7, 9, 1000)
        sim.run()
        series = sink.rate_series_kbps(0.0, 2.0)
        assert len(series) == 2
        assert series[0] == pytest.approx(1048 * 8 / 1000)
        assert series[1] == 0.0

    def test_invalid_bin_width_rejected(self, sim, two_hosts):
        _, node_b, _ = two_hosts
        with pytest.raises(ValueError):
            PacketSink(node_b, bin_width=0)


class TestPerSourceFromFlows:
    """``per_source`` is built from the flow records: one sender port
    talking to two destination ports is one source with two records."""

    @staticmethod
    def assert_one_source_of_two_flows(sink, source, src_port):
        records = [record for (src, port, _dst_port), record in sink.flows.items()
                   if (src, port) == (source, src_port)]
        assert len(records) == 2 and all(r["packets"] > 0 for r in records)
        assert sink.per_source == {(source, src_port): [
            sum(r["packets"] for r in records), sum(r["bytes"] for r in records),
        ]}
        assert sink.distinct_sources() == 1
        sink.reset()
        assert sink.per_source == {}
        assert sink.distinct_sources() == 0

    def test_packet_path(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        target = star.address_of(node_b)
        for dst_port, payload in ((7, 100), (8, 300), (7, 100)):
            node_a.udp.send_datagram(None, target, dst_port, 9, payload)
        sim.run()
        self.assert_one_source_of_two_flows(sink, star.address_of(node_a), 9)

    def test_settled_fluid_flows(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        sink = PacketSink(node_b)
        sink.start()
        engine = FlowEngine(sim, mode="all")
        target = star.address_of(node_b)
        for dst_port, rate in ((7777, 200e3), (7778, 100e3)):
            flow = engine.start_flow(node_a, target, dst_port, 9, rate_bps=rate,
                                     payload_size=512, packet_size=560)
            sim.schedule(5.0, engine.stop_flow, flow)
        sim.run(until=6.0)
        self.assert_one_source_of_two_flows(sink, star.address_of(node_a), 9)
