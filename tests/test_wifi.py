"""Unit tests for the CSMA/CA WiFi model and the hardware testbed fabric."""

import random

import pytest

from repro.hardware.testbed import WifiHostLink, WifiTestbedInternet
from repro.hardware.wifi import CW_MIN, WifiChannel, WifiDevice
from repro.netsim.headers import PROTO_UDP, UdpHeader
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.sink import PacketSink


def station_pair(sim, loss_rate=0.0, seed=1):
    channel = WifiChannel(sim, phy_rate_bps=54e6, loss_rate=loss_rate,
                          rng=random.Random(seed))
    ap = WifiDevice(sim, 54e6, is_access_point=True, name="ap")
    station = WifiDevice(sim, 250e3, name="sta")
    channel.attach(ap)
    channel.attach(station)
    station.access_point = ap
    return channel, ap, station


class TestWifiChannel:
    def test_station_frame_reaches_ap(self, sim):
        channel, ap, station = station_pair(sim)
        arrivals = []
        ap.receive = lambda frame: arrivals.append(sim.now)
        station.send(Packet(payload_size=500))
        sim.run()
        assert len(arrivals) == 1
        assert channel.frames_delivered == 1

    def test_frames_serialize_at_phy_rate_plus_overhead(self, sim):
        channel, ap, station = station_pair(sim)
        arrivals = []
        ap.receive = lambda frame: arrivals.append(sim.now)
        station.send(Packet(payload_size=1350))  # 10800 bits @ 54 Mbps = 200 us
        sim.run()
        # DIFS + backoff slots + airtime + MAC overhead: bounded window.
        assert 0.0002 < arrivals[0] < 0.002

    def test_two_contenders_both_eventually_deliver(self, sim):
        channel = WifiChannel(sim, rng=random.Random(2))
        ap = WifiDevice(sim, 54e6, is_access_point=True)
        stations = []
        for index in range(2):
            station = WifiDevice(sim, 250e3, name=f"sta{index}")
            channel.attach(station)
            station.access_point = ap
            stations.append(station)
        channel.attach(ap)
        received = []
        ap.receive = lambda frame: received.append(frame)
        for station in stations:
            for _ in range(5):
                station.send(Packet(payload_size=200))
        sim.run(until=1.0)
        assert len(received) == 10

    def test_collisions_occur_under_contention(self, sim):
        channel = WifiChannel(sim, rng=random.Random(3))
        ap = WifiDevice(sim, 54e6, is_access_point=True)
        channel.attach(ap)
        stations = []
        for index in range(8):
            station = WifiDevice(sim, 250e3, name=f"sta{index}")
            channel.attach(station)
            station.access_point = ap
            stations.append(station)
        ap.receive = lambda frame: None
        for _round in range(30):
            for station in stations:
                station.send(Packet(payload_size=400))
        sim.run(until=5.0)
        assert channel.frames_collided > 0

    def test_noise_loss_with_retry_still_delivers(self, sim):
        channel, ap, station = station_pair(sim, loss_rate=0.3, seed=5)
        received = []
        ap.receive = lambda frame: received.append(frame)
        for _ in range(20):
            station.send(Packet(payload_size=300))
        sim.run(until=5.0)
        assert channel.frames_lost_noise > 0
        assert len(received) >= 18  # retries recover nearly everything

    def test_retry_cap_drops_frames(self, sim):
        channel, ap, station = station_pair(sim, loss_rate=0.97, seed=6)
        ap.receive = lambda frame: None
        for _ in range(5):
            station.send(Packet(payload_size=100))
        sim.run(until=30.0)
        assert station.frames_dropped_retry > 0

    def test_contention_window_resets_after_success(self, sim):
        channel, ap, station = station_pair(sim, loss_rate=0.0)
        ap.receive = lambda frame: None
        station.contention_window = 255
        station.send(Packet(payload_size=100))
        sim.run()
        assert station.contention_window == CW_MIN

    def test_down_station_drops_traffic(self, sim):
        channel, ap, station = station_pair(sim)
        station.set_down()
        assert not station.send(Packet(payload_size=100))

    def test_queue_overflow(self, sim):
        channel, ap, station = station_pair(sim)
        station.queue_limit = 2
        for _ in range(10):
            station.send(Packet(payload_size=100))
        assert station.queue_drops > 0

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            WifiChannel(sim, phy_rate_bps=0)
        with pytest.raises(ValueError):
            WifiChannel(sim, loss_rate=1.0)


class TestWifiTestbedInternet:
    def test_slow_hosts_go_wireless_fast_hosts_wired(self, sim):
        fabric = WifiTestbedInternet(sim)
        iot = Node(sim, "iot")
        desktop = Node(sim, "desktop")
        iot_link = fabric.attach_host(iot, 300e3)
        desktop_link = fabric.attach_host(desktop, 100e6)
        assert isinstance(iot_link, WifiHostLink)
        assert not isinstance(desktop_link, WifiHostLink)

    def test_wireless_to_wired_end_to_end(self, sim):
        fabric = WifiTestbedInternet(sim)
        iot = Node(sim, "iot")
        desktop = Node(sim, "desktop")
        fabric.attach_host(iot, 300e3)
        fabric.attach_host(desktop, 100e6)
        sink = PacketSink(desktop)
        sink.start()
        iot.udp.send_datagram(
            None, fabric.address_of(desktop), 7777, src_port=1, payload_size=400
        )
        sim.run(until=1.0)
        assert sink.total_packets == 1

    def test_wired_to_wireless_end_to_end(self, sim):
        fabric = WifiTestbedInternet(sim)
        iot = Node(sim, "iot")
        desktop = Node(sim, "desktop")
        fabric.attach_host(iot, 300e3)
        fabric.attach_host(desktop, 100e6)
        sink = PacketSink(iot)
        sink.start()
        desktop.udp.send_datagram(
            None, fabric.address_of(iot), 7777, src_port=1, payload_size=400
        )
        sim.run(until=1.0)
        assert sink.total_packets == 1

    def test_multicast_replicated_to_stations(self, sim):
        from repro.netsim.address import ALL_DHCP_RELAY_AGENTS_AND_SERVERS

        fabric = WifiTestbedInternet(sim)
        sender = Node(sim, "sender")
        fabric.attach_host(sender, 100e6)
        sinks = []
        for index in range(3):
            iot = Node(sim, f"iot{index}")
            fabric.attach_host(iot, 300e3)
            iot.ip.join_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS)
            inbox = []
            iot.udp.bind(547, lambda p, u, i, inbox=inbox: inbox.append(p))
            sinks.append(inbox)
        packet = Packet(payload_size=60)
        packet.add_header(UdpHeader(546, 547))
        sender.ip.send(packet, ALL_DHCP_RELAY_AGENTS_AND_SERVERS, PROTO_UDP)
        sim.run(until=1.0)
        assert all(len(inbox) == 1 for inbox in sinks)

    def test_churn_interface(self, sim):
        fabric = WifiTestbedInternet(sim)
        iot = Node(sim, "iot")
        link = fabric.attach_host(iot, 300e3)
        fabric.set_host_up(iot, False)
        assert not link.up
        fabric.set_host_up(iot, True)
        assert link.up

    def test_double_attach_rejected(self, sim):
        fabric = WifiTestbedInternet(sim)
        iot = Node(sim, "iot")
        fabric.attach_host(iot, 300e3)
        with pytest.raises(ValueError):
            fabric.attach_host(iot, 300e3)

    def test_queue_drop_accounting(self, sim):
        fabric = WifiTestbedInternet(sim)
        iot = Node(sim, "iot")
        fabric.attach_host(iot, 300e3)
        assert fabric.total_queue_drops() == 0
