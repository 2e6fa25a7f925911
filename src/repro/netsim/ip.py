"""The dual-stack (IPv4 + IPv6) network layer.

NS3DockerEmulator only supported IPv4; the paper reports adding IPv6
support throughout DDoSim because Dnsmasq's vulnerability lives in its
DHCPv6 module and exploit delivery needs IPv6 multicast.  This stack
handles both families uniformly: host addressing, static (host-route)
forwarding with TTL, multicast group membership on hosts, and
administratively scoped multicast fan-out on routers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.netsim.address import Address, Ipv4Address, Ipv6Address
from repro.netsim.headers import (
    Header,
    Ipv4Header,
    Ipv6Header,
    PROTO_TCP,
    PROTO_UDP,
    ip_header_for,
)
from repro.netsim.netdevice import NetDevice
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.node import Node


class IpStack:
    """Per-node IP layer: addressing, routing, demux to transports."""

    def __init__(self, node: "Node"):
        self.node = node
        self.sim = node.sim
        self.addresses: Dict[Address, NetDevice] = {}
        self.device_addresses: Dict[NetDevice, List[Address]] = {}
        # Per-family primary-address cache: every send() that omits a
        # source resolves one, so don't rescan the address dict each time.
        self._primary: Dict[bool, Optional[Address]] = {}
        self.routes: Dict[Address, NetDevice] = {}
        self.default_device: Optional[NetDevice] = None
        self.forwarding = False
        self.multicast_groups: Set[Ipv6Address] = set()
        # Router-side multicast fan-out: group -> egress devices.
        self.multicast_routes: Dict[Ipv6Address, List[NetDevice]] = {}
        self._udp = None
        self._tcp = None
        # Counters.
        self.delivered = 0
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_ttl = 0
        self.dropped_no_transport = 0

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------
    @property
    def udp(self):
        if self._udp is None:
            from repro.netsim.udp import Udp

            self._udp = Udp(self)
        return self._udp

    @property
    def tcp(self):
        if self._tcp is None:
            from repro.netsim.tcp import Tcp

            self._tcp = Tcp(self)
        return self._tcp

    # ------------------------------------------------------------------
    # Addressing and routing
    # ------------------------------------------------------------------
    def add_address(self, device: NetDevice, address: Address) -> None:
        """Assign ``address`` to ``device`` on this node."""
        if address in self.addresses:
            raise ValueError(f"{self.node.name}: duplicate address {address}")
        self.addresses[address] = device
        self.device_addresses.setdefault(device, []).append(address)
        self._primary.clear()
        if self.default_device is None:
            self.default_device = device

    def primary_address(self, want_ipv6: bool = True) -> Optional[Address]:
        if want_ipv6 in self._primary:
            return self._primary[want_ipv6]
        family = Ipv6Address if want_ipv6 else Ipv4Address
        primary = None
        for address in self.addresses:
            if isinstance(address, family):
                primary = address
                break
        self._primary[want_ipv6] = primary
        return primary

    def add_route(self, destination: Address, device: NetDevice) -> None:
        """Install a host route: packets to ``destination`` leave ``device``."""
        self.routes[destination] = device

    def remove_route(self, destination: Address) -> None:
        self.routes.pop(destination, None)

    def set_default_device(self, device: NetDevice) -> None:
        self.default_device = device

    def join_multicast(self, group: Ipv6Address) -> None:
        """Host-side membership (e.g. dnsmasq joining ff02::1:2)."""
        if not group.is_multicast:
            raise ValueError(f"{group} is not a multicast group")
        self.multicast_groups.add(group)

    def leave_multicast(self, group: Ipv6Address) -> None:
        self.multicast_groups.discard(group)

    def add_multicast_route(self, group: Ipv6Address, devices: List[NetDevice]) -> None:
        """Router-side fan-out list for ``group``."""
        if not group.is_multicast:
            raise ValueError(f"{group} is not a multicast group")
        self.multicast_routes[group] = list(devices)

    def _egress_for(self, destination: Address) -> Optional[NetDevice]:
        device = self.routes.get(destination)
        if device is None:
            device = self.default_device
        return device

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(
        self,
        packet: Packet,
        destination: Address,
        protocol: int,
        source: Optional[Address] = None,
        ttl: int = 64,
    ) -> bool:
        """Stamp an IP header on ``packet`` and hand it to the egress device.

        Loopback (destination is one of our own addresses) is delivered
        immediately without touching any device — the C&C server telnets to
        itself in some configurations.
        """
        if source is None:
            source = self.primary_address(isinstance(destination, Ipv6Address))
            if source is None:
                raise RuntimeError(f"{self.node.name} has no address of the right family")
        header = ip_header_for(source, destination, protocol, ttl)
        packet.add_header(header)
        if destination in self.addresses:
            self.sim.schedule_now(self._deliver, packet, header)
            return True
        if isinstance(destination, Ipv6Address) and destination.is_multicast:
            return self._send_multicast(packet, header)
        device = self._egress_for(destination)
        if device is None:
            self.dropped_no_route += packet.count
            return False
        return device.send(packet)

    def _send_multicast(self, packet: Packet, header: Header) -> bool:
        """Originate a multicast packet: self-deliver if joined, then emit
        out the default device (the router fans it out further)."""
        if header.dst in self.multicast_groups:
            self.sim.schedule_now(self._deliver, packet.copy(), header)
        device = self._egress_for(header.dst)
        if device is None:
            self.dropped_no_route += packet.count
            return False
        return device.send(packet)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, ingress: NetDevice) -> None:
        header = packet.headers[-1] if packet.headers else None
        if not isinstance(header, (Ipv4Header, Ipv6Header)):
            return  # not IP; nothing above L2 is modelled on this node
        destination = header.dst
        if isinstance(destination, Ipv6Address) and destination.is_multicast:
            self._receive_multicast(packet, header, ingress)
            return
        if destination in self.addresses:
            self._deliver(packet, header)
            return
        if not self.forwarding:
            self.dropped_no_route += packet.count
            return
        self._forward(packet, header, ingress)

    def _receive_multicast(self, packet: Packet, header, ingress: NetDevice) -> None:
        delivered = False
        if header.dst in self.multicast_groups:
            self._deliver(packet, header)
            delivered = True
        if self.forwarding:
            fanout = self.multicast_routes.get(header.dst, [])
            for device in fanout:
                if device is ingress:
                    continue
                clone = packet.copy()
                self.forwarded += clone.count
                device.send(clone)
        elif not delivered:
            self.dropped_no_route += packet.count

    def _forward(self, packet: Packet, header, ingress: NetDevice) -> None:
        if header.ttl <= 1:
            self.dropped_ttl += packet.count
            return
        header.ttl -= 1
        device = self._egress_for(header.dst)
        if device is None or device is ingress:
            self.dropped_no_route += packet.count
            return
        self.forwarded += packet.count
        device.send(packet)

    def _deliver(self, packet: Packet, header) -> None:
        self.delivered += packet.count
        packet.remove_header(type(header))
        protocol = header.protocol
        if protocol == PROTO_UDP:
            self.udp.receive(packet, header)
        elif protocol == PROTO_TCP:
            self.tcp.receive(packet, header)
        else:
            self.dropped_no_transport += packet.count
