"""Topology builders — the "simulated Internet".

§III-D of the paper: "we can represent this Internet connection link as a
single connection line with specific latency and bandwidth. Therefore, we
create a simulated NS-3 network that connects each of DDoSim's components
together over an Ethernet connection link."  :class:`StarInternet` builds
exactly that: one central forwarding router with a dedicated
point-to-point link per component, each with its own data rate and delay
(100–500 kbps for Devs, faster links for Attacker and TServer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.netsim.address import (
    ALL_DHCP_RELAY_AGENTS_AND_SERVERS,
    Address,
    Ipv4Address,
    Ipv4AddressAllocator,
    Ipv6Address,
    Ipv6AddressAllocator,
)
from repro.netsim.channel import PointToPointChannel
from repro.netsim.netdevice import PointToPointDevice
from repro.netsim.node import Node
from repro.netsim.queues import DropTailQueue
from repro.netsim.simulator import Simulator


@dataclass
class HostLink:
    """Bookkeeping for one host's access link into the star."""

    node: Node
    host_device: PointToPointDevice
    router_device: PointToPointDevice
    channel: PointToPointChannel
    ipv6: Ipv6Address
    ipv4: Ipv4Address

    @property
    def up(self) -> bool:
        return self.host_device.up

    def set_up(self, up: bool) -> None:
        """Toggle the whole access link (both endpoints) — churn hook."""
        if up:
            self.host_device.set_up()
            self.router_device.set_up()
        else:
            self.host_device.set_down()
            self.router_device.set_down()

    def set_admin_up(self, up: bool) -> None:
        """Fault hook: administrative outage of the whole access link.

        Orthogonal to :meth:`set_up` — clearing the fault restores
        whatever churn state the endpoints are in.
        """
        if up:
            self.host_device.set_admin_up()
            self.router_device.set_admin_up()
        else:
            self.host_device.set_admin_down()
            self.router_device.set_admin_down()

    def set_router_admin_up(self, up: bool) -> None:
        """Fault hook: hard partition at the star router.

        Only the router-side device goes down, a silent blackhole the
        host cannot observe locally — its own NIC still reports up.
        """
        if up:
            self.router_device.set_admin_up()
        else:
            self.router_device.set_admin_down()

    def fingerprint_state(self) -> dict:
        """Deterministic device/queue/channel state for fingerprinting."""

        def device_state(device) -> dict:
            return {
                "up": device.up,
                "oper": device._oper_up,
                "admin": device.admin_up,
                "rate": device.data_rate_bps,
                "tx_packets": device.tx_packets,
                "tx_bytes": device.tx_bytes,
                "rx_packets": device.rx_packets,
                "rx_bytes": device.rx_bytes,
                "drops_down": device.drops_down,
                "transmitting": device._transmitting,
                "queue": device.queue.fingerprint_state(),
            }

        channel = self.channel
        rng = channel._rng
        return {
            "node": self.node.name,
            "host": device_state(self.host_device),
            "router": device_state(self.router_device),
            "channel": {
                "delay": channel.delay,
                "loss_rate": channel.loss_rate,
                "carried": channel.packets_carried,
                "lost": channel.packets_lost,
                "rng": repr(rng.getstate()) if rng is not None else None,
            },
        }


class StarInternet:
    """A star topology: every host hangs off one forwarding router."""

    def __init__(
        self,
        sim: Simulator,
        ipv6_prefix: str = "2001:db8:0:1",
        ipv4_prefix: str = "10.0.0.0",
        default_queue_packets: int = 100,
    ):
        self.sim = sim
        self.router = Node(sim, "internet-router")
        self.router.ip.forwarding = True
        self.links: Dict[Node, HostLink] = {}
        self._ipv6_pool = Ipv6AddressAllocator(ipv6_prefix)
        self._ipv4_pool = Ipv4AddressAllocator(ipv4_prefix)
        self.default_queue_packets = default_queue_packets
        #: router devices participating in DHCPv6 multicast fan-out
        self._dhcp6_fanout: List[PointToPointDevice] = []

    def attach_host(
        self,
        node: Node,
        data_rate_bps: float,
        delay: float = 0.010,
        downlink_rate_bps: Optional[float] = None,
        queue_packets: Optional[int] = None,
        dhcp6_multicast_member: bool = False,
    ) -> HostLink:
        """Wire ``node`` to the router over a fresh point-to-point link.

        ``data_rate_bps`` is the host's uplink rate; ``downlink_rate_bps``
        (defaults to the same) is the router->host direction — TServer's
        downlink is the DDoS bottleneck.  With ``dhcp6_multicast_member``
        the router fans DHCPv6 multicast out to this host (used for Devs,
        the targets of the RELAYFORW exploit).
        """
        if node in self.links:
            raise ValueError(f"{node.name} is already attached")
        queue_size = queue_packets or self.default_queue_packets
        channel = PointToPointChannel(self.sim, delay=delay)
        host_device = PointToPointDevice(
            self.sim, data_rate_bps, DropTailQueue(queue_size), name=f"{node.name}-eth0"
        )
        router_device = PointToPointDevice(
            self.sim,
            downlink_rate_bps or data_rate_bps,
            DropTailQueue(queue_size),
            name=f"router-to-{node.name}",
        )
        node.add_device(host_device)
        self.router.add_device(router_device)
        channel.attach(host_device)
        channel.attach(router_device)

        ipv6 = self._ipv6_pool.allocate()
        ipv4 = self._ipv4_pool.allocate()
        node.ip.add_address(host_device, ipv6)
        node.ip.add_address(host_device, ipv4)
        node.ip.set_default_device(host_device)
        self.router.ip.add_route(ipv6, router_device)
        self.router.ip.add_route(ipv4, router_device)

        link = HostLink(node, host_device, router_device, channel, ipv6, ipv4)
        self.links[node] = link
        if dhcp6_multicast_member:
            self._dhcp6_fanout.append(router_device)
            self.router.ip.add_multicast_route(
                ALL_DHCP_RELAY_AGENTS_AND_SERVERS, self._dhcp6_fanout
            )
        return link

    def link_of(self, node: Node) -> HostLink:
        return self.links[node]

    def address_of(self, node: Node, want_ipv6: bool = True) -> Address:
        link = self.links[node]
        return link.ipv6 if want_ipv6 else link.ipv4

    def set_host_up(self, node: Node, up: bool) -> None:
        """Churn hook: connect/disconnect a host's access link."""
        self.links[node].set_up(up)

    def fingerprint_state(self) -> list:
        """Per-link fingerprint state, ordered by host node name."""
        ordered = sorted(self.links.values(), key=lambda link: link.node.name)
        return [link.fingerprint_state() for link in ordered]

    def total_queue_drops(self) -> int:
        """Congestion losses across every queue in the star."""
        drops = 0
        for link in self.links.values():
            drops += link.host_device.queue.dropped
            drops += link.router_device.queue.dropped
        return drops
