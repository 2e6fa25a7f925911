"""UDP transport: connectionless datagram demux by destination port.

UDP carries most of the experiment series: DNS (Connman exploitation),
DHCPv6 (Dnsmasq exploitation) and the Mirai UDP-PLAIN flood itself.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.netsim.address import Address
from repro.netsim.headers import PROTO_UDP, UdpHeader
from repro.netsim.packet import Packet, PacketTrain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.ip import IpStack

#: handler(packet, udp_header, ip_header) -> None
UdpHandler = Callable[[Packet, UdpHeader, object], None]

EPHEMERAL_PORT_START = 49152


class Udp:
    """Per-node UDP: port bindings plus an optional promiscuous handler.

    The promiscuous handler backs the paper's customized TServer sink,
    which must count *all* flood traffic regardless of destination port.
    """

    def __init__(self, ip: "IpStack"):
        self.ip = ip
        self.bindings: Dict[int, UdpHandler] = {}
        self.default_handler: Optional[UdpHandler] = None
        #: True while delivery to the default handler is paused (a
        #: stalled sink); the handler itself stays installed
        self.default_paused = False
        #: where receive() sends datagrams to unbound ports: the default
        #: handler, or None while it is paused
        self._deliver_default: Optional[UdpHandler] = None
        self._next_ephemeral = EPHEMERAL_PORT_START
        self.rx_datagrams = 0
        self.rx_unreachable = 0

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, port: int, handler: UdpHandler) -> int:
        """Bind ``handler`` to ``port`` (0 allocates an ephemeral port)."""
        if port == 0:
            port = self.allocate_ephemeral_port()
        if port in self.bindings:
            raise OSError(f"{self.ip.node.name}: UDP port {port} already in use")
        self.bindings[port] = handler
        return port

    def unbind(self, port: int) -> None:
        self.bindings.pop(port, None)

    def allocate_ephemeral_port(self) -> int:
        while self._next_ephemeral in self.bindings:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def set_default_handler(self, handler: Optional[UdpHandler]) -> None:
        """Install a promiscuous handler for datagrams to unbound ports."""
        self.default_handler = handler
        if not self.default_paused:
            self._deliver_default = handler

    def pause_default_handler(self, paused: bool) -> None:
        """Hold (``True``) or resume delivery to the default handler
        without removing it.  While paused, datagrams to unbound ports
        count as unreachable; a handler set meanwhile (a defense
        wrapping the sink, or unwrapping itself) is the one resumed."""
        self.default_paused = paused
        self._deliver_default = None if paused else self.default_handler

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def send(
        self,
        packet: Packet,
        destination: Address,
        dst_port: int,
        src_port: int,
        source: Optional[Address] = None,
        ttl: int = 64,
    ) -> bool:
        """Stamp a UDP header and pass down to IP."""
        packet.add_header(UdpHeader(src_port, dst_port))
        return self.ip.send(packet, destination, PROTO_UDP, source, ttl)

    def send_datagram(
        self,
        payload: Optional[bytes],
        destination: Address,
        dst_port: int,
        src_port: int = 0,
        payload_size: Optional[int] = None,
        source: Optional[Address] = None,
    ) -> bool:
        """Convenience wrapper building the packet in one call."""
        packet = Packet(payload, payload_size, created_at=self.ip.sim.now)
        return self.send(packet, destination, dst_port, src_port, source)

    def send_train(
        self,
        destination: Address,
        dst_port: int,
        count: int,
        src_port: int = 0,
        payload_size: int = 0,
        source: Optional[Address] = None,
    ) -> bool:
        """Send ``count`` identical junk datagrams as one
        :class:`~repro.netsim.packet.PacketTrain` (the flood fast path)."""
        packet = PacketTrain(payload_size, count, created_at=self.ip.sim.now)
        return self.send(packet, destination, dst_port, src_port, source)

    def receive(self, packet: Packet, ip_header) -> None:
        header = packet.remove_header(UdpHeader)
        self.rx_datagrams += packet.count
        handler = self.bindings.get(header.dst_port)
        if handler is None:
            handler = self._deliver_default
        if handler is None:
            self.rx_unreachable += packet.count
            return
        handler(packet, header, ip_header)
