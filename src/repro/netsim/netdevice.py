"""Net devices: the NICs that connect nodes to channels.

A :class:`PointToPointDevice` serializes packets at its configured data
rate through a drop-tail queue — the mechanism behind both the paper's
100–500 kbps IoT access links and the TServer bottleneck whose saturation
produces Figure 2's sublinear growth.

Devices can be taken ``down``/``up`` at runtime; churn (§IV-A of the
paper) is implemented as exactly that: a departed device's link drops all
traffic until the device rejoins.

Administrative state (:mod:`repro.faults`) is tracked separately from
churn state: a device forwards only when it is both operationally and
administratively up, so a churn rejoin cannot resurrect an admin-downed
link and clearing an admin fault restores whatever churn last decided.
The hot paths keep reading the single combined ``up`` flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.address import MacAddress
from repro.netsim.channel import Channel
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.node import Node


class NetDevice:
    """Base net device; concrete devices implement ``send``."""

    def __init__(self, sim: Simulator, name: str = "dev"):
        self.sim = sim
        self.name = name
        self.node: Optional["Node"] = None
        self.channel: Optional[Channel] = None
        self.mac = MacAddress.allocate()
        self.up = True  # combined flag: _oper_up and admin_up
        self._oper_up = True
        self.admin_up = True
        # Counters (the end-state network fingerprint reads these).
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.drops_down = 0  # packets lost because the link was down

    def send(self, packet: Packet) -> bool:
        raise NotImplementedError

    def receive(self, packet: Packet) -> None:
        """Deliver an arriving packet up to the node's IP layer."""
        if not self.up:
            self.drops_down += packet.count
            return
        self.rx_packets += packet.count
        self.rx_bytes += packet.size * packet.count
        if self.node is not None:
            self.node.ip.receive(packet, self)

    def _notify_flows(self) -> None:
        """Link state changed: let the fluid-flow engine (if any) close
        this device's constant-rate segment and re-solve it and the
        groups downstream."""
        flows = self.sim.flows
        if flows is not None:
            flows.on_link_change(self)

    def set_down(self) -> None:
        """Take the device offline (churn departure)."""
        self._oper_up = False
        self.up = False
        self._notify_flows()

    def set_up(self) -> None:
        """Bring the device back online (churn rejoin)."""
        self._oper_up = True
        if self.admin_up:
            self.up = True
        self._notify_flows()

    def set_admin_down(self) -> None:
        """Fault injection: administratively disable the device."""
        self.admin_up = False
        self.up = False
        self._notify_flows()

    def set_admin_up(self) -> None:
        """Clear an administrative fault; churn state still applies."""
        self.admin_up = True
        if self._oper_up:
            self.up = True
        self._notify_flows()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        owner = self.node.name if self.node is not None else "?"
        return f"<{type(self).__name__} {self.name} on {owner} {'up' if self.up else 'down'}>"


class PointToPointDevice(NetDevice):
    """A NIC on one end of a point-to-point link.

    ``data_rate_bps`` bounds throughput via serialization delay
    (``size * 8 / rate`` per packet); excess arrivals wait in ``queue``
    and overflow is dropped — NS-3's PointToPointNetDevice behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        data_rate_bps: float,
        queue: Optional[DropTailQueue] = None,
        name: str = "p2p",
    ):
        super().__init__(sim, name)
        if data_rate_bps <= 0:
            raise ValueError("data rate must be positive")
        self.data_rate_bps = data_rate_bps
        self._base_data_rate_bps = data_rate_bps
        self.queue = queue if queue is not None else DropTailQueue()
        self.queue.bind_observatory(sim, name)
        self._transmitting = False

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission; False when dropped."""
        if not self.up:
            self.drops_down += packet.count
            return False
        if not self.queue.enqueue(packet):
            return False
        if not self._transmitting:
            self._transmit_next()
        return True

    def _transmit_next(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._transmitting = False
            return
        self._transmitting = True
        # Per-packet serialization delay; a train occupies the wire for
        # count packets back to back.  Completion events are never
        # cancelled, so they go in as handle-free entries.
        tx_delay = packet.size * 8.0 / self.data_rate_bps
        count = packet.count
        if count > 1:
            # Serialize the train with the same float-add chain the
            # per-packet path produces (one add per member), not a
            # single `tx_delay * count` multiply: the rounding differs,
            # and a member arrival landing an ulp across a bin boundary
            # breaks the train == per-packet bit-identity contract.
            # The start time and per-member spacing are stamped so the
            # sink can replay the exact chain for every member.
            packet.spacing = tx_delay
            packet.tx_start = completion = self.sim.now
            for _ in range(count):
                completion += tx_delay
            self.sim.schedule_bare_at(completion, self._transmit_complete, packet)
        else:
            self.sim.schedule_bare(tx_delay, self._transmit_complete, packet)

    def _transmit_complete(self, packet: Packet) -> None:
        if self.up and self.channel is not None:
            self.tx_packets += packet.count
            self.tx_bytes += packet.size * packet.count
            self.channel.transmit(self, packet)
        else:
            self.drops_down += packet.count
        self._transmit_next()

    def set_down(self) -> None:
        """Churn departure: link dies, queued packets are lost."""
        super().set_down()
        self.queue.clear()

    def set_admin_down(self) -> None:
        """Fault outage: link dies, queued packets are lost."""
        super().set_admin_down()
        self.queue.clear()

    def override_data_rate(self, data_rate_bps: float) -> None:
        """Degrade (or restore-differently) the serialization rate."""
        if data_rate_bps <= 0:
            raise ValueError("data rate must be positive")
        self.data_rate_bps = data_rate_bps
        self._notify_flows()

    def clear_data_rate_override(self) -> None:
        self.data_rate_bps = self._base_data_rate_bps
        self._notify_flows()
