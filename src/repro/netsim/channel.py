"""Channels: the propagation media between net devices.

The experiment series models each component's Internet path ("home routers
and ISP switches ... fiber optics and WiFi") as *one* link with a given
latency and bandwidth (§III-D of the paper), so the workhorse here is the
full-duplex :class:`PointToPointChannel`.  The hardware-validation testbed
adds a shared WiFi medium in :mod:`repro.hardware.wifi` on top of the same
interfaces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.netsim.netdevice import NetDevice


class Channel:
    """Base channel: knows its simulator, delay, and attached devices."""

    def __init__(self, sim: Simulator, delay: float = 0.0):
        if delay < 0:
            raise ValueError("channel delay must be non-negative")
        self.sim = sim
        self.delay = delay
        self.devices: List["NetDevice"] = []

    def attach(self, device: "NetDevice") -> None:
        self.devices.append(device)
        device.channel = self

    def transmit(self, sender: "NetDevice", packet: Packet) -> None:
        raise NotImplementedError


class PointToPointChannel(Channel):
    """A full-duplex link between exactly two devices.

    Serialization delay lives in the sending device (it depends on the
    device's data rate); the channel only adds propagation delay.  An
    optional ``loss_rate`` models random medium loss (used by the hardware
    testbed's noisy wireless environment; the DDoSim Internet links keep
    the default of zero, losses there come from queue overflow).
    """

    def __init__(self, sim: Simulator, delay: float = 0.0, loss_rate: float = 0.0,
                 rng=None):
        super().__init__(sim, delay)
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        self._rng = rng
        self._base_delay = delay
        self._base_loss_rate = loss_rate
        self._base_rng = rng
        self.packets_carried = 0
        self.packets_lost = 0
        obs = sim.obs
        self._tracer = obs.tracer
        self._tx_packets = obs.metrics.counter(
            "link_tx_packets_total", help="packets carried by point-to-point links"
        )
        self._tx_bytes = obs.metrics.counter(
            "link_tx_bytes_total", help="bytes carried by point-to-point links"
        )
        self._loss_packets = obs.metrics.counter(
            "link_lost_packets_total", help="packets lost to random medium loss"
        )

    def attach(self, device: "NetDevice") -> None:
        if len(self.devices) >= 2:
            raise ValueError("point-to-point channel already has two devices")
        super().attach(device)

    def override_parameters(self, delay: Optional[float] = None,
                            loss_rate: Optional[float] = None,
                            rng=None) -> None:
        """Degrade the medium (fault injection): raise propagation delay
        and/or random loss until :meth:`clear_overrides`.  Star links are
        built lossless without an RNG, so a loss override must bring one.
        """
        if delay is not None:
            if delay < 0:
                raise ValueError("channel delay must be non-negative")
            self.delay = delay
        if loss_rate is not None:
            if not 0.0 <= loss_rate < 1.0:
                raise ValueError("loss_rate must be in [0, 1)")
            self.loss_rate = loss_rate
            if rng is not None:
                self._rng = rng
            if loss_rate > 0.0 and self._rng is None:
                raise ValueError("loss override on a channel with no RNG")
        self._notify_flows()

    def clear_overrides(self) -> None:
        self.delay = self._base_delay
        self.loss_rate = self._base_loss_rate
        self._rng = self._base_rng
        self._notify_flows()

    def _notify_flows(self) -> None:
        """Medium parameters changed: re-linearize the fluid flows
        crossing this link."""
        flows = self.sim.flows
        if flows is not None:
            flows.on_link_change(self)

    def fluid_carry(self, count: int, nbytes: int, lost: int = 0) -> None:
        """Account analytically-carried flow packets (no scheduling).

        The fluid datapath computes carried/lost volumes in closed form;
        this feeds the same per-channel counters and metrics the packet
        path's :meth:`transmit` maintains.  Random loss becomes an exact
        fraction — no RNG draws are consumed, keeping the stream
        identical for any co-existing packet traffic.
        """
        if lost > 0:
            self.packets_lost += lost
            self._loss_packets.inc(lost)
        if count > 0:
            self.packets_carried += count
            self._tx_packets.inc(count)
            self._tx_bytes.inc(nbytes)

    def peer_of(self, device: "NetDevice") -> Optional["NetDevice"]:
        """The device at the other end of the link, if both are attached."""
        if len(self.devices) != 2:
            return None
        return self.devices[1] if self.devices[0] is device else self.devices[0]

    def transmit(self, sender: "NetDevice", packet: Packet) -> None:
        peer = self.peer_of(sender)
        if peer is None:
            raise RuntimeError("point-to-point channel is not fully wired")
        count = packet.count
        if self.loss_rate > 0.0 and self._rng is not None:
            # One Bernoulli draw per member packet, so the RNG stream is
            # identical whatever the train size; survivors travel on as
            # one (shrunk) train.
            rng = self._rng
            rate = self.loss_rate
            survivors = sum(1 for _ in range(count) if rng.random() >= rate)
            lost = count - survivors
            if lost:
                self.packets_lost += lost
                self._loss_packets.inc(lost)
                if survivors == 0:
                    return
                packet = packet.copy()
                packet.count = count = survivors
        self.packets_carried += count
        self._tx_packets.inc(count)
        self._tx_bytes.inc(packet.size * count)
        if self._tracer.enabled:
            self._tracer.emit(
                "link.tx", self.sim.now,
                sender=sender.name, size=packet.size, count=count,
                delay=self.delay,
            )
        if count > 1:
            # Last-hop propagation delay, so the sink can reconstruct
            # each member's arrival with the exact op sequence the
            # per-packet path uses (completion + delay, one add).
            packet.link_delay = self.delay
        # Receive events are never cancelled: a handle-free entry.
        self.sim.schedule_bare(self.delay, peer.receive, packet)
