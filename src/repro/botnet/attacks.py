"""Mirai's flood attacks.

UDP-PLAIN ("udpplain") is the one the paper uses: "Mirai's volumetric
UDP-PLAIN flood attacks, a botnet DDoS attack supported by Mirai to flood
a target with UDP packets" (§III-C).  Mirai's udpplain is its
highest-PPS UDP flood (minimal per-packet work, one connected socket);
here each bot paces packet emission at its access-link rate — sending any
faster only overflows its own queue, which the link would drop anyway.

SYN and ACK floods are included for completeness (Mirai supports ~10
attack vectors); they craft raw TCP segments and are exercised by the
extension tests and the detection use case.

The per-packet floods run as a :class:`~repro.netsim.process.SimProcess`
like every payload, but pace their emissions as plain scheduled
callbacks (:class:`_Emitter`), as NS-3's traffic generators do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netsim.address import Address, Ipv4Address
from repro.netsim.headers import (
    PROTO_TCP,
    TCP_ACK,
    TCP_SYN,
    Ipv4Header,
    Ipv6Header,
    TcpHeader,
    UdpHeader,
)
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.process import SimFuture, Timeout

#: Mirai's default UDP payload size for udpplain (bytes)
DEFAULT_PAYLOAD_SIZE = 512

#: wire overhead per IPv6 flood datagram (UDP 8 B + IPv6 40 B); kept for
#: callers that size buffers, but pacing derives the overhead from the
#: target's actual address family via :func:`_udp_wire_overhead`
UDP_IPV6_OVERHEAD = UdpHeader.wire_size + Ipv6Header.wire_size


def _ip_wire_size(target: Address) -> int:
    """IP header bytes for the target's address family."""
    if isinstance(target, Ipv4Address):
        return Ipv4Header.wire_size
    return Ipv6Header.wire_size


def _udp_wire_overhead(target: Address) -> int:
    """UDP + IP header bytes per datagram toward ``target``; pacing uses
    the *wire* size so a bot's emission exactly fills its access link
    instead of slowly overflowing its own queue."""
    return UdpHeader.wire_size + _ip_wire_size(target)


@dataclass
class AttackStats:
    """What one bot's flood actually emitted."""

    packets_sent: int = 0
    bytes_sent: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


def _device_rate_bps(node: Node, fallback: float = 250_000.0) -> float:
    device = node.ip.default_device
    rate = getattr(device, "data_rate_bps", None)
    return float(rate) if rate else fallback


class _Emitter(SimFuture):
    """A flood's emissions after its first, as scheduled callbacks;
    resolves at the deadline.

    Each callback calls ``send()`` (one datagram, train or segment,
    counted in the flood's stats) and schedules the next ``interval``
    later with ``schedule_bare``, where a ``yield Timeout(sim,
    interval)`` loop built its timer, so every event keeps its
    ``(time, seq)``.  An emission costs one heap entry and one call
    instead of a ``Timeout`` future, its event handle and a coroutine
    resume.  The waiting process is checked before each emission: once
    it is killed, even at the instant an emission is due, nothing more
    is sent, as :meth:`SimProcess._resume` ignores a wakeup after
    ``kill()``.  An error from ``send()`` fails the emitter, so it is
    raised inside the flood's generator.
    """

    __slots__ = ("_send", "_interval", "_deadline", "_process")

    def __init__(self, sim, send, interval: float, deadline: float):
        super().__init__(sim)
        self._send = send
        self._interval = interval
        self._deadline = deadline
        self._process = None
        sim.schedule_bare(interval, self._fire)

    def add_waiter(self, process) -> None:
        self._process = process
        super().add_waiter(process)

    def _fire(self) -> None:
        if self._process.killed:
            return
        sim = self.sim
        if sim.now < self._deadline:
            try:
                self._send()
            except Exception as error:  # noqa: BLE001 - fails the flood process
                self.fail(error)
                return
            sim.schedule_bare(self._interval, self._fire)
        else:
            self.succeed()


def _paced(sim, stats: AttackStats, duration: float, interval: float, send):
    """Generator: ``send()`` now and every ``interval`` seconds while
    ``duration`` has not passed, then return ``stats``.

    The first emission runs in the process's own step, as the loop's
    first pass did, so a flood that ends or fails there never
    suspends; the rest are :class:`_Emitter` callbacks.  ``finished_at``
    is stamped however the flood ends, so a flood killed mid-attack (a
    crash, a STOP order) reads the kill instant, as in
    :func:`udp_plain_flow`.
    """
    stats.started_at = sim.now
    deadline = sim.now + duration
    try:
        if sim.now < deadline:
            send()
            yield _Emitter(sim, send, interval, deadline)
    finally:
        stats.finished_at = sim.now
    return stats


def udp_plain_flood(
    node: Node,
    target: Address,
    target_port: int,
    duration: float,
    payload_size: int = DEFAULT_PAYLOAD_SIZE,
    rate_bps: Optional[float] = None,
    stats: Optional[AttackStats] = None,
    src_port: Optional[int] = None,
    train: int = 1,
):
    """Generator: flood ``target`` with UDP junk for ``duration`` seconds.

    Packets carry a virtual payload (size only, no bytes) — the flood's
    effect is entirely in its wire footprint.  The emission rate defaults
    to the bot's own access-link rate (its uplink is the binding
    constraint for 100-500 kbps IoT devices).

    ``train`` > 1 batches emission: each emission sends one
    :class:`~repro.netsim.packet.PacketTrain` of ``train`` packets and
    the next comes ``train`` intervals later, cutting scheduler events
    per packet by ~the train size at the same paced wire rate.
    ``train=1`` is the exact per-packet path.  Either way every emission
    after the first is an :class:`_Emitter` callback, and the generator
    resumes only when the flood ends.
    """
    if stats is None:
        stats = AttackStats()
    if train < 1:
        raise ValueError("train size must be >= 1")
    rate = rate_bps if rate_bps is not None else _device_rate_bps(node)
    wire_size = payload_size + _udp_wire_overhead(target)
    interval = wire_size * 8.0 / rate
    udp = node.udp
    sport = src_port if src_port is not None else udp.allocate_ephemeral_port()
    if train == 1:
        def send():
            udp.send_datagram(
                None, target, target_port, src_port=sport,
                payload_size=payload_size,
            )
            stats.packets_sent += 1
            stats.bytes_sent += wire_size  # wire bytes, comparable to the sink's
    else:
        interval *= train

        def send():
            udp.send_train(
                target, target_port, train, src_port=sport,
                payload_size=payload_size,
            )
            stats.packets_sent += train
            stats.bytes_sent += wire_size * train
    return (yield from _paced(node.sim, stats, duration, interval, send))


def udp_plain_flow(
    node: Node,
    target: Address,
    target_port: int,
    duration: float,
    payload_size: int = DEFAULT_PAYLOAD_SIZE,
    rate_bps: Optional[float] = None,
    stats: Optional[AttackStats] = None,
    src_port: Optional[int] = None,
):
    """Generator: the fluid-flow udpplain datapath.

    Same contract as :func:`udp_plain_flood`, but instead of scheduling
    one event per packet (or train), the whole steady flood becomes one
    :class:`~repro.netsim.flows.FluidFlow` on the simulator's
    :class:`~repro.netsim.flows.FlowEngine` — the generator sleeps for
    the full duration while the engine integrates the flow analytically,
    then closes the flow and reads its offered totals back into
    ``stats``.  Requires an active engine (``sim.flows``).
    """
    if stats is None:
        stats = AttackStats()
    engine = node.sim.flows
    if engine is None:
        raise RuntimeError(
            "udp_plain_flow needs a FlowEngine (sim.flows); "
            "use udp_plain_flood when the fluid datapath is off"
        )
    rate = rate_bps if rate_bps is not None else _device_rate_bps(node)
    wire_size = payload_size + _udp_wire_overhead(target)
    sim = node.sim
    sport = (src_port if src_port is not None
             else node.udp.allocate_ephemeral_port())
    stats.started_at = sim.now
    flow = engine.start_flow(
        node, target, target_port, sport, rate, payload_size, wire_size,
    )
    try:
        yield Timeout(sim, duration)
    finally:
        # Runs on normal completion and on process kill (churn death):
        # either way the flow stops at the current instant and the
        # offered volume so far becomes the bot's emission stats.
        engine.stop_flow(flow)
        stats.finished_at = sim.now
        stats.packets_sent = flow.offered_packets
        stats.bytes_sent = flow.offered_packets * wire_size
    return stats


def syn_flood(
    node: Node,
    target: Address,
    target_port: int,
    duration: float,
    rate_bps: Optional[float] = None,
    stats: Optional[AttackStats] = None,
):
    """Generator: raw SYN flood (40-byte segments, rotating source ports)."""
    return (yield from _tcp_flag_flood(
        node, target, target_port, duration, TCP_SYN, rate_bps, stats
    ))


def ack_flood(
    node: Node,
    target: Address,
    target_port: int,
    duration: float,
    rate_bps: Optional[float] = None,
    stats: Optional[AttackStats] = None,
):
    """Generator: raw ACK flood."""
    return (yield from _tcp_flag_flood(
        node, target, target_port, duration, TCP_ACK, rate_bps, stats
    ))


def _tcp_flag_flood(node, target, target_port, duration, flags, rate_bps, stats):
    if stats is None:
        stats = AttackStats()
    rate = rate_bps if rate_bps is not None else _device_rate_bps(node)
    segment_size = TcpHeader.wire_size + _ip_wire_size(target)
    interval = max(segment_size * 8.0 / rate, 1e-4)
    sim = node.sim
    sport = 1024
    seq = 0

    def send():
        nonlocal sport, seq
        packet = Packet(created_at=sim.now)
        packet.add_header(TcpHeader(sport, target_port, seq=seq, flags=flags))
        node.ip.send(packet, target, PROTO_TCP)
        stats.packets_sent += 1
        stats.bytes_sent += segment_size
        sport = 1024 + (sport - 1023) % 60000
        seq += 1

    return (yield from _paced(sim, stats, duration, interval, send))
