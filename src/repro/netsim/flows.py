"""Fluid-flow datapath: analytic steady-state flood traffic.

The packet path (even train-batched, :mod:`repro.netsim.packet`) costs
one scheduled event per train per hop, which bounds how many flood
packets a run can afford.  A steady UDP-PLAIN flood, however, is fully
described by a handful of numbers — wire rate, packet size, source,
target, start/stop — so this module represents it as a
:class:`FluidFlow` and solves the network analytically instead of
scheduling its packets.

The solver is piecewise-constant: between *epochs* (flow start/stop,
link up/down/degrade from churn or :mod:`repro.faults`, sink
start/stop) every rate in the network is constant, so each queue's
behaviour has a closed form — aggregate inflow against the link drain
rate yields a pass fraction, a queue-depth trajectory (fill, saturate,
drain) and a drop fraction.  The :class:`FlowEngine` re-linearizes only
at epochs; a 100-second flood that would schedule millions of packet
events costs a few dozen epoch solves.

Accounting is exact in expectation and fully deterministic: queues see
integer drop counts (``queue_drops_total``),
devices and channels see tx/carried counters, and the TServer
:class:`~repro.netsim.sink.PacketSink` integrates flow byte-rates into
the same per-second ``bytes_per_bin`` histogram the packet path fills.
Fractional bytes/packets carry across segments through per-flow
remainder accumulators, so totals never drift.

Crossover modes (``SimulationConfig.flood_flow`` / ``--flow``):

* ``off``  — no engine at all; the exact packet/train datapath.
* ``auto`` — hybrid: upstream hops (each bot's access link, typically
  uncongested because floods pace at the link rate) are fluid, while
  the *last* hop — the congested bottleneck queue in front of the sink
  — receives real :class:`~repro.netsim.packet.PacketTrain` injections
  at the upstream-surviving rate, keeping packet-exact drop-tail
  behaviour and per-packet sink arrival times where congestion decides
  the result.
* ``all``  — fully fluid end to end; the sink is credited analytically.

Known approximations (all expectation-neutral): flows do not contend
with discrete packets sharing a queue (flood queues carry only flood
traffic in the paper's star), channel-loss Bernoulli draws become exact
fractions (no RNG is consumed), and a stopping flow's residual queue
backlog is credited to the sink at the stop instant.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.netsim.address import Address, Ipv6Address
from repro.netsim.headers import PROTO_UDP, UdpHeader, ip_header_for
from repro.netsim.packet import PacketTrain

#: crossover knob values (config ``flood_flow`` / CLI ``--flow``)
FLOW_MODES = ("off", "auto", "all")

#: packets per train injected at the crossover hop in ``auto`` mode
CROSSOVER_TRAIN = 16

#: safety bound on fluid path resolution
MAX_PATH_HOPS = 16


class FlowPathError(RuntimeError):
    """Raised when a fluid path to the destination cannot be resolved."""


def resolve_path(node, destination: Address) -> Tuple[list, object]:
    """Static route walk from ``node`` to the node owning ``destination``.

    Returns ``(hops, final_node)`` where ``hops`` is the ordered list of
    egress :class:`~repro.netsim.netdevice.NetDevice`\\ s the traffic
    serializes through.  Routing in the star (and any static host-route
    topology) never changes at runtime, so the path is resolved once per
    flow; only link *state* along it varies between epochs.
    """
    hops = []
    current = node
    for _ in range(MAX_PATH_HOPS):
        if destination in current.ip.addresses:
            return hops, current
        device = current.ip.routes.get(destination)
        if device is None:
            device = current.ip.default_device
        if device is None or device.channel is None:
            raise FlowPathError(
                f"{current.name}: no egress toward {destination}"
            )
        peer = device.channel.peer_of(device)
        if peer is None or peer.node is None:
            raise FlowPathError(
                f"{current.name}: {device.name} has no wired peer"
            )
        hops.append(device)
        current = peer.node
    raise FlowPathError(f"path to {destination} exceeds {MAX_PATH_HOPS} hops")


class FluidFlow:
    """One steady flood stream as a rate object.

    ``rate_bps`` is the *wire* emission rate (payload plus UDP/IP
    headers — the same pacing :func:`repro.botnet.attacks.udp_plain_flood`
    derives), ``packet_size`` the wire bytes per packet.  Offered,
    delivered and dropped byte totals accumulate as the engine
    integrates segments; ``offered_packets`` quantizes deterministically.
    """

    __slots__ = (
        "flow_id", "node", "src_address", "src_port", "dst_address",
        "dst_port", "rate_bps", "packet_size", "payload_size",
        "started_at", "stopped_at", "active", "hops", "fluid_hops",
        "sink_node", "offered_bytes", "delivered_bytes", "dropped_bytes",
        "inject_rate_bps", "inject_device", "_injecting", "_inject_started",
        "_seg_latency", "_seg_sink",
    )

    def __init__(self, flow_id: int, node, src_address: Address, src_port: int,
                 dst_address: Address, dst_port: int, rate_bps: float,
                 packet_size: int, payload_size: int, started_at: float):
        self.flow_id = flow_id
        self.node = node
        self.src_address = src_address
        self.src_port = src_port
        self.dst_address = dst_address
        self.dst_port = dst_port
        self.rate_bps = float(rate_bps)
        self.packet_size = int(packet_size)
        self.payload_size = int(payload_size)
        self.started_at = started_at
        self.stopped_at: Optional[float] = None
        self.active = True
        self.hops: list = []
        self.fluid_hops: list = []
        self.sink_node = None
        self.offered_bytes = 0.0
        self.delivered_bytes = 0.0
        self.dropped_bytes = 0.0
        # Crossover injection state (auto mode).
        self.inject_rate_bps = 0.0
        self.inject_device = None
        self._injecting = False
        self._inject_started = False
        # Captured per-epoch by the solver.
        self._seg_latency = 0.0
        self._seg_sink = None

    @property
    def offered_packets(self) -> int:
        """Deterministic packet count for the offered byte volume."""
        if self.packet_size <= 0:
            return 0
        return int(self.offered_bytes / self.packet_size + 0.5)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "active" if self.active else "stopped"
        return (
            f"<FluidFlow #{self.flow_id} {self.rate_bps:.0f}bps "
            f"{self.packet_size}B {state}>"
        )


class _HopSlot:
    """Persistent per-(queue, flow) fluid state: backlog bytes plus the
    fractional-packet remainders that keep integer counters drift-free."""

    __slots__ = ("backlog", "drop_rem", "tx_rem", "loss_rem", "down_rem")

    def __init__(self):
        self.backlog = 0.0
        self.drop_rem = 0.0
        self.tx_rem = 0.0
        self.loss_rem = 0.0
        self.down_rem = 0.0


class _GroupPlan:
    """One queue's solved segment: capacity/loss captured at the epoch
    (immune to mid-segment mutation order) plus its member flows."""

    __slots__ = ("device", "cap_bps", "loss_factor", "max_backlog_bytes",
                 "members")

    def __init__(self, device, cap_bps: float, loss_factor: float):
        self.device = device
        self.cap_bps = cap_bps
        self.loss_factor = loss_factor
        self.max_backlog_bytes = 0.0
        self.members: List[FluidFlow] = []


class FlowEngine:
    """Piecewise-constant rate solver for :class:`FluidFlow` traffic.

    Lazily integrates: nothing is scheduled for a steady flow (``all``
    mode schedules *zero* events); state only advances when an epoch —
    :meth:`start_flow`, :meth:`stop_flow`, :meth:`on_link_change`, or a
    final :meth:`flush` — closes the current constant-rate segment.
    """

    def __init__(self, sim, mode: str = "all", train: int = CROSSOVER_TRAIN):
        if mode not in FLOW_MODES or mode == "off":
            raise ValueError(f"flow engine mode must be 'auto' or 'all', got {mode!r}")
        self.sim = sim
        self.mode = mode
        self.train = max(1, int(train))
        self.flows: List[FluidFlow] = []
        self.finished: List[FluidFlow] = []
        self.epochs = 0
        self._flow_ids = itertools.count(1)
        self._seg_start = sim.now
        #: solved plan: one list of _GroupPlan per hop position
        self._plan: List[List[_GroupPlan]] = []
        #: per-device per-flow fluid state (insertion-ordered, never sorted)
        self._hop_states: Dict[object, Dict[FluidFlow, _HopSlot]] = {}
        obs = sim.obs
        self._tracer = obs.tracer
        self._epoch_counter = obs.metrics.counter(
            "flow_epochs_total", help="fluid-flow re-linearization epochs"
        )
        self._flows_started = obs.metrics.counter(
            "flows_started_total", help="fluid flows ever started"
        )
        obs.metrics.gauge(
            "flows_active", help="fluid flows currently active",
            fn=lambda: len(self.flows),
        )
        sim.flows = self

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def start_flow(self, node, destination: Address, dst_port: int,
                   src_port: int, rate_bps: float, payload_size: int,
                   packet_size: int) -> FluidFlow:
        """Open a flow from ``node`` toward ``destination`` and re-solve."""
        self.advance()
        hops, final_node = resolve_path(node, destination)
        if not hops:
            raise FlowPathError("fluid flows need at least one link hop")
        source = node.ip.primary_address(isinstance(destination, Ipv6Address))
        flow = FluidFlow(
            next(self._flow_ids), node, source, src_port, destination,
            dst_port, rate_bps, packet_size, payload_size, self.sim.now,
        )
        flow.hops = hops
        if self.mode == "all":
            flow.fluid_hops = hops
        else:
            flow.fluid_hops = hops[:-1]
            flow.inject_device = hops[-1]
        flow.sink_node = final_node
        self.flows.append(flow)
        self._flows_started.inc()
        if self._tracer.enabled:
            self._tracer.emit(
                "flow.start", self.sim.now, flow=flow.flow_id,
                src=str(source), rate_bps=round(flow.rate_bps, 3),
                size=flow.packet_size, mode=self.mode,
            )
        self._resolve()
        return flow

    def stop_flow(self, flow: FluidFlow) -> None:
        """Close ``flow``: integrate up to now, flush residual backlog."""
        if not flow.active:
            return
        self.advance()
        flow.active = False
        flow.stopped_at = self.sim.now
        self.flows.remove(flow)
        self.finished.append(flow)
        # Residual queue backlog would drain and arrive shortly after the
        # flood ends in packet mode; credit it at the stop instant (at
        # most one queue's worth of bytes, invisible at 1 s bins).
        residual = 0.0
        for device in flow.fluid_hops:
            slots = self._hop_states.get(device)
            if slots is None:
                continue
            slot = slots.pop(flow, None)
            if slot is not None:
                residual += slot.backlog
        if residual > 0.0 and self.mode == "all":
            sink = getattr(flow.sink_node, "fluid_sink", None)
            if sink is not None:
                at = self.sim.now + flow._seg_latency
                delivered = sink.account_fluid(flow, residual, at, at)
                flow.delivered_bytes += delivered
        if self._tracer.enabled:
            self._tracer.emit(
                "flow.stop", self.sim.now, flow=flow.flow_id,
                offered=round(flow.offered_bytes, 3),
                delivered=round(flow.delivered_bytes, 3),
            )
        self._resolve()

    def on_link_change(self) -> None:
        """Epoch hook for churn/fault link mutations (device up/down,
        data-rate overrides, channel parameter overrides)."""
        if not self.flows:
            return
        self.advance()
        self._resolve()

    #: alias used by fault injection, naming the operation it performs
    relinearize = on_link_change

    def flush(self) -> None:
        """Integrate through ``sim.now`` (end-of-run settlement)."""
        self.advance()

    def fingerprint_state(self) -> dict:
        """Deterministic engine state — epochs, every flow's exact byte
        accounting, and all fractional-packet remainder accumulators —
        for the end-state fingerprint.  Read-only: no segment is closed.
        """

        def flow_state(flow: FluidFlow) -> list:
            return [
                flow.flow_id,
                str(flow.src_address),
                flow.src_port,
                flow.dst_port,
                flow.rate_bps,
                flow.packet_size,
                flow.started_at,
                flow.stopped_at,
                flow.active,
                flow.offered_bytes,
                flow.delivered_bytes,
                flow.dropped_bytes,
                flow.inject_rate_bps,
                flow._injecting,
                flow._inject_started,
                flow._seg_latency,
            ]

        hops = []
        for device, slots in self._hop_states.items():
            hops.append([
                getattr(device, "name", type(device).__name__),
                [
                    [flow.flow_id, slot.backlog, slot.drop_rem, slot.tx_rem,
                     slot.loss_rem, slot.down_rem]
                    for flow, slot in slots.items()
                ],
            ])
        return {
            "mode": self.mode,
            "epochs": self.epochs,
            "seg_start": self._seg_start,
            "active": [flow_state(flow) for flow in self.flows],
            "finished": [flow_state(flow) for flow in self.finished],
            "hops": hops,
        }

    # ------------------------------------------------------------------
    # Segment integration
    # ------------------------------------------------------------------
    def advance(self, now: Optional[float] = None) -> None:
        """Finalize the constant-rate segment from the last epoch to
        ``now`` under the plan captured at that epoch."""
        if now is None:
            now = self.sim.now
        dt = now - self._seg_start
        if dt <= 0.0:
            return
        self._integrate(self._seg_start, now)
        self._seg_start = now

    def _integrate(self, t0: float, t1: float) -> None:
        dt = t1 - t0
        if not self.flows:
            return
        # Bytes each flow pushes into its first hop this segment; the
        # cascade below thins the carry hop by hop.
        carry: Dict[FluidFlow, float] = {}
        for flow in self.flows:
            nbytes = flow.rate_bps * dt / 8.0
            flow.offered_bytes += nbytes
            carry[flow] = nbytes
        for groups in self._plan:
            for group in groups:
                self._integrate_group(group, carry, dt)
        if self.mode != "all":
            return
        for flow in self.flows:
            nbytes = carry.get(flow, 0.0)
            if nbytes <= 0.0:
                continue
            sink = flow._seg_sink
            if sink is None:
                continue
            latency = flow._seg_latency
            delivered = sink.account_fluid(
                flow, nbytes, t0 + latency, t1 + latency
            )
            flow.delivered_bytes += delivered

    def _integrate_group(self, group: _GroupPlan,
                         carry: Dict[FluidFlow, float], dt: float) -> None:
        device = group.device
        slots = self._hop_states.setdefault(device, {})
        demand = 0.0
        total_in = 0.0
        for flow in group.members:
            slot = slots.get(flow)
            if slot is None:
                slot = slots[flow] = _HopSlot()
            inflow = carry.get(flow, 0.0)
            demand += inflow
            total_in += inflow + slot.backlog
        if total_in <= 0.0:
            return
        if group.cap_bps <= 0.0:
            # Link down: everything offered (and any stranded backlog)
            # is lost exactly as the packet path's drops_down accounting.
            for flow in group.members:
                slot = slots[flow]
                lost = carry.get(flow, 0.0) + slot.backlog
                slot.backlog = 0.0
                carry[flow] = 0.0
                if lost <= 0.0:
                    continue
                flow.dropped_bytes += lost
                slot.down_rem += lost / flow.packet_size
                whole = int(slot.down_rem)
                if whole:
                    slot.down_rem -= whole
                    device.drops_down += whole
            return
        cap_bytes = group.cap_bps * dt / 8.0
        out_total = min(cap_bytes, total_in)
        leftover = total_in - out_total
        new_backlog_total = min(group.max_backlog_bytes, leftover)
        dropped_total = leftover - new_backlog_total
        queue = getattr(device, "queue", None)
        channel = device.channel
        tx_packets = 0
        tx_bytes = 0
        carried_packets = 0
        carried_bytes = 0
        lost_packets = 0
        for flow in group.members:
            slot = slots[flow]
            flow_in = carry.get(flow, 0.0) + slot.backlog
            if flow_in <= 0.0:
                carry[flow] = 0.0
                continue
            share = flow_in / total_in
            out_flow = out_total * share
            slot.backlog = new_backlog_total * share
            dropped_flow = dropped_total * share
            passed_flow = out_flow * group.loss_factor
            lost_flow = out_flow - passed_flow
            carry[flow] = passed_flow
            size = flow.packet_size
            if dropped_flow > 0.0:
                flow.dropped_bytes += dropped_flow
                slot.drop_rem += dropped_flow / size
                whole = int(slot.drop_rem)
                if whole and queue is not None:
                    slot.drop_rem -= whole
                    queue.fluid_drop(whole, size, "overflow_fluid")
            if out_flow > 0.0:
                slot.tx_rem += out_flow / size
                whole = int(slot.tx_rem)
                if whole:
                    slot.tx_rem -= whole
                    tx_packets += whole
                    tx_bytes += whole * size
            if lost_flow > 0.0:
                flow.dropped_bytes += lost_flow
                slot.loss_rem += lost_flow / size
                whole = int(slot.loss_rem)
                if whole:
                    slot.loss_rem -= whole
                    lost_packets += whole
        if tx_packets:
            device.tx_packets += tx_packets
            device.tx_bytes += tx_bytes
            carried_packets = tx_packets - lost_packets
            carried_bytes = tx_bytes - lost_packets * (
                tx_bytes // tx_packets if tx_packets else 0
            )
        if channel is not None and (carried_packets or lost_packets):
            channel.fluid_carry(carried_packets, carried_bytes, lost_packets)

    # ------------------------------------------------------------------
    # Epoch solve
    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        """Capture a new piecewise-constant plan from current link state:
        per-queue capacity/loss/backlog-cap plus rate-based pass
        fractions (the injector rates for ``auto`` crossover)."""
        self.epochs += 1
        self._epoch_counter.inc()
        plan: List[List[_GroupPlan]] = []
        rate: Dict[FluidFlow, float] = {}
        max_hops = 0
        for flow in self.flows:
            rate[flow] = flow.rate_bps
            if len(flow.fluid_hops) > max_hops:
                max_hops = len(flow.fluid_hops)
        for position in range(max_hops):
            groups: Dict[object, _GroupPlan] = {}
            for flow in self.flows:
                if position >= len(flow.fluid_hops):
                    continue
                device = flow.fluid_hops[position]
                group = groups.get(device)
                if group is None:
                    channel = device.channel
                    loss = channel.loss_rate if channel is not None else 0.0
                    cap = device.data_rate_bps if device.up else 0.0
                    group = _GroupPlan(device, cap, 1.0 - loss)
                    groups[device] = group
                group.members.append(flow)
            group_list = list(groups.values())
            for group in group_list:
                demand = 0.0
                weighted_size = 0.0
                for flow in group.members:
                    demand += rate[flow]
                    weighted_size += rate[flow] * flow.packet_size
                avg_size = (
                    weighted_size / demand if demand > 0.0
                    else float(group.members[0].packet_size)
                )
                queue = getattr(group.device, "queue", None)
                if queue is not None:
                    max_backlog = queue.max_packets * avg_size
                    if queue.max_bytes is not None:
                        max_backlog = min(max_backlog, float(queue.max_bytes))
                else:
                    max_backlog = 0.0
                group.max_backlog_bytes = max_backlog
                if group.cap_bps <= 0.0:
                    pass_fraction = 0.0
                elif demand > group.cap_bps > 0.0:
                    pass_fraction = group.cap_bps / demand
                else:
                    pass_fraction = 1.0
                pass_fraction *= group.loss_factor
                for flow in group.members:
                    rate[flow] *= pass_fraction
            plan.append(group_list)
        self._plan = plan
        for flow in self.flows:
            latency = 0.0
            for device in flow.fluid_hops:
                if device.channel is not None:
                    latency += device.channel.delay
            flow._seg_latency = latency
            flow._seg_sink = getattr(flow.sink_node, "fluid_sink", None)
        if self.mode == "auto":
            for flow in self.flows:
                flow.inject_rate_bps = rate[flow]
                self._ensure_injector(flow)
        if self._tracer.enabled:
            self._tracer.emit(
                "flow.epoch", self.sim.now, flows=len(self.flows),
                epoch=self.epochs,
            )

    # ------------------------------------------------------------------
    # Crossover injection (auto mode)
    # ------------------------------------------------------------------
    def _ensure_injector(self, flow: FluidFlow) -> None:
        """(Re)start the packet-train injector feeding the crossover hop."""
        if flow._injecting or flow.inject_rate_bps <= 0.0 or not flow.active:
            return
        flow._injecting = True
        if flow._inject_started:
            delay = self._inject_interval(flow)
        else:
            # First train reaches the bottleneck after the upstream
            # propagation latency, like the packet path's first packet.
            flow._inject_started = True
            delay = flow._seg_latency
        self.sim.schedule_bare(delay, self._inject, flow)

    def _inject_interval(self, flow: FluidFlow) -> float:
        return self.train * flow.packet_size * 8.0 / flow.inject_rate_bps

    def _inject(self, flow: FluidFlow) -> None:
        if not flow.active or flow.inject_rate_bps <= 0.0:
            flow._injecting = False
            return
        packet = PacketTrain(flow.payload_size, self.train,
                             created_at=self.sim.now)
        packet.add_header(UdpHeader(flow.src_port, flow.dst_port))
        packet.add_header(
            ip_header_for(flow.src_address, flow.dst_address, PROTO_UDP, 63)
        )
        device = flow.inject_device
        if device.send(packet):
            flow.delivered_bytes += packet.size * packet.count
        self.sim.schedule_bare(self._inject_interval(flow), self._inject, flow)

    # ------------------------------------------------------------------
    # Introspection (tests, reports)
    # ------------------------------------------------------------------
    def queue_backlog_bytes(self, device) -> float:
        """Current fluid backlog at ``device``'s queue (the queue-depth
        trajectory sampled at the last epoch boundary)."""
        slots = self._hop_states.get(device)
        if not slots:
            return 0.0
        total = 0.0
        for slot in slots.values():
            total += slot.backlog
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<FlowEngine mode={self.mode} flows={len(self.flows)} "
            f"epochs={self.epochs}>"
        )
