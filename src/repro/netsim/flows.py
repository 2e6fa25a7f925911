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
drain) and a drop fraction.  A 100-second flood that would schedule
millions of packet events costs a few dozen epoch solves.

Every device that carries flows keeps one persistent *group*: the
aggregate of its member flows, integrated lazily.  An epoch touches
only the groups on the changed flow's path, or the changed link's
group and those downstream of it, so it costs O(path length) rather
than O(active flows).  A group's inflow is its members' rate-based
upstream output (rate × the upstream pass fractions).  The last hop's
group credits the TServer :class:`~repro.netsim.sink.PacketSink` once
per segment, into the same per-second ``bytes_per_bin`` histogram the
packet path fills; each flow's own totals (offered, delivered and
dropped bytes, its NetFlow record and packet count) are settled from
per-group cumulative indices when it stops and at :meth:`FlowEngine.flush`.
Integer counters (queue drops, device tx, channel loss, ``drops_down``,
sink bins) carry their fractional remainders per group, so totals never
drift.

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
fractions (no RNG is consumed), a stopping flow's residual queue
backlog is credited to the sink at the stop instant, and what a shared
or backlogged upstream queue forwards beyond (or short of) its members'
rate-based output joins the next queue's open segment when the upstream
queue is integrated, which always happens before the next queue is.
"""

from __future__ import annotations

import itertools
import math
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

#: a group's excess-decay product starts a new generation below this
_DECAY_FLOOR = 1e-4

#: excess bytes below this have drained
_NEGLIGIBLE = 1e-9


class FlowPathError(RuntimeError):
    """Raised when a fluid path to the destination cannot be resolved."""


def resolve_path(node, destination: Address) -> Tuple[list, object]:
    """Static route walk from ``node`` to the node owning ``destination``.

    Returns ``(hops, final_node)`` where ``hops`` is the ordered list of
    egress :class:`~repro.netsim.netdevice.NetDevice`\\ s the traffic
    serializes through (each hop's group also watches the device at the
    far end of its link).  Routing in the star (and any static host-route
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
    delivered and dropped byte totals are settled when the flow stops
    and at :meth:`FlowEngine.flush`; ``offered_packets`` quantizes
    deterministically.
    """

    __slots__ = (
        "flow_id", "node", "src_address", "src_port", "dst_address",
        "dst_port", "rate_bps", "packet_size", "payload_size",
        "started_at", "stopped_at", "active", "hops", "fluid_hops",
        "sink_node", "offered_bytes", "delivered_bytes", "dropped_bytes",
        "inject_rate_bps", "inject_device", "_injecting", "_inject_started",
        "latency", "members",
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
        #: propagation delay summed over the fluid hops
        self.latency = 0.0
        #: one _Member per fluid hop, in path order
        self.members: List[_Member] = []

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


class _Group:
    """One device's persistent fluid state: the aggregate of the flows it
    carries, integrated segment by segment under the plan captured at
    its last solve.

    Per-flow totals are never integrated here.  The group keeps
    cumulative indices per unit of inflow rate instead: what a member
    present since the group was created would have forwarded (``fwd``),
    lost to queue drops, channel loss or a down link (``lost``) and, at
    a last hop whose sink is stopped, sent nowhere (``unr``), plus that
    member's backlog share ``b``.  A member's totals over a stretch of
    constant rate are then ``rate × Δindex``.  A member whose backlog
    share differs from ``rate × b`` (it joined a non-empty queue, its
    rate changed, or upstream drained into it) carries the difference as
    an *excess*.  An excess leaves the queue in the same proportions as
    the backlog, so one decay product per group (``decay``, with the
    running sums ``wf``/``wl``/``wu`` that split it) settles every
    member's excess in O(1).  A generation closes, and ``decay`` restarts
    at 1, when it falls below :data:`_DECAY_FLOOR`; ``gens`` keeps each
    closed generation's final ``(decay, wf, wl, wu)``.
    """

    __slots__ = (
        "device", "depth", "ingress", "peer", "members", "rates", "sizes",
        "transit", "classes", "shares", "term_rate", "rate", "size", "cap",
        "ingress_up", "loss_factor", "max_backlog", "pass_fraction", "sink",
        "app", "t", "backlog", "b", "fwd", "lost", "unr",
        "gen", "decay", "wf", "wl", "wu", "gens",
        "drop_rem", "tx_rem", "loss_rem", "down_rem", "ingress_rem", "unr_rem",
    )

    def __init__(self, device, depth: int, now: float):
        self.device = device
        #: the device's hop index on its members' paths (upstream first)
        self.depth = depth
        #: the device at the far end of this device's link, and its node
        self.ingress = device.channel.peer_of(device)
        self.peer = self.ingress.node
        #: members in start order, their inflow rates (bps) and the
        #: count of members per packet size, for the aggregate solve
        self.members: Dict[FluidFlow, _Member] = {}
        self.rates: Dict[FluidFlow, float] = {}
        self.sizes: Dict[int, int] = {}
        #: members whose output feeds a rate-based consumer (the next
        #: hop's group, or the crossover injector in auto mode)
        self.transit: Dict[FluidFlow, _Member] = {}
        #: last-hop members by path latency: latency -> {flow: rate}
        self.classes: Dict[float, Dict[FluidFlow, float]] = {}
        # Plan captured at the last solve.
        self.shares: List[Tuple[float, float]] = []
        self.term_rate = 0.0
        self.rate = 0.0
        self.size = 0.0
        self.cap = 0.0
        self.ingress_up = True
        self.loss_factor = 1.0
        self.max_backlog = 0.0
        self.pass_fraction = 0.0
        self.sink = None
        #: the last started sink seen at the peer (per-flow records)
        self.app = None
        # Aggregate state and indices.
        self.t = now
        self.backlog = 0.0
        self.b = 0.0
        self.fwd = 0.0
        self.lost = 0.0
        self.unr = 0.0
        self.gen = 0
        self.decay = 1.0
        self.wf = 0.0
        self.wl = 0.0
        self.wu = 0.0
        self.gens: List[Tuple[float, float, float, float]] = []
        # Fractional-packet remainders of the integer counters.
        self.drop_rem = 0.0
        self.tx_rem = 0.0
        self.loss_rem = 0.0
        self.down_rem = 0.0
        self.ingress_rem = 0.0
        self.unr_rem = 0.0


class _Member:
    """One flow's place in one group: its inflow rate there and the
    group's indices when it was last settled."""

    __slots__ = (
        "flow", "group", "next", "terminal", "rate", "pass_fraction",
        "coef", "t", "fwd", "lost", "unr", "gen", "wf", "wl", "wu",
    )

    def __init__(self, flow: FluidFlow, group: _Group, now: float):
        self.flow = flow
        self.group = group
        #: the flow's member at its next fluid hop
        self.next: Optional[_Member] = None
        #: last hop in ``all`` mode: its output reaches the sink
        self.terminal = False
        self.rate = 0.0
        #: the group's pass fraction the next hop's rate was set from
        self.pass_fraction = 0.0
        #: excess bytes / the group's decay product at the last settle
        self.coef = 0.0
        self._mark(now)

    def _mark(self, now: float) -> None:
        group = self.group
        self.t = now
        self.fwd = group.fwd
        self.lost = group.lost
        self.unr = group.unr
        self.gen = group.gen
        self.wf = group.wf
        self.wl = group.wl
        self.wu = group.wu

    def backlog(self) -> float:
        """This flow's bytes queued at the group (right after a settle)."""
        group = self.group
        return self.rate * group.b + self.coef * group.decay

    def settle(self, now: float) -> Tuple[float, float, float]:
        """Bytes forwarded, lost and sent nowhere since the last settle
        (the group is integrated through ``now``); restarts the stretch."""
        group = self.group
        rate = self.rate
        fwd = rate * (group.fwd - self.fwd)
        lost = rate * (group.lost - self.lost)
        unr = rate * (group.unr - self.unr)
        coef = self.coef
        if coef:
            gen, wf, wl, wu = self.gen, self.wf, self.wl, self.wu
            while gen < group.gen:
                decay, end_wf, end_wl, end_wu = group.gens[gen]
                fwd += coef * (end_wf - wf)
                lost += coef * (end_wl - wl)
                unr += coef * (end_wu - wu)
                coef *= decay
                if -_NEGLIGIBLE < coef < _NEGLIGIBLE:
                    coef = 0.0
                    break
                gen += 1
                wf = wl = wu = 0.0
            else:
                fwd += coef * (group.wf - wf)
                lost += coef * (group.wl - wl)
                unr += coef * (group.wu - wu)
            self.coef = coef
        self._mark(now)
        return fwd, lost, unr


class FlowEngine:
    """Piecewise-constant rate solver for :class:`FluidFlow` traffic.

    Lazily integrates: nothing is scheduled for a steady flow (``all``
    mode schedules *zero* events).  Each device carrying flows has one
    persistent group; an epoch — :meth:`start_flow`, :meth:`stop_flow`
    or :meth:`on_link_change` — integrates and re-solves only the groups
    on the changed flow's path, or the changed link's group and those
    downstream of it.  Each flow's totals are settled at its stop and
    at the final :meth:`flush`.
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
        #: one group per device that ever carried a flow (creation order)
        self._groups: Dict[object, _Group] = {}
        #: transit groups whose members may forward other than their
        #: rate-based shares (shared or backlogged), used as a set
        self._carriers: Dict[_Group, None] = {}
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
        """Open a flow from ``node`` toward ``destination``: it joins the
        group of each fluid hop on its path, and those are re-solved."""
        hops, final_node = resolve_path(node, destination)
        if not hops:
            raise FlowPathError("fluid flows need at least one link hop")
        now = self.sim.now
        source = node.ip.primary_address(isinstance(destination, Ipv6Address))
        flow = FluidFlow(
            next(self._flow_ids), node, source, src_port, destination,
            dst_port, rate_bps, packet_size, payload_size, now,
        )
        flow.hops = hops
        if self.mode == "all":
            flow.fluid_hops = hops
        else:
            flow.fluid_hops = hops[:-1]
            flow.inject_device = hops[-1]
        flow.sink_node = final_node
        flow.latency = self._path_latency(flow)
        self.flows.append(flow)
        self._flows_started.inc()
        if self._tracer.enabled:
            self._tracer.emit(
                "flow.start", now, flow=flow.flow_id,
                src=str(source), rate_bps=round(flow.rate_bps, 3),
                size=flow.packet_size, mode=self.mode,
            )
        groups = []
        previous = None
        for depth, device in enumerate(flow.fluid_hops):
            group = self._groups.get(device)
            if group is None:
                group = self._groups[device] = _Group(device, depth, now)
            else:
                group.depth = max(group.depth, depth)
                self._touch(group, now)
            member = _Member(flow, group, now)
            group.members[flow] = member
            group.rates[flow] = 0.0
            group.sizes[flow.packet_size] = group.sizes.get(flow.packet_size, 0) + 1
            if previous is not None:
                previous.next = member
                previous.group.transit[flow] = previous
            flow.members.append(member)
            groups.append(group)
            previous = member
        changed: List[FluidFlow] = []
        if previous is None:
            # No fluid hop before the crossover: inject at the wire rate.
            flow.inject_rate_bps = flow.rate_bps
            changed.append(flow)
        else:
            if self.mode == "all":
                previous.terminal = True
                previous.group.classes.setdefault(flow.latency, {})[flow] = 0.0
            else:
                previous.group.transit[flow] = previous
            for group in groups:
                self._mark_carrier(group)
            self._set_rate(flow.members[0], flow.rate_bps)
            self._resolve(groups, changed)
        self._epoch(changed)
        return flow

    def stop_flow(self, flow: FluidFlow) -> None:
        """Close ``flow``: settle its totals through now, credit its
        residual backlog, and re-solve the groups it leaves."""
        if not flow.active:
            return
        now = self.sim.now
        if flow.members:
            self._settle_chain(flow.members[0], now)
        flow.active = False
        flow.stopped_at = now
        flow.offered_bytes = flow.rate_bps * (now - flow.started_at) / 8.0
        self.flows.remove(flow)
        self.finished.append(flow)
        # Residual queue backlog would drain and arrive shortly after the
        # flood ends in packet mode; credit it at the stop instant (at
        # most one queue's worth of bytes, invisible at 1 s bins).
        residual = 0.0
        for member in flow.members:
            backlog = member.backlog()
            member.group.backlog -= backlog
            residual += backlog
            self._leave(member)
        if residual and self.mode == "all":
            last = flow.members[-1].group
            if last.sink is None:
                flow.dropped_bytes += residual
                self._unreachable(last, residual)
            else:
                at = now + flow.latency
                last.sink.account_fluid(residual, at, at)
                self._deliver(flow, residual, now, now)
        if self._tracer.enabled:
            self._tracer.emit(
                "flow.stop", now, flow=flow.flow_id,
                offered=round(flow.offered_bytes, 3),
                delivered=round(flow.delivered_bytes, 3),
            )
        changed: List[FluidFlow] = []
        self._resolve([member.group for member in flow.members], changed)
        self._epoch(changed)

    def on_link_change(self, link=None) -> None:
        """Epoch hook for link mutations: ``link`` is the device (up, down,
        data-rate override) or channel (parameter override) that changed.
        Without one (sink start/stop, the fault injector) every group is
        re-solved."""
        if not self.flows:
            return
        now = self.sim.now
        if link is None:
            groups = list(self._groups.values())
            moved = self.flows
        else:
            # A channel names both of its ends.  A device's state governs
            # what it sends and what its channel peer sends into it, so
            # both of its link's groups are re-solved too.  Only a channel
            # override can change a path's latency.
            ends = getattr(link, "devices", None)
            devices = ends
            if devices is None:
                channel = link.channel
                devices = (link,) if channel is None else (link, channel.peer_of(link))
            groups = [
                self._groups[device] for device in devices
                if device in self._groups
            ]
            moved = [flow for group in groups for flow in group.members] if ends else []
        for group in groups:
            self._touch(group, now)
        for flow in moved:
            group = self._refresh_latency(flow, now)
            if group is not None and group not in groups:
                groups.append(group)
        changed: List[FluidFlow] = []
        self._resolve(groups, changed)
        self._epoch(changed)

    #: alias used by fault injection, naming the operation it performs
    relinearize = on_link_change

    def flush(self) -> None:
        """End-of-run settlement: integrate every group through
        ``sim.now`` and settle each active flow's totals."""
        self.advance()
        now = self.sim.now
        for flow in self.flows:
            if flow.members:
                self._settle_chain(flow.members[0], now)
            flow.offered_bytes = flow.rate_bps * (now - flow.started_at) / 8.0

    def advance(self, now: Optional[float] = None) -> None:
        """Integrate every group through ``now`` under its captured plan."""
        if now is None:
            now = self.sim.now
        for group in self._groups.values():
            self._touch(group, now)

    def fingerprint_state(self) -> dict:
        """Deterministic engine state — epochs, every flow's settled byte
        accounting, and each group's state, indices and remainders — for
        the end-state fingerprint.  Read-only: no segment is closed.
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
                flow.latency,
            ]

        groups = [
            [
                getattr(device, "name", type(device).__name__),
                [flow.flow_id for flow in group.members],
                group.t, group.backlog, group.b, group.fwd, group.lost,
                group.unr, group.gen, group.decay, group.drop_rem,
                group.tx_rem, group.loss_rem, group.down_rem,
                group.ingress_rem, group.unr_rem,
            ]
            for device, group in self._groups.items()
        ]
        return {
            "mode": self.mode,
            "epochs": self.epochs,
            "active": [flow_state(flow) for flow in self.flows],
            "finished": [flow_state(flow) for flow in self.finished],
            "groups": groups,
        }

    # ------------------------------------------------------------------
    # Segment integration
    # ------------------------------------------------------------------
    def _touch(self, group: _Group, now: float) -> None:
        if group.t < now:
            if group.depth and self._carriers:
                # What shared upstream queues forward beyond (or short
                # of) their rate-based output reaches this one first, to
                # be served under the plan it arrived in.
                for carrier in list(self._carriers):
                    if carrier.depth < group.depth:
                        self._touch(carrier, now)
            self._integrate_group(group, now)

    def _mark_carrier(self, group: _Group) -> None:
        if group.transit and (len(group.members) > 1 or group.backlog):
            self._carriers[group] = None
        else:
            self._carriers.pop(group, None)

    def _integrate_group(self, group: _Group, now: float) -> None:
        """Close ``group``'s constant-rate segment ``[group.t, now)``:
        ``out = min(cap·dt/8, inflow + backlog)``, the backlog capped at
        one queue of the members' mean packet size, the rest dropped."""
        t0 = group.t
        dt = now - t0
        group.t = now
        # Bytes in play for one unit (bps) of member inflow rate.
        unit = dt / 8.0 + group.b
        total = group.rate * dt / 8.0 + group.backlog
        if total <= 0.0:
            # Nothing to serve: the segment's inflow (if any) queues.
            group.backlog = total
            if group.rate > 0.0:
                group.b = unit
            self._mark_carrier(group)
            return
        device = group.device
        size = group.size
        if group.cap <= 0.0:
            # Link down: everything offered and any stranded backlog is
            # lost exactly as the packet path's drops_down accounting.
            group.down_rem += total / size
            whole = int(group.down_rem)
            if whole:
                group.down_rem -= whole
                device.drops_down += whole
            passed = 0.0
            lost = total
            backlog = 0.0
        else:
            out = min(group.cap * dt / 8.0, total)
            leftover = total - out
            backlog = min(group.max_backlog, leftover)
            dropped = leftover - backlog
            passed = out * group.loss_factor
            lost = dropped + (out - passed)
            self._count(group, out, dropped, out - passed)
            if not group.ingress_up:
                # The far end is down: what the link carries is lost
                # there, as the packet path's NetDevice.receive drops it.
                group.ingress_rem += passed / size
                whole = int(group.ingress_rem)
                if whole:
                    group.ingress_rem -= whole
                    group.ingress.drops_down += whole
                lost += passed
                passed = 0.0
        group.backlog = backlog
        fwd = passed / total
        gone = lost / total
        keep = backlog / total
        decay = group.decay
        group.fwd += fwd * unit
        group.lost += gone * unit
        group.b = keep * unit
        group.wf += fwd * decay
        group.wl += gone * decay
        if passed > 0.0 and group.classes:
            if group.sink is None:
                group.unr += fwd * unit
                group.wu += fwd * decay
            self._credit(group, passed, t0, now)
        decay *= keep
        if decay < _DECAY_FLOOR:
            group.gens.append((decay, group.wf, group.wl, group.wu))
            group.gen += 1
            decay = 1.0
            group.wf = group.wl = group.wu = 0.0
        group.decay = decay
        if group.transit and (
            len(group.members) > 1
            or abs(passed - group.rate * group.pass_fraction * dt / 8.0)
            > _NEGLIGIBLE
        ):
            # Members' outputs differ from their rate-based shares (a
            # shared queue, or a drain): hand every difference on now,
            # all into the next hops' open segments, so downstream serves
            # this segment's real output and the differences together.
            for member in group.transit.values():
                if member.next is not None:
                    t0 = member.t
                    carry = self._account(member, t0, now, *member.settle(now))
                    if carry:
                        self._enqueue(member.next, carry)
        self._mark_carrier(group)

    def _count(self, group: _Group, out: float, dropped: float,
               lost: float) -> None:
        """Whole-packet queue drops, device tx and channel carry/loss."""
        device = group.device
        size = group.size
        wire = int(size + 0.5)
        if dropped > 0.0:
            group.drop_rem += dropped / size
            whole = int(group.drop_rem)
            queue = getattr(device, "queue", None)
            if whole and queue is not None:
                group.drop_rem -= whole
                queue.fluid_drop(whole, wire, "overflow_fluid")
        tx_packets = 0
        lost_packets = 0
        if out > 0.0:
            group.tx_rem += out / size
            tx_packets = int(group.tx_rem)
            group.tx_rem -= tx_packets
        if lost > 0.0:
            group.loss_rem += lost / size
            lost_packets = int(group.loss_rem)
            group.loss_rem -= lost_packets
        carried_packets = 0
        carried_bytes = 0
        if tx_packets:
            tx_bytes = int(tx_packets * size + 0.5)
            device.tx_packets += tx_packets
            device.tx_bytes += tx_bytes
            carried_packets = tx_packets - lost_packets
            carried_bytes = tx_bytes - lost_packets * (tx_bytes // tx_packets)
        channel = device.channel
        if channel is not None and (carried_packets or lost_packets):
            channel.fluid_carry(carried_packets, carried_bytes, lost_packets)

    def _credit(self, group: _Group, passed: float, t0: float,
                t1: float) -> None:
        """Hand a last-hop segment's output to the sink: one credit per
        distinct member path latency, or unreachable while it is stopped."""
        if group.transit:
            # Mixed last-hop and transit members: split by inflow rate.
            passed = passed * group.term_rate / group.rate if group.rate > 0.0 else 0.0
        if group.sink is None:
            self._unreachable(group, passed)
            return
        shares = group.shares
        if len(shares) == 1 or group.term_rate <= 0.0:
            latency = shares[0][0]
            group.sink.account_fluid(passed, t0 + latency, t1 + latency)
            return
        for latency, rate in shares:
            group.sink.account_fluid(
                passed * rate / group.term_rate, t0 + latency, t1 + latency
            )

    def _unreachable(self, group: _Group, nbytes: float) -> None:
        """Bytes that reached a stopped sink: whole packets count as
        ``udp.rx_unreachable`` at its node, as on the packet path."""
        group.unr_rem += nbytes / group.size
        whole = int(group.unr_rem)
        if whole > 0:
            group.unr_rem -= whole
            group.peer.udp.rx_unreachable += whole

    # ------------------------------------------------------------------
    # Epoch solve
    # ------------------------------------------------------------------
    def _resolve(self, groups: list, changed: List[FluidFlow]) -> None:
        """Re-capture each group's plan, upstream first, and carry every
        changed output rate to the group downstream, which is re-solved
        in turn.  Flows whose injection rate changed go to ``changed``."""
        now = self.sim.now
        queue: list = []
        queued = set()
        for group in groups:
            if group not in queued:
                queue.append(group)
                queued.add(group)
        index = 0
        while index < len(queue):
            group = queue[index]
            index += 1
            queued.discard(group)
            self._capture(group)
            pass_fraction = group.pass_fraction
            for flow, member in group.transit.items():
                out = member.rate * pass_fraction
                nxt = member.next
                if nxt is None:
                    if out != flow.inject_rate_bps:
                        flow.inject_rate_bps = out
                        changed.append(flow)
                elif out != nxt.rate or member.pass_fraction != pass_fraction:
                    self._settle_chain(member, now)
                    member.pass_fraction = pass_fraction
                    if out != nxt.rate:
                        self._set_rate(nxt, out)
                        if nxt.group not in queued:
                            queue.append(nxt.group)
                            queued.add(nxt.group)

    def _capture(self, group: _Group) -> None:
        """Capture ``group``'s plan from current link state and membership:
        aggregate inflow, mean packet size, capacity, loss, backlog cap,
        rate-based pass fraction and sink (immune to mutation order)."""
        device = group.device
        rate = math.fsum(group.rates.values())
        group.rate = rate
        sizes = group.sizes
        if len(sizes) == 1:
            group.size = float(next(iter(sizes)))
        elif rate > 0.0:
            # Mixed packet sizes: the rate-weighted mean.
            group.size = math.fsum(
                member.rate * flow.packet_size
                for flow, member in group.members.items()
            ) / rate
        elif sizes:
            group.size = float(next(iter(group.members)).packet_size)
        channel = device.channel
        group.loss_factor = 1.0 - (channel.loss_rate if channel is not None else 0.0)
        cap = device.data_rate_bps if device.up else 0.0
        group.cap = cap
        group.ingress_up = group.ingress.up
        queue = getattr(device, "queue", None)
        if queue is not None:
            max_backlog = queue.max_packets * group.size
            if queue.max_bytes is not None:
                max_backlog = min(max_backlog, float(queue.max_bytes))
        else:
            max_backlog = 0.0
        group.max_backlog = max_backlog
        if cap <= 0.0 or not group.ingress_up:
            pass_fraction = 0.0
        elif rate > cap:
            pass_fraction = cap / rate
        else:
            pass_fraction = 1.0
        group.pass_fraction = pass_fraction * group.loss_factor
        sink = getattr(group.peer, "fluid_sink", None)
        group.sink = sink
        if sink is not None:
            group.app = sink
        shares = [
            (latency, math.fsum(rates.values()))
            for latency, rates in group.classes.items()
        ]
        group.shares = shares
        group.term_rate = math.fsum([rate for _, rate in shares])

    # ------------------------------------------------------------------
    # Membership and settlement
    # ------------------------------------------------------------------
    def _set_rate(self, member: _Member, rate: float) -> None:
        """Change a just-settled member's inflow rate; its queued bytes
        stay, so the difference to ``rate × b`` becomes its excess."""
        group = member.group
        flow = member.flow
        backlog = member.backlog()
        member.rate = rate
        group.rates[flow] = rate
        if member.terminal:
            group.classes[flow.latency][flow] = rate
        member.coef = (backlog - rate * group.b) / group.decay

    def _leave(self, member: _Member) -> None:
        group = member.group
        flow = member.flow
        del group.members[flow]
        del group.rates[flow]
        count = group.sizes[flow.packet_size] - 1
        if count:
            group.sizes[flow.packet_size] = count
        else:
            del group.sizes[flow.packet_size]
        group.transit.pop(flow, None)
        if member.terminal:
            rates = group.classes[flow.latency]
            del rates[flow]
            if not rates:
                del group.classes[flow.latency]
        if not group.members:
            # Only rounding residue can be left behind.
            group.backlog = 0.0
            group.b = 0.0
        self._mark_carrier(group)

    def _settle_chain(self, member: _Member, now: float) -> None:
        """Settle ``member`` and the rest of its flow's path through
        ``now`` into the flow's totals."""
        while member is not None:
            self._touch(member.group, now)
            t0 = member.t
            carry = self._account(member, t0, now, *member.settle(now))
            member = member.next
            if carry:
                self._enqueue(member, carry)

    def _account(self, member: _Member, t0: float, t1: float, fwd: float,
                 lost: float, unr: float) -> float:
        """Book ``member``'s settled stretch ``[t0, t1)`` into its flow's
        totals.  Returns what it forwarded beyond (or short of) the
        rate-based inflow its next hop was credited."""
        flow = member.flow
        flow.dropped_bytes += lost
        if member.next is not None:
            carry = fwd - member.rate * member.pass_fraction * (t1 - t0) / 8.0
            return 0.0 if -_NEGLIGIBLE < carry < _NEGLIGIBLE else carry
        if member.terminal:
            flow.dropped_bytes += unr
            self._deliver(flow, fwd - unr, t0, t1)
        return 0.0

    def _enqueue(self, member: _Member, nbytes: float) -> None:
        """Queue ``nbytes`` more (or fewer) of ``member``'s flow at the
        start of its group's open segment, which then serves them."""
        group = member.group
        if member.t < group.t:
            t0 = member.t
            carry = self._account(member, t0, group.t, *member.settle(group.t))
            if carry:
                self._enqueue(member.next, carry)
        group.backlog += nbytes
        member.coef += nbytes / group.decay
        self._mark_carrier(group)

    def _deliver(self, flow: FluidFlow, nbytes: float, t0: float,
                 t1: float) -> None:
        """Settle ``nbytes`` that reached the sink into the flow's record
        (negative when an upstream shortfall arrived after its credit)."""
        if nbytes == 0.0:
            return
        app = flow.members[-1].group.app
        if app is None:
            return
        latency = flow.latency
        flow.delivered_bytes += app.settle_fluid(
            flow, nbytes, t0 + latency, t1 + latency
        )

    def _path_latency(self, flow: FluidFlow) -> float:
        latency = 0.0
        for device in flow.fluid_hops:
            if device.channel is not None:
                latency += device.channel.delay
        return latency

    def _refresh_latency(self, flow: FluidFlow, now: float) -> Optional[_Group]:
        """Re-read ``flow``'s path latency; returns its last-hop group when
        the flow moved between that group's latency classes."""
        latency = self._path_latency(flow)
        if latency == flow.latency:
            return None
        group = None
        last = flow.members[-1] if flow.members else None
        if last is not None and last.terminal:
            group = last.group
            self._touch(group, now)
            rates = group.classes[flow.latency]
            del rates[flow]
            if not rates:
                del group.classes[flow.latency]
            group.classes.setdefault(latency, {})[flow] = last.rate
        flow.latency = latency
        return group

    def _epoch(self, changed: List[FluidFlow]) -> None:
        self.epochs += 1
        self._epoch_counter.inc()
        if changed:
            # Start order, as the injectors were first scheduled.
            unique = {flow.flow_id: flow for flow in changed}
            for flow_id in sorted(unique):
                self._ensure_injector(unique[flow_id])
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
            delay = flow.latency
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
    def backlog_bytes(self, flow: FluidFlow) -> float:
        """``flow``'s bytes still queued along its path (after
        :meth:`flush`; zero once it has stopped)."""
        if not flow.active:
            return 0.0
        return math.fsum(member.backlog() for member in flow.members)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<FlowEngine mode={self.mode} flows={len(self.flows)} "
            f"epochs={self.epochs}>"
        )
