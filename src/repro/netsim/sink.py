"""The TServer packet sink.

The paper implements TServer as a customized NS-3 node whose sink
application "receives data packets from the compromised Devs and then logs
the overall size of the received data packets in each simulation run"
(§III-C) — i.e. it records attack magnitude.  :class:`PacketSink` does the
same: it captures every UDP datagram arriving at the node (promiscuous
across ports, like a sink behind Wireshark) and bins received bytes per
second, from which :mod:`repro.core.metrics` computes Eq. 2's average
received data rate.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

from repro.netsim.application import Application
from repro.netsim.node import Node


class PacketSink(Application):
    """Receives and accounts all UDP traffic reaching its node."""

    def __init__(self, node: Node, name: str = "tserver-sink", bin_width: float = 1.0):
        super().__init__(node, name)
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        self.bin_width = bin_width
        self.total_packets = 0
        self.total_bytes = 0
        #: received payload+header bytes per time bin (bin index -> bytes)
        self.bytes_per_bin: Dict[int, int] = defaultdict(int)
        #: per-source accounting: (address, port) -> (packets, bytes)
        self.per_source: Dict[Tuple[object, int], list] = {}
        #: NetFlow-style accounting: (src, src_port, dst_port) -> flow dict
        self.flows: Dict[Tuple[object, int, int], dict] = {}
        self.first_packet_time: Optional[float] = None
        self.last_packet_time: Optional[float] = None
        #: per-FluidFlow quantization state: [byte_remainder, packet_remainder]
        self._fluid: Dict[object, list] = {}

    def _do_start(self) -> None:
        udp = self.node.udp
        if udp.default_handler is None:
            udp.set_default_handler(self._on_datagram)
        # A stop only paused the handler chain (the sink's own handler or
        # a defense/capture wrapping it): resume whatever chain is set now,
        # so a defense uninstalled during a stall stays uninstalled.
        udp.pause_default_handler(False)
        # Fluid datapath endpoint: analytic flow arrivals are credited
        # here; sink availability is a rate-change epoch for the solver.
        self.node.fluid_sink = self
        flows = self.sim.flows
        if flows is not None:
            flows.on_link_change()

    def _do_stop(self) -> None:
        self.node.udp.pause_default_handler(True)
        self.node.fluid_sink = None
        flows = self.sim.flows
        if flows is not None:
            flows.on_link_change()

    def _on_datagram(self, packet, udp_header, ip_header) -> None:
        # Wire size as seen by the node: payload + UDP + IP headers
        # (headers were popped on the way up; recompute their cost).
        size = packet.payload_size + udp_header.wire_size + type(ip_header).wire_size
        now = self.sim.now
        count = packet.count
        self.total_packets += count
        self.total_bytes += size * count
        if count == 1:
            first_arrival = now
            self.bytes_per_bin[int(now / self.bin_width)] += size
            if self.first_packet_time is None:
                self.first_packet_time = now
        else:
            # A train arrives as one event; reconstruct each member's
            # arrival so the rate bins stay exact.  When the last hop
            # stamped its serialization start and propagation delay,
            # replay the per-packet path's float-add chain verbatim
            # (start + spacing, member by member, + delay) — backward
            # arithmetic from ``now`` rounds differently and can drop a
            # member into the neighbouring bin.
            spacing = packet.spacing
            delay = packet.link_delay
            bins = self.bytes_per_bin
            width = self.bin_width
            if delay is not None and packet.tx_start is not None:
                t = packet.tx_start
                first_arrival = t + spacing + delay
                for member in range(count):
                    t += spacing
                    bins[int((t + delay) / width)] += size
            else:
                first_arrival = now - (count - 1) * spacing
                for member in range(count):
                    bins[int((first_arrival + member * spacing) / width)] += size
            if self.first_packet_time is None:
                self.first_packet_time = first_arrival
        self.last_packet_time = now
        key = (ip_header.src, udp_header.src_port)
        entry = self.per_source.get(key)
        if entry is None:
            self.per_source[key] = [count, size * count]
        else:
            entry[0] += count
            entry[1] += size * count
        flow_key = (ip_header.src, udp_header.src_port, udp_header.dst_port)
        flow = self.flows.get(flow_key)
        if flow is None:
            self.flows[flow_key] = {
                "dst": getattr(ip_header, "dst", None),
                "packets": count,
                "bytes": size * count,
                "t_first": first_arrival,
                "t_last": now,
            }
        else:
            flow["packets"] += count
            flow["bytes"] += size * count
            flow["t_last"] = now

    # ------------------------------------------------------------------
    # Fluid datapath
    # ------------------------------------------------------------------
    def account_fluid(self, flow, nbytes: float, start: float, end: float) -> int:
        """Credit ``nbytes`` of a :class:`~repro.netsim.flows.FluidFlow`
        arriving uniformly over ``[start, end)``.

        Integrates the flow's byte-rate into the same per-second
        ``bytes_per_bin`` histogram, packet/byte totals, ``per_source``
        and NetFlow ``flows`` records the packet path fills.  Bins get
        integer bytes; fractional remainders persist per flow (in
        ``_fluid``) so totals are exact in expectation with zero drift.
        Returns the integer bytes credited by this call.
        """
        if nbytes <= 0.0:
            return 0
        state = self._fluid.get(flow)
        if state is None:
            state = self._fluid[flow] = [0.0, 0.0]
        width = self.bin_width
        bins = self.bytes_per_bin
        credited = 0
        if end <= start:
            # Instantaneous credit (residual backlog flush at flow stop).
            state[0] += nbytes
            whole = int(state[0])
            if whole:
                state[0] -= whole
                bins[int(start / width)] += whole
                credited = whole
        else:
            rate = nbytes / (end - start)
            t = start
            while t < end:
                bin_index = int(t / width)
                seg_end = (bin_index + 1) * width
                if seg_end > end:
                    seg_end = end
                state[0] += rate * (seg_end - t)
                whole = int(state[0])
                if whole:
                    state[0] -= whole
                    bins[bin_index] += whole
                    credited += whole
                t = seg_end
        if credited == 0:
            return 0
        size = flow.packet_size
        state[1] += credited / size
        packets = int(state[1])
        if packets:
            state[1] -= packets
        self.total_packets += packets
        self.total_bytes += credited
        if self.first_packet_time is None or start < self.first_packet_time:
            self.first_packet_time = start
        if self.last_packet_time is None or end > self.last_packet_time:
            self.last_packet_time = end
        key = (flow.src_address, flow.src_port)
        entry = self.per_source.get(key)
        if entry is None:
            self.per_source[key] = [packets, credited]
        else:
            entry[0] += packets
            entry[1] += credited
        flow_key = (flow.src_address, flow.src_port, flow.dst_port)
        record = self.flows.get(flow_key)
        if record is None:
            self.flows[flow_key] = {
                "dst": flow.dst_address,
                "packets": packets,
                "bytes": credited,
                "t_first": start,
                "t_last": end,
            }
        else:
            record["packets"] += packets
            record["bytes"] += credited
            record["t_last"] = end
        return credited

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def bytes_received_between(self, start: float, end: float) -> int:
        """Total bytes in bins overlapping [start, end)."""
        if end <= start:
            return 0
        first = int(start / self.bin_width)
        last = int(end / self.bin_width)
        return sum(
            self.bytes_per_bin.get(index, 0) for index in range(first, last)
        )

    def rate_series_kbps(self, start: float, end: float):
        """Per-bin received rate (kbps) over [start, end) as a list."""
        first = int(start / self.bin_width)
        last = int(end / self.bin_width)
        factor = 8.0 / 1000.0 / self.bin_width
        return [
            self.bytes_per_bin.get(index, 0) * factor for index in range(first, last)
        ]

    def distinct_sources(self) -> int:
        """Number of distinct (address, port) senders seen."""
        return len(self.per_source)

    def flow_records(self) -> list:
        """NetFlow-style flow records, deterministically ordered.

        One record per (src, src_port, dst_port) with packet/byte totals
        and first/last arrival times — the schema
        :func:`repro.analysis.features.capture_records_from_flows`
        expands back into per-packet form for the feature extractor, and
        the source of each attack train's delivered totals in
        :func:`repro.obs.report.causal_tree`.
        """
        records = []
        ordered = sorted(
            self.flows.items(),
            key=lambda item: (str(item[0][0]), item[0][1], item[0][2]),
        )
        for (src, src_port, dst_port), flow in ordered:
            records.append({
                "src": str(src),
                "src_port": src_port,
                "dst": str(flow["dst"]) if flow["dst"] is not None else "",
                "dst_port": dst_port,
                "protocol": "udp",
                "packets": flow["packets"],
                "bytes": flow["bytes"],
                "t_first": flow["t_first"],
                "t_last": flow["t_last"],
            })
        return records

    def fingerprint_state(self) -> dict:
        """Deterministic histogram/flow/quantizer state for the end-state
        fingerprint (all dict iterations sorted by stable string keys)."""
        return {
            "bin_width": self.bin_width,
            "total_packets": self.total_packets,
            "total_bytes": self.total_bytes,
            "bins": sorted(
                [int(index), count] for index, count in self.bytes_per_bin.items()
            ),
            "per_source": sorted(
                [str(address), port, entry[0], entry[1]]
                for (address, port), entry in self.per_source.items()
            ),
            "flows": self.flow_records(),
            "first": self.first_packet_time,
            "last": self.last_packet_time,
            "fluid": sorted(
                [str(flow.src_address), flow.src_port, flow.dst_port,
                 state[0], state[1]]
                for flow, state in self._fluid.items()
            ),
        }

    def reset(self) -> None:
        """Clear all counters (used between experiment phases)."""
        self.total_packets = 0
        self.total_bytes = 0
        self.bytes_per_bin.clear()
        self.per_source.clear()
        self.flows.clear()
        self.first_packet_time = None
        self.last_packet_time = None
        self._fluid.clear()
