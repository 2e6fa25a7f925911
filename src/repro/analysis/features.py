"""Traffic features for ML-based DDoS detection (use case V-A1).

"Most ML-based DDoS detection or mitigation approaches rely on extracting
features from incoming network traffic (e.g., IP address, traffic rate)
and feeding them into an ML model" (§V-A1).  These are the classic
flow-window features: per time window over a TServer-side capture —
:class:`CapturedPacket` rows, one per datagram TServer's sink receives
(:func:`datagram_record`) — we compute rates, packet-size statistics,
source dispersion and protocol mix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.netsim.headers import PROTO_TCP, PROTO_UDP

FEATURE_NAMES = (
    "packet_rate",          # packets / second
    "byte_rate",            # bytes / second
    "mean_packet_size",
    "std_packet_size",
    "distinct_sources",
    "source_entropy",       # Shannon entropy over source addresses (bits)
    "udp_fraction",
    "tcp_fraction",
    "distinct_dst_ports",
    "top_source_share",     # traffic share of the busiest source
)


@dataclass
class CapturedPacket:
    """One packet-capture record (metadata only, like a pcap header)."""

    time: float
    src: object
    dst: object
    protocol: int
    src_port: int
    dst_port: int
    size: int


def datagram_record(now: float, packet, udp_header, ip_header) -> CapturedPacket:
    """The capture row of one datagram reaching a UDP handler at ``now``.

    ``size`` is the wire size the node saw: payload plus the UDP and IP
    headers, which were popped on the way up.  A packet train gives one
    row for all ``packet.count`` members, so the detection capture,
    which needs one row per packet, refuses trains.
    """
    return CapturedPacket(
        time=now,
        src=ip_header.src,
        dst=ip_header.dst,
        protocol=ip_header.protocol,
        src_port=udp_header.src_port,
        dst_port=udp_header.dst_port,
        size=packet.payload_size + udp_header.wire_size + type(ip_header).wire_size,
    )


def _entropy(counts: Sequence[int]) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count:
            probability = count / total
            entropy -= probability * math.log2(probability)
    return entropy


def window_features(records: Sequence[CapturedPacket], window: float) -> List[float]:
    """The feature vector for one window of captured packets."""
    if not records:
        return [0.0] * len(FEATURE_NAMES)
    sizes = np.array([record.size for record in records], dtype=float)
    sources = Counter(str(record.src) for record in records)
    ports = {record.dst_port for record in records}
    protocols = Counter(record.protocol for record in records)
    total = len(records)
    return [
        total / window,
        float(sizes.sum()) / window,
        float(sizes.mean()),
        float(sizes.std()),
        float(len(sources)),
        _entropy(list(sources.values())),
        protocols.get(PROTO_UDP, 0) / total,
        protocols.get(PROTO_TCP, 0) / total,
        float(len(ports)),
        max(sources.values()) / total,
    ]


def capture_records_from_flows(flows: Sequence[dict]) -> List[CapturedPacket]:
    """Expand ``repro report --flows`` records back into per-packet rows.

    Each flow record aggregates one (src, src_port, dst_port) stream into
    packet/byte totals plus first/last arrival times.  Reconstruction
    spaces the packets evenly across ``[t_first, t_last]`` with the mean
    packet size — enough fidelity for the window features above, which
    only see per-window rates, size moments and source dispersion.
    """
    records: List[CapturedPacket] = []
    for flow in flows:
        packets = int(flow.get("packets", 0))
        if packets <= 0:
            continue
        t_first = float(flow.get("t_first", 0.0))
        t_last = float(flow.get("t_last", t_first))
        spacing = (t_last - t_first) / (packets - 1) if packets > 1 else 0.0
        size = int(flow.get("bytes", 0)) // packets
        protocol = PROTO_UDP if flow.get("protocol", "udp") == "udp" else PROTO_TCP
        for index in range(packets):
            records.append(
                CapturedPacket(
                    time=t_first + spacing * index,
                    src=flow.get("src"),
                    dst=flow.get("dst"),
                    protocol=protocol,
                    src_port=int(flow.get("src_port", 0)),
                    dst_port=int(flow.get("dst_port", 0)),
                    size=size,
                )
            )
    records.sort(key=lambda record: (record.time, str(record.src)))
    return records


def windows_from_capture(
    records: Sequence[CapturedPacket],
    start: float,
    end: float,
    window: float,
    attack_interval: Tuple[float, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Slice a capture into labelled windows.

    Returns ``(X, y)``: the feature matrix and binary labels (1 = the
    window overlaps the attack interval).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    attack_start, attack_end = attack_interval
    features: List[List[float]] = []
    labels: List[int] = []
    time = start
    index = 0
    ordered = sorted(records, key=lambda record: record.time)
    while time < end:
        window_end = time + window
        bucket = []
        while index < len(ordered) and ordered[index].time < window_end:
            if ordered[index].time >= time:
                bucket.append(ordered[index])
            index += 1
        features.append(window_features(bucket, window))
        overlaps = time < attack_end and window_end > attack_start
        labels.append(1 if overlaps else 0)
        time = window_end
    return np.array(features, dtype=float), np.array(labels, dtype=int)
