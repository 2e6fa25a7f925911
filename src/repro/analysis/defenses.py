"""Deployable defenses for the mitigation-testing use case (§V-A1).

The paper positions DDoSim as a place to "implement and evaluate defense
strategies ... measuring their effectiveness in mitigating or preventing
exploits".  Two defenses are provided, matching its insights:

* :class:`PerSourcePolicer` — a token-bucket rate limiter per source
  address installed on TServer's delivery path (the "limit the available
  data rate" insight, applied at the victim edge).  Installing it makes
  the *accepted* attack magnitude collapse while leaving well-behaved
  benign flows untouched.
* :class:`ClassifierFirewall` — wires a trained
  :class:`repro.analysis.detection.LogisticRegressionClassifier` in front
  of the sink: traffic windows flagged as attack are dropped.  This is
  the full detect-then-mitigate loop of ML-based DDoS defenses.

Both wrap the node's UDP default handler (the sink), so they see every
datagram the sink would: a packet train is counted member by member and
accepted or dropped whole.  Installing either raises when there is no
handler to wrap yet (install after the sink starts: ``DDoSim.run()``
starts it before the first event), and under a fully fluid flood
(``flood_flow="all"``), which is credited to the sink analytically and
never reaches that handler.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.analysis.features import datagram_record, window_features
from repro.netsim.headers import UdpHeader
from repro.netsim.node import Node


def _sink_handler(node: Node):
    """The UDP default handler a defense wraps; raises when the flood
    cannot reach it or there is none yet."""
    flows = node.sim.flows
    if flows is not None and flows.mode == "all":
        raise ValueError(
            "flood_flow='all' credits the sink analytically: the flood "
            "bypasses a defense on the UDP handler"
        )
    handler = node.udp.default_handler
    if handler is None:
        raise ValueError(
            f"{node.name} has no UDP default handler to wrap: start its "
            "sink first"
        )
    return handler


class PerSourcePolicer:
    """Token-bucket policing per source address on a node's delivery path.

    Sits before the sink by wrapping the node's UDP default handler:
    packets from sources exceeding their budget are counted and dropped.
    """

    def __init__(
        self,
        node: Node,
        rate_bps: float = 128_000.0,
        burst_bytes: int = 32_000,
    ):
        if rate_bps <= 0 or burst_bytes <= 0:
            raise ValueError("rate and burst must be positive")
        self.node = node
        self.sim = node.sim
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        #: source -> (tokens, last_refill_time)
        self._buckets: Dict[object, list] = {}
        self.accepted_packets = 0
        self.accepted_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self._inner_handler = None
        self._installed = False

    def install(self) -> None:
        """Interpose on the node's promiscuous UDP handler (the sink)."""
        if self._installed:
            return
        self._inner_handler = _sink_handler(self.node)
        self.node.udp.set_default_handler(self._filter)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        self.node.udp.set_default_handler(self._inner_handler)
        self._installed = False

    def _allow(self, source, size: int) -> bool:
        now = self.sim.now
        bucket = self._buckets.get(source)
        if bucket is None:
            bucket = [float(self.burst_bytes), now]
            self._buckets[source] = bucket
        tokens, last = bucket
        tokens = min(
            self.burst_bytes, tokens + (now - last) * self.rate_bps / 8.0
        )
        if tokens >= size:
            bucket[0] = tokens - size
            bucket[1] = now
            return True
        bucket[0] = tokens
        bucket[1] = now
        return False

    def _filter(self, packet, udp_header: UdpHeader, ip_header) -> None:
        count = packet.count
        size = packet.payload_size + udp_header.wire_size + type(ip_header).wire_size
        nbytes = size * count
        if self._allow(ip_header.src, nbytes):
            self.accepted_packets += count
            self.accepted_bytes += nbytes
            self._inner_handler(packet, udp_header, ip_header)
        else:
            self.dropped_packets += count
            self.dropped_bytes += nbytes

    @property
    def drop_ratio(self) -> float:
        total = self.accepted_packets + self.dropped_packets
        return self.dropped_packets / total if total else 0.0


class ClassifierFirewall:
    """Window-based detect-then-drop firewall in front of the sink.

    Every ``window`` seconds it featurizes the traffic seen in the last
    window with the trained classifier's feature extractor; if the window
    classifies as attack, the *next* window's unmatched-port UDP traffic
    is dropped (a reactive mitigation with one-window latency, like
    real-world pipelines).
    """

    def __init__(self, node: Node, classifier, window: float = 1.0):
        self.node = node
        self.sim = node.sim
        self.classifier = classifier
        self.window = window
        self._current_window: list = []
        self.blocking = False
        self.windows_blocked = 0
        self.packets_dropped = 0
        self._inner_handler = None
        self._installed = False

    def install(self) -> None:
        if self._installed:
            return
        self._inner_handler = _sink_handler(self.node)
        self.node.udp.set_default_handler(self._filter)
        self.sim.schedule(self.window, self._rotate)
        self._installed = True

    def _filter(self, packet, udp_header, ip_header) -> None:
        # One row per packet, as the classifier was trained: a train's
        # members all arrive now, so they share one row object.
        record = datagram_record(self.sim.now, packet, udp_header, ip_header)
        self._current_window.extend([record] * packet.count)
        if self.blocking:
            self.packets_dropped += packet.count
            return
        self._inner_handler(packet, udp_header, ip_header)

    def _rotate(self) -> None:
        records, self._current_window = self._current_window, []
        if records:
            features = np.array(
                [window_features(records, self.window)], dtype=float
            )
            self.blocking = bool(self.classifier.predict(features)[0])
        else:
            self.blocking = False
        if self.blocking:
            self.windows_blocked += 1
        self.sim.schedule(self.window, self._rotate)
