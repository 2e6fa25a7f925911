"""Transmit queues for net devices.

The paper's Figure 2 attributes the sublinear growth of received data rate
to "congestion and collisions stemming from elevated network traffic";
in this simulator that behaviour emerges from finite-rate links draining
drop-tail queues — same mechanism NS-3's ``DropTailQueue`` provides.

Capacity is accounted per *packet*, not per queue entry: a
:class:`~repro.netsim.packet.PacketTrain` of K packets consumes K slots
(and K x size bytes), and a train that only partially fits is split —
the head is admitted, the overflowing tail dropped — so drop-tail
overflow behaviour is exact regardless of train size.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.netsim.packet import Packet
from repro.obs.metrics import NULL_INSTRUMENT
from repro.obs.trace import NULL_TRACER


class DropTailQueue:
    """A FIFO packet queue with a fixed capacity; overflow drops the tail.

    Capacity may be expressed in packets (NS-3's default mode) or bytes.
    """

    def __init__(self, max_packets: int = 100, max_bytes: Optional[int] = None):
        if max_packets <= 0:
            raise ValueError("queue capacity must be positive")
        self._queue: Deque[Packet] = deque()
        self.max_packets = max_packets
        self.max_bytes = max_bytes
        self.packets_queued = 0
        self.bytes_queued = 0
        self.enqueued = 0
        self.dropped = 0
        # Observability bindings; the owning NetDevice wires these via
        # bind_observatory (queues alone have no simulator reference).
        self.name = ""
        self._sim = None
        self._tracer = NULL_TRACER
        self._drop_counter = NULL_INSTRUMENT

    def bind_observatory(self, sim, name: str) -> None:
        """Bind drop accounting to ``sim``'s observatory under ``name``."""
        self.name = name
        self._sim = sim
        self._tracer = sim.obs.tracer
        self._drop_counter = sim.obs.metrics.counter(
            "queue_drops_total", help="packets dropped by transmit queues"
        )

    def __len__(self) -> int:
        """Queued *packet* count (a train of K counts K)."""
        return self.packets_queued

    @property
    def empty(self) -> bool:
        return not self._queue

    def enqueue(self, packet: Packet) -> bool:
        """Add ``packet``; returns False (and counts drops) on overflow.

        A train that partially fits is split: the fitting head is
        admitted (returns True) and the remainder is dropped.
        """
        count = packet.count
        room = self.max_packets - self.packets_queued
        if room <= 0:
            self._record_drop(packet, "overflow_packets", count)
            return False
        reason = "overflow_packets"
        if self.max_bytes is not None and packet.size > 0:
            byte_room = (self.max_bytes - self.bytes_queued) // packet.size
            if byte_room < room:
                room = byte_room
                reason = "overflow_bytes"
            if room <= 0:
                self._record_drop(packet, reason, count)
                return False
        if count > room:
            # Partial fit: admit the head of the train, drop the tail.
            self._record_drop(packet, reason, count - room)
            packet = packet.copy()
            packet.count = count = room
        self._queue.append(packet)
        self.packets_queued += count
        self.bytes_queued += packet.size * count
        self.enqueued += count
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.packets_queued -= packet.count
        self.bytes_queued -= packet.size * packet.count
        return packet

    def clear(self) -> int:
        """Drop everything queued (link went down); returns packets lost."""
        lost = self.packets_queued
        self.dropped += lost
        if lost:
            self._drop_counter.inc(lost)
            if self._tracer.enabled and self._sim is not None:
                self._tracer.emit(
                    "queue.drop", self._sim.now,
                    queue=self.name, reason="link_down", lost=lost,
                )
        self._queue.clear()
        self.packets_queued = 0
        self.bytes_queued = 0
        return lost

    def fluid_drop(self, count: int, size: int, reason: str) -> None:
        """Account ``count`` analytically-dropped flow packets.

        The fluid datapath (:mod:`repro.netsim.flows`) computes drop
        fractions in closed form; this routes the quantized result into
        the same counters and trace stream the packet path's
        :meth:`_record_drop` feeds, so ``queue_drops_total`` stays exact
        in expectation.
        """
        if count <= 0:
            return
        self.dropped += count
        self._drop_counter.inc(count)
        if self._tracer.enabled and self._sim is not None:
            self._tracer.emit(
                "queue.drop", self._sim.now,
                queue=self.name, reason=reason, size=size,
                lost=count, depth=self.packets_queued,
            )

    def fingerprint_state(self) -> dict:
        """Deterministic queue contents + counters for fingerprinting.

        Entries are described by (size, count) shape — ``Packet.uid``
        comes from a process-global counter and must never be hashed.
        """
        return {
            "name": self.name,
            "depth": self.packets_queued,
            "bytes": self.bytes_queued,
            "enqueued": self.enqueued,
            "dropped": self.dropped,
            "entries": [[p.size, p.count] for p in self._queue],
        }

    def _record_drop(self, packet: Packet, reason: str, count: int = 1) -> None:
        self.dropped += count
        self._drop_counter.inc(count)
        if self._tracer.enabled and self._sim is not None:
            self._tracer.emit(
                "queue.drop", self._sim.now,
                queue=self.name, reason=reason, size=packet.size,
                lost=count, depth=self.packets_queued,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<DropTailQueue {self.packets_queued}/{self.max_packets} pkts "
            f"{self.bytes_queued}B dropped={self.dropped}>"
        )
