"""Packets with an NS-3-style push/pop header stack.

A :class:`Packet` carries:

* ``payload`` — real application bytes (DNS messages, HTTP, C&C traffic)
  *or* ``None`` with an explicit ``payload_size`` for traffic whose bytes
  never get parsed (the UDP-PLAIN flood sends junk; modelling each junk
  byte would only burn memory — exactly the cost Table I of the paper
  attributes to NS-3, which we account for in
  :mod:`repro.core.resources` instead).
* a header stack — transport/network/link headers pushed on send and
  popped on receive, mirroring ``Packet::AddHeader``/``RemoveHeader``.

:class:`PacketTrain` extends this for the flood fast path: one packet
object standing in for ``count`` identical back-to-back packets, so the
datapath schedules one event per train instead of one per packet while
queues/sinks still account every packet exactly.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Type, TypeVar

from repro.netsim.headers import Header

H = TypeVar("H", bound=Header)

_uid_counter = itertools.count(1)


class Packet:
    """A simulated packet.

    ``size`` is the wire size in bytes of *one* packet: payload plus all
    pushed headers (for a train, the per-packet size — use
    ``total_size`` for bytes on the wire).  It is what links serialize
    and queues count, a plain attribute maintained incrementally on
    header push/pop — the flood datapath reads it at every
    queue/device/channel touch.
    """

    __slots__ = ("uid", "payload", "payload_size", "headers", "created_at",
                 "size")

    #: how many wire packets this object represents (PacketTrain overrides)
    count: int = 1
    #: inter-packet gap within a train, seconds (stamped by the last
    #: serializing device; 0.0 for ordinary packets)
    spacing: float = 0.0
    #: absolute time the last serializing device began transmitting the
    #: train (None when the carrying device does not stamp it)
    tx_start: Optional[float] = None
    #: propagation delay of the last carrying channel (None when the
    #: channel does not stamp it)
    link_delay: Optional[float] = None

    def __init__(
        self,
        payload: Optional[bytes] = None,
        payload_size: Optional[int] = None,
        created_at: float = 0.0,
    ):
        if payload is not None and payload_size is not None and payload_size != len(payload):
            raise ValueError("payload_size conflicts with actual payload length")
        self.uid = next(_uid_counter)
        self.payload = payload
        if payload is not None:
            self.payload_size = len(payload)
        else:
            self.payload_size = payload_size or 0
        self.headers: List[Header] = []
        self.created_at = created_at
        self.size = self.payload_size

    # ------------------------------------------------------------------
    # Header stack
    # ------------------------------------------------------------------
    def add_header(self, header: Header) -> None:
        """Push ``header`` on top of the stack (outermost last)."""
        self.headers.append(header)
        self.size += header.wire_size

    def remove_header(self, header_type: Type[H]) -> H:
        """Pop the top header, asserting it is of ``header_type``."""
        if not self.headers:
            raise LookupError(f"packet {self.uid} has no headers to remove")
        top = self.headers[-1]
        if not isinstance(top, header_type):
            raise LookupError(
                f"top header is {type(top).__name__}, expected {header_type.__name__}"
            )
        self.headers.pop()
        self.size -= top.wire_size
        return top

    def peek_header(self, header_type: Type[H]) -> Optional[H]:
        """Find the outermost header of ``header_type`` without removing it."""
        for header in reversed(self.headers):
            if isinstance(header, header_type):
                return header
        return None

    @property
    def total_size(self) -> int:
        """Total bytes this object puts on the wire: ``size * count``."""
        return self.size * self.count

    def copy(self) -> "Packet":
        """Shallow-copy the packet with a fresh uid (headers are shared
        immutably-by-convention; multicast fan-out re-stacks its own)."""
        clone = Packet(self.payload, None if self.payload is not None else self.payload_size,
                       self.created_at)
        clone.headers = list(self.headers)
        clone.size = self.size
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        stack = "/".join(type(header).__name__ for header in reversed(self.headers))
        return f"<Packet #{self.uid} {self.size}B [{stack or 'raw'}]>"


class PacketTrain(Packet):
    """``count`` identical back-to-back packets carried as one unit.

    The flood fast path sends trains so every queue/device/channel hop
    costs one scheduled event per *train* rather than per packet.  The
    header stack and ``size`` describe a single member packet; devices
    serialize ``size * count`` bytes and stamp ``spacing`` (per-packet
    serialization delay) so the sink can reconstruct each member's exact
    arrival time.  With ``count == 1`` a train behaves bit-identically
    to a plain :class:`Packet`.
    """

    __slots__ = ("count", "spacing", "tx_start", "link_delay")

    def __init__(
        self,
        payload_size: int,
        count: int,
        created_at: float = 0.0,
    ):
        if count < 1:
            raise ValueError("a train carries at least one packet")
        super().__init__(None, payload_size, created_at)
        self.count = count
        self.spacing = 0.0
        self.tx_start = None
        self.link_delay = None

    def copy(self) -> "PacketTrain":
        clone = PacketTrain(self.payload_size, self.count, self.created_at)
        clone.headers = list(self.headers)
        clone.size = self.size
        clone.spacing = self.spacing
        clone.tx_start = self.tx_start
        clone.link_delay = self.link_delay
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        stack = "/".join(type(header).__name__ for header in reversed(self.headers))
        return (
            f"<PacketTrain #{self.uid} {self.count}x{self.size}B [{stack or 'raw'}]>"
        )
