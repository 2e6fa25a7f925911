"""repro.netsim — a discrete-event network simulator (the NS-3 substitute).

DDoSim (the paper) builds on NS-3 3.37 for its simulated network and on
NS3DockerEmulator's TapBridge/ghost-node trick to splice Docker containers
into that network.  This package provides the equivalent substrate in pure
Python:

* :mod:`repro.netsim.simulator` — the event heap, its run loops and the
  virtual clock.
* :mod:`repro.netsim.process` — simpy-style coroutine processes so that
  "binaries" (shells, daemons, bots) can be written as straight-line code.
* :mod:`repro.netsim.address` — MAC / IPv4 / IPv6 addresses, multicast.
* :mod:`repro.netsim.packet` / :mod:`repro.netsim.headers` — packets with
  an NS-3-style header stack.
* :mod:`repro.netsim.netdevice`, :mod:`repro.netsim.channel`,
  :mod:`repro.netsim.queues` — point-to-point links with data-rate
  serialization, propagation delay and drop-tail queues.
* :mod:`repro.netsim.node`, :mod:`repro.netsim.ip` — nodes with a
  dual-stack (IPv4/IPv6) network layer, static routing, multicast groups.
* :mod:`repro.netsim.udp`, :mod:`repro.netsim.tcp`,
  :mod:`repro.netsim.sockets` — transports and a BSD-ish socket facade.
* :mod:`repro.netsim.topology`, :mod:`repro.netsim.tiered` — the star
  "simulated Internet" and its tiered (home router, ISP, core) variant.
* :mod:`repro.netsim.application`, :mod:`repro.netsim.sink` — NS-3-style
  applications; ``PacketSink`` is the paper's customized TServer sink,
  and its per-flow records are the Wireshark analogue.
* :mod:`repro.netsim.flows` — the fluid-flow flood datapath.
"""

from repro.netsim.address import Ipv4Address, Ipv6Address, MacAddress
from repro.netsim.application import Application
from repro.netsim.channel import Channel, PointToPointChannel
from repro.netsim.headers import (
    EthernetHeader,
    Ipv4Header,
    Ipv6Header,
    TcpHeader,
    UdpHeader,
)
from repro.netsim.netdevice import NetDevice, PointToPointDevice
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.process import SimFuture, SimProcess, Timeout
from repro.netsim.queues import DropTailQueue
from repro.netsim.simulator import Simulator
from repro.netsim.sink import PacketSink
from repro.netsim.topology import StarInternet

__all__ = [
    "Application",
    "Channel",
    "DropTailQueue",
    "EthernetHeader",
    "Ipv4Address",
    "Ipv4Header",
    "Ipv6Address",
    "Ipv6Header",
    "MacAddress",
    "NetDevice",
    "Node",
    "Packet",
    "PacketSink",
    "PointToPointChannel",
    "PointToPointDevice",
    "SimFuture",
    "SimProcess",
    "Simulator",
    "StarInternet",
    "TcpHeader",
    "Timeout",
    "UdpHeader",
]
