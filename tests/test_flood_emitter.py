"""The callback-paced flood emitter against the generator loops it
replaced.

The reference below is the per-packet flood as it was written before the
emitter: a generator that sends and then sleeps on a fresh ``Timeout``
per datagram, train or segment.  The emitter must be indistinguishable
from it at every observable: what reaches the sink, what the bot counts,
how many events run and how many are left queued — also when the flood
is killed, including at the very instant an emission is due.  The one
difference is deliberate: the reference stamps ``finished_at`` only when
it returns, while a killed emitter flood stamps the kill instant.
"""

from hypothesis import given, settings, strategies as st

from repro.botnet.attacks import (
    AttackStats,
    _device_rate_bps,
    _ip_wire_size,
    _udp_wire_overhead,
    ack_flood,
    syn_flood,
    udp_plain_flood,
)
from repro.netsim.headers import PROTO_TCP, TCP_ACK, TCP_SYN, TcpHeader
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.process import SimProcess, Timeout
from repro.netsim.simulator import Simulator
from repro.netsim.sink import PacketSink
from repro.netsim.topology import StarInternet


# ----------------------------------------------------------------------
# Reference: one Timeout and one coroutine resume per emission
# ----------------------------------------------------------------------
def reference_udp_plain_flood(node, target, target_port, duration,
                              payload_size=512, rate_bps=None, stats=None,
                              src_port=None, train=1):
    if stats is None:
        stats = AttackStats()
    if train < 1:
        raise ValueError("train size must be >= 1")
    rate = rate_bps if rate_bps is not None else _device_rate_bps(node)
    wire_size = payload_size + _udp_wire_overhead(target)
    interval = wire_size * 8.0 / rate
    sim = node.sim
    udp = node.udp
    sport = src_port if src_port is not None else udp.allocate_ephemeral_port()
    stats.started_at = sim.now
    deadline = sim.now + duration
    if train == 1:
        while sim.now < deadline:
            udp.send_datagram(
                None, target, target_port, src_port=sport,
                payload_size=payload_size,
            )
            stats.packets_sent += 1
            stats.bytes_sent += wire_size
            yield Timeout(sim, interval)
    else:
        wakeup = interval * train
        while sim.now < deadline:
            udp.send_train(
                target, target_port, train, src_port=sport,
                payload_size=payload_size,
            )
            stats.packets_sent += train
            stats.bytes_sent += wire_size * train
            yield Timeout(sim, wakeup)
    stats.finished_at = sim.now
    return stats


def reference_tcp_flag_flood(node, target, target_port, duration, flags,
                             rate_bps, stats):
    if stats is None:
        stats = AttackStats()
    rate = rate_bps if rate_bps is not None else _device_rate_bps(node)
    segment_size = TcpHeader.wire_size + _ip_wire_size(target)
    interval = max(segment_size * 8.0 / rate, 1e-4)
    sim = node.sim
    stats.started_at = sim.now
    deadline = sim.now + duration
    sport = 1024
    seq = 0
    while sim.now < deadline:
        packet = Packet(created_at=sim.now)
        packet.add_header(TcpHeader(sport, target_port, seq=seq, flags=flags))
        node.ip.send(packet, target, PROTO_TCP)
        stats.packets_sent += 1
        stats.bytes_sent += segment_size
        sport = 1024 + (sport - 1023) % 60000
        seq += 1
        yield Timeout(sim, interval)
    stats.finished_at = sim.now
    return stats


def flood(implementation, vector, node, target, duration, payload, rate,
          train, stats):
    """The flood generator of one implementation ('emitter' or
    'reference') for one vector."""
    if vector == "udpplain":
        make = udp_plain_flood if implementation == "emitter" \
            else reference_udp_plain_flood
        return make(node, target, 7777, duration, payload_size=payload,
                    rate_bps=rate, stats=stats, src_port=4000, train=train)
    if implementation == "emitter":
        make = syn_flood if vector == "syn" else ack_flood
        return make(node, target, 80, duration, rate_bps=rate, stats=stats)
    flags = TCP_SYN if vector == "syn" else TCP_ACK
    return reference_tcp_flag_flood(node, target, 80, duration, flags, rate,
                                    stats)


def emission_interval(vector, target, payload, rate, train):
    """The time between two emissions, computed as the flood does."""
    if vector == "udpplain":
        return (payload + _udp_wire_overhead(target)) * 8.0 / rate * train
    return max((TcpHeader.wire_size + _ip_wire_size(target)) * 8.0 / rate, 1e-4)


def run_flood(implementation, vector="udpplain", *, duration, payload=512,
              rate=100e3, train=1, start=0.0, kill_at=None,
              kill_emission=None, kill_first=True, until=None):
    """One bot flooding a sink across a two-host star.

    The flood's process is created at ``start`` (by a scheduled event
    unless that is the beginning of the run).  It is killed at
    ``kill_at``, or at the instant of its ``kill_emission``-th emission
    (the first is the 0th): the scheduler adds the interval to the
    previous emission's time, so that instant is the same float chain.
    The kill is scheduled before the run begins, so it fires ahead of an
    emission due at the same instant; with ``kill_first=False`` it is
    issued after every event already queued for that instant.
    """
    sim = Simulator()
    star = StarInternet(sim)
    bot = Node(sim, "bot")
    victim = Node(sim, "victim")
    star.attach_host(bot, 1e6, delay=0.001)
    star.attach_host(victim, 1e6, delay=0.001)
    sink = PacketSink(victim)
    sink.start()
    target = star.address_of(victim)
    stats = AttackStats()
    processes = []
    killed_at = []
    if kill_emission is not None:
        interval = emission_interval(vector, target, payload, rate, train)
        kill_at = start
        for _ in range(kill_emission):
            kill_at += interval

    def start_flood():
        processes.append(SimProcess(
            sim, flood(implementation, vector, bot, target, duration, payload,
                       rate, train, stats),
            name="flood",
        ))

    if start > 0.0:
        sim.schedule(start, start_flood)
    else:
        start_flood()
    def kill():
        killed_at.append(sim.now)
        processes[0].kill()

    if kill_at is not None:
        if kill_first:
            sim.schedule_at(kill_at, kill)
        else:
            sim.schedule_at(kill_at, lambda: sim.schedule_now(kill))
    sim.run(until=until)
    (process,) = processes
    return {
        "stats": (stats.packets_sent, stats.bytes_sent, stats.started_at,
                  stats.finished_at),
        "events_executed": sim.events_executed,
        "pending_events": sim.pending_events,
        "sink": sink.fingerprint_state(),
        "flow_records": sink.flow_records(),
        "rst_sent": victim.tcp.rst_sent,
        "process": (process.done, type(process.error).__name__,
                    process.value is stats),
        "killed_at": killed_at,
    }


def assert_matches_reference(emitter, reference):
    """Equal at every observable but a killed flood's ``finished_at``,
    which is the kill instant for the emitter and stays 0.0 for the
    reference loop."""
    if emitter["process"][1] == "ProcessKilled":
        (kill_instant,) = emitter["killed_at"]
        assert emitter["stats"][3] == kill_instant
        assert reference["stats"][3] == 0.0
        emitter = dict(emitter, stats=emitter["stats"][:3] + (0.0,))
    assert emitter == reference


class TestPinnedKill:
    def test_kill_at_an_emission_instant_sends_nothing_more(self):
        """548 B on the wire at 4,384 bps is exactly one packet a second.
        A kill queued for t=1.0 before the flood starts fires ahead of
        the emission due then: one packet, eight events."""
        for implementation in ("reference", "emitter"):
            result = run_flood(implementation, duration=10.0, payload=500,
                               rate=4384.0, kill_at=1.0, until=30.0)
            assert result["stats"][0] == 1, implementation
            assert result["events_executed"] == 8, implementation
            assert result["process"] == (True, "ProcessKilled", False)
        # (started_at, finished_at): the killed flood ran from 0.0 to 1.0
        assert result["stats"][2:] == (0.0, 1.0)

    def test_killed_flood_stamps_the_kill_instant(self):
        result = run_flood("emitter", duration=10.0, payload=500,
                           rate=4384.0, start=0.5, kill_at=2.25, until=30.0)
        assert result["process"][1] == "ProcessKilled"
        assert result["stats"][2:] == (0.5, 2.25)

    def test_completed_flood_resolves_with_its_stats(self):
        reference = run_flood("reference", duration=3.0, payload=500,
                              rate=4384.0, until=30.0)
        emitter = run_flood("emitter", duration=3.0, payload=500,
                            rate=4384.0, until=30.0)
        assert emitter == reference
        assert emitter["stats"] == (3, 1644, 0.0, 3.0)
        assert emitter["process"] == (True, "NoneType", True)


@st.composite
def flood_cases(draw):
    vector = draw(st.sampled_from(["udpplain", "syn", "ack"]))
    rate = draw(st.floats(min_value=5e3, max_value=4e5))
    payload = draw(st.integers(min_value=0, max_value=1400))
    train = draw(st.sampled_from([1, draw(st.integers(2, 16))])) \
        if vector == "udpplain" else 1
    duration = draw(st.floats(min_value=0.0, max_value=4.0))
    start = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1.0))]))
    kill = draw(st.sampled_from(["none", "emission", "anytime"]))
    kill_at = kill_emission = None
    if kill == "emission":
        kill_emission = draw(st.integers(min_value=0, max_value=12))
    elif kill == "anytime":
        kill_at = start + draw(st.floats(min_value=0.0, max_value=5.0))
    until = draw(st.sampled_from(
        [None, start + draw(st.floats(min_value=0.0, max_value=6.0))]))
    return dict(vector=vector, rate=rate, payload=payload, train=train,
                duration=duration, start=start, kill_at=kill_at,
                kill_emission=kill_emission, kill_first=draw(st.booleans()),
                until=until)


@settings(max_examples=80, deadline=None)
@given(flood_cases())
def test_emitter_matches_the_generator_loop(case):
    reference = run_flood("reference", **case)
    emitter = run_flood("emitter", **case)
    assert_matches_reference(emitter, reference)
