"""Property-based tests of the fluid engine's accounting: random flow
programs on a small star — flows starting and stopping, devices going
down, coming up and degrading, the sink stalling — must conserve every
offered byte per flow and keep the sink's counters consistent."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netsim.flows import FlowEngine
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.sink import PacketSink
from repro.netsim.topology import StarInternet

#: IPv6 + UDP headers on top of the payload
HEADERS = 48
END = 20.0

senders_st = st.lists(st.floats(min_value=0.2e6, max_value=2e6),
                      min_size=1, max_size=4)
receiver_st = st.tuples(st.floats(min_value=0.3e6, max_value=3e6),
                        st.integers(min_value=5, max_value=50))
flow_st = st.tuples(
    st.integers(min_value=0, max_value=3),          # sender index
    st.floats(min_value=0.0, max_value=15.0),       # start
    st.floats(min_value=0.01, max_value=15.0),      # duration
    st.floats(min_value=0.3, max_value=1.0),        # rate / uplink
    st.integers(min_value=100, max_value=1400),     # wire size
)
event_st = st.tuples(
    st.floats(min_value=0.0, max_value=END),
    st.sampled_from(["down", "up", "degrade", "restore", "stall"]),
    st.integers(min_value=0, max_value=4),          # 4 = the receiver
    st.floats(min_value=0.1, max_value=1.0),        # degrade factor
)


def build(uplinks, receiver):
    sim = Simulator()
    star = StarInternet(sim)
    senders = []
    for index, uplink in enumerate(uplinks):
        node = Node(sim, f"s{index}")
        star.attach_host(node, uplink, delay=0.001)
        senders.append(node)
    downlink, queue_packets = receiver
    sink_node = Node(sim, "receiver")
    star.attach_host(sink_node, 100e6, delay=0.001,
                     downlink_rate_bps=downlink, queue_packets=queue_packets)
    sink = PacketSink(sink_node)
    sink.start()
    engine = FlowEngine(sim, mode="all")
    return sim, star, senders, sink_node, sink, engine


def schedule_flows(sim, star, senders, sink_node, engine, flows, uplinks):
    """Start each flow at its time and stop it ``duration`` later; every
    flow gets its own source port, so its own NetFlow record."""
    destination = star.address_of(sink_node)
    opened = []

    def open_flow(index, rate, size, duration):
        flow = engine.start_flow(senders[index], destination, 9,
                                 1000 + len(opened), rate, size - HEADERS, size)
        opened.append(flow)
        sim.schedule(duration, engine.stop_flow, flow)

    for sender, begin, duration, factor, size in flows:
        index = sender % len(senders)
        sim.schedule_at(begin, open_flow, index, uplinks[index] * factor,
                        size, duration)
    return opened


def device_of(star, senders, sink_node, target):
    if target >= len(senders):
        return star.links[sink_node].router_device
    return star.links[senders[target]].host_device


def schedule_events(sim, star, senders, sink_node, sink, events):
    for at, kind, target, factor in events:
        device = device_of(star, senders, sink_node, target)
        if kind == "down":
            sim.schedule_at(at, device.set_down)
        elif kind == "up":
            sim.schedule_at(at, device.set_up)
        elif kind == "degrade":
            sim.schedule_at(at, device.override_data_rate,
                            device.data_rate_bps * factor)
        elif kind == "restore":
            sim.schedule_at(at, device.clear_data_rate_override)
        else:
            sim.schedule_at(at, sink.stop)
            sim.schedule_at(min(at + 10 * factor, END), sink.start)


def check_accounting(engine, sink, opened):
    slack = 0.0
    offered = delivered = dropped = backlog = 0.0
    for flow in opened:
        queued = engine.backlog_bytes(flow)
        gap = (flow.offered_bytes - flow.delivered_bytes - flow.dropped_bytes
               - queued)
        # Whole bytes go to the flow's record; the sub-byte rest stays in
        # the sink's per-flow remainder.
        assert abs(gap) <= 1.0 + 1e-6 * flow.offered_bytes, (flow, gap)
        assert flow.dropped_bytes >= -1e-6
        offered += flow.offered_bytes
        delivered += flow.delivered_bytes
        dropped += flow.dropped_bytes
        backlog += queued
        slack += 1.0
    # The sink's binned total (credited per group segment) agrees with
    # the flows' settled deliveries.
    assert abs(offered - sink.total_bytes - dropped - backlog) <= slack + 1.0 + 1e-6 * offered
    assert abs(sink.total_bytes - delivered) <= slack + 1.0
    assert sum(sink.bytes_per_bin.values()) == sink.total_bytes
    records = sink.flow_records()
    assert sum(record["packets"] for record in records) == sink.total_packets


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(senders_st, receiver_st, st.lists(flow_st, min_size=1, max_size=6),
       st.lists(event_st, max_size=8))
def test_random_programs_conserve_bytes(uplinks, receiver, flows, events):
    sim, star, senders, sink_node, sink, engine = build(uplinks, receiver)
    opened = schedule_flows(sim, star, senders, sink_node, engine, flows, uplinks)
    schedule_events(sim, star, senders, sink_node, sink, events)
    sim.run(until=END)
    engine.flush()
    check_accounting(engine, sink, opened)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(senders_st, st.lists(flow_st, min_size=1, max_size=6))
def test_uncongested_program_delivers_offered(uplinks, flows):
    # Flows from one sender share its uplink, and a downlink above every
    # uplink combined never queues.
    senders = [sender % len(uplinks) for sender, *_ in flows]
    flows = [
        (sender, begin, duration, factor / senders.count(sender % len(uplinks)), size)
        for sender, begin, duration, factor, size in flows
    ]
    receiver = (sum(uplinks) * 1.01, 10)
    sim, star, senders, sink_node, sink, engine = build(uplinks, receiver)
    opened = schedule_flows(sim, star, senders, sink_node, engine, flows, uplinks)
    sim.run(until=END)
    engine.flush()
    check_accounting(engine, sink, opened)
    for flow in opened:
        assert abs(flow.offered_bytes - flow.delivered_bytes) <= 2.0
    assert star.total_queue_drops() == 0


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(senders_st, receiver_st, st.floats(min_value=1.0, max_value=15.0),
       st.integers(min_value=100, max_value=1400))
def test_saturated_downlink_delivers_capacity(uplinks, receiver, busy, size):
    downlink, queue_packets = receiver
    if sum(uplinks) <= downlink * 1.05:
        uplinks = [uplink * downlink * 1.05 / sum(uplinks) for uplink in uplinks]
    sim, star, senders, sink_node, sink, engine = build(uplinks, receiver)
    flows = [(index, 0.0, busy, 1.0, size) for index in range(len(uplinks))]
    opened = schedule_flows(sim, star, senders, sink_node, engine, flows, uplinks)
    sim.run(until=END)
    engine.flush()
    check_accounting(engine, sink, opened)
    # Every stop credits its residual backlog, at most one queue in all.
    expected = downlink * busy / 8.0
    assert expected - 2.0 <= sink.total_bytes <= expected + queue_packets * size + 2.0
