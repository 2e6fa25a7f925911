"""Microbenchmarks of the simulation engine itself.

These use pytest-benchmark's actual timing (multiple rounds) to track
the hot paths that dominate experiment wall time: the event scheduler,
the point-to-point flood datapath, and TCP byte-stream throughput.
Their assertions (event-count cuts, byte parity, result neutrality)
are the point; end-to-end and per-layer timings of the paper workloads
come from the ``perfbench/`` harness (declared in BENCHMARK.json).
"""

from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.sink import PacketSink
from repro.netsim.topology import StarInternet


def test_scheduler_throughput(benchmark):
    """Schedule+run 50k no-op events."""

    def run():
        sim = Simulator()
        for index in range(50_000):
            sim.schedule(index * 1e-6, _noop)
        sim.run()
        return sim.events_executed

    executed = benchmark(run)
    assert executed == 50_000


def _noop():
    pass


def _flood_run(train: int, packets: int = 5_000):
    """Push ``packets`` UDP packets through the star (device->router->
    sink) in trains of ``train``; returns (events_executed, received)."""
    sim = Simulator()
    star = StarInternet(sim)
    sender = Node(sim, "sender")
    receiver = Node(sim, "receiver")
    # Deep queues: this measures datapath cost, not drop behaviour.
    star.attach_host(sender, 100e6, delay=0.001, queue_packets=6_000)
    star.attach_host(receiver, 100e6, delay=0.001, queue_packets=6_000)
    sink = PacketSink(receiver)
    sink.start()
    destination = star.address_of(receiver)
    udp = sender.udp
    if train == 1:
        for _ in range(packets):
            udp.send_datagram(None, destination, 7777, src_port=9, payload_size=512)
    else:
        for _ in range(packets // train):
            udp.send_train(destination, 7777, train, src_port=9, payload_size=512)
    sim.run()
    return sim.events_executed, sink.total_packets


def test_flood_datapath(benchmark):
    """Per-packet flood datapath (train=1, the seed-exact path)."""

    received = benchmark(lambda: _flood_run(train=1)[1])
    assert received == 5_000


def test_flood_datapath_train(benchmark):
    """Train-batched flood datapath (K=8): the ISSUE's >=3x target.

    Asserts the structural win directly — events per packet drop by
    more than 3x versus the per-packet baseline — which is what makes
    the wall-time speedup hold on any host.
    """
    events, received = benchmark(lambda: _flood_run(train=8))
    assert received == 5_000
    baseline_events, baseline_received = _flood_run(train=1)
    assert baseline_received == 5_000
    assert events * 3 <= baseline_events, (
        f"train=8 ran {events} events vs {baseline_events} at train=1"
    )


def _flood_scenario(flow: str, train: int = 1, duration: float = 50.0,
                    rate: float = 1e6):
    """One bot flooding a sink for ``duration`` seconds at ``rate`` bps
    through the real attack generators; returns (events, sink_bytes).

    ``flow='off'`` paces per-packet/train events (the seed datapath);
    ``'auto'``/``'all'`` run the fluid engine with packet crossover at
    the last hop / fully analytic.
    """
    from repro.botnet.attacks import AttackStats, udp_plain_flood, udp_plain_flow
    from repro.netsim.flows import FlowEngine
    from repro.netsim.process import SimProcess

    sim = Simulator()
    star = StarInternet(sim)
    sender = Node(sim, "sender")
    receiver = Node(sim, "receiver")
    star.attach_host(sender, rate, delay=0.001, queue_packets=6_000)
    star.attach_host(receiver, 100e6, delay=0.001, queue_packets=6_000)
    sink = PacketSink(receiver)
    sink.start()
    destination = star.address_of(receiver)
    stats = AttackStats()
    if flow == "off":
        generator = udp_plain_flood(
            sender, destination, 7777, duration, stats=stats, src_port=9,
            train=train,
        )
    else:
        FlowEngine(sim, mode=flow, train=max(train, 16))
        generator = udp_plain_flow(
            sender, destination, 7777, duration, stats=stats, src_port=9,
        )
    SimProcess(sim, generator, name="flood")
    sim.run(until=duration + 5.0)
    if sim.flows is not None:
        sim.flows.flush()
    return sim.events_executed, sink.total_bytes


def test_flood_flow_datapath(benchmark):
    """The fluid-flow flood: >=10x fewer events and >=5x wall-clock
    versus the per-packet path, asserted directly and recorded as
    ratios in the benchmark's extra_info."""
    import time

    t0 = time.perf_counter()
    packet_events, packet_bytes = _flood_scenario("off")
    packet_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    flow_events, flow_bytes = _flood_scenario("all")
    flow_wall = time.perf_counter() - t0

    events, nbytes = benchmark(lambda: _flood_scenario("all"))
    assert events == flow_events
    # Exact in expectation: analytic delivery within 1% of packet mode.
    assert abs(nbytes - packet_bytes) <= 0.01 * packet_bytes
    assert events * 10 <= packet_events, (
        f"flow mode ran {events} events vs {packet_events} per-packet"
    )
    assert flow_wall * 5 <= packet_wall, (
        f"flow mode took {flow_wall:.3f}s vs {packet_wall:.3f}s per-packet"
    )
    benchmark.extra_info["packet_events"] = packet_events
    benchmark.extra_info["flow_events"] = events
    benchmark.extra_info["event_reduction"] = round(packet_events / events, 1)
    benchmark.extra_info["wall_speedup"] = round(packet_wall / flow_wall, 1)


def test_flood_flow_crossover_auto(benchmark):
    """Hybrid crossover: fluid upstream, real packet trains at the last
    hop.  Still a large event cut, with byte parity to packet mode."""
    packet_events, packet_bytes = _flood_scenario("off")
    events, nbytes = benchmark(lambda: _flood_scenario("auto"))
    assert abs(nbytes - packet_bytes) <= 0.01 * packet_bytes
    assert events * 5 <= packet_events, (
        f"auto crossover ran {events} events vs {packet_events} per-packet"
    )
    benchmark.extra_info["event_reduction"] = round(packet_events / events, 1)


def test_flood_flow_vs_train_vs_packet(benchmark):
    """The full datapath ladder on one flood: per-packet, train=8,
    hybrid crossover, fully fluid — event counts per tier recorded in
    the benchmark's extra_info."""
    ladder = {}
    for label, kwargs in (
        ("packet", dict(flow="off", train=1)),
        ("train8", dict(flow="off", train=8)),
        ("auto", dict(flow="auto")),
        ("all", dict(flow="all")),
    ):
        events, nbytes = _flood_scenario(**kwargs)
        ladder[label] = (events, nbytes)
    # Strictly decreasing event counts down the ladder.
    assert (ladder["packet"][0] > ladder["train8"][0]
            > ladder["auto"][0] > ladder["all"][0])
    # Byte parity within 1% across every tier.
    reference = ladder["packet"][1]
    for label, (_events, nbytes) in ladder.items():
        assert abs(nbytes - reference) <= 0.01 * reference, label

    events, _ = benchmark(lambda: _flood_scenario("all"))
    for label, (tier_events, _nbytes) in ladder.items():
        benchmark.extra_info[f"events_{label}"] = tier_events
    benchmark.extra_info["flow_vs_packet"] = round(
        ladder["packet"][0] / events, 1
    )
    benchmark.extra_info["flow_vs_train8"] = round(
        ladder["train8"][0] / events, 1
    )


def test_fault_injector_zero_overhead_without_plan(benchmark):
    """Fault-injection smoke: an empty FaultPlan adds no behaviour.

    The no-fault path must stay byte-identical — same event count, same
    result JSON, same metric snapshot — whether ``faults`` is absent or
    an armed-but-empty plan, so the injector costs ~0 when unused.
    """
    from repro.core.config import SimulationConfig
    from repro.core.framework import DDoSim
    from repro.faults import FaultPlan
    from repro.serialization import result_to_json

    def config(plan):
        return SimulationConfig(
            n_devs=2, seed=1, attack_duration=10.0, recruit_timeout=30.0,
            sim_duration=120.0, faults=plan,
        )

    def run(plan):
        ddosim = DDoSim(config(plan))
        result = ddosim.run()
        return (
            ddosim.sim.events_executed,
            result_to_json(result),
            ddosim.obs.metrics.to_json(),
        )

    baseline = run(None)
    armed = benchmark(lambda: run(FaultPlan()))
    assert armed == baseline


def _tiny_sweep_kwargs():
    from repro.core.config import SimulationConfig

    return dict(
        devs_grid=(2, 3),
        churn_modes=("none",),
        seed=1,
        base_config=SimulationConfig(
            n_devs=2, seed=1, attack_duration=10.0, recruit_timeout=30.0,
            sim_duration=120.0,
        ),
    )


def test_sweep_cold_vs_warm(benchmark, tmp_path):
    """Cache-backed sweep: the warm rerun must be pure cache (100%
    hits, byte-identical rows) — the ISSUE's >=10x wall-clock target
    falls out of never building a simulator."""
    import json

    from repro.cache import RunCache
    from repro.core.experiment import run_figure2

    root = str(tmp_path / "cache")
    kwargs = _tiny_sweep_kwargs()
    cold = run_figure2(cache=RunCache(root=root), **kwargs)

    def warm_run():
        cache = RunCache(root=root)
        rows = run_figure2(cache=cache, **kwargs)
        return rows, cache.stats()["last_sweep"]

    rows, last_sweep = benchmark(warm_run)
    assert json.dumps(rows, sort_keys=True) == json.dumps(cold, sort_keys=True)
    assert last_sweep["hit_rate"] == 1.0


def test_cache_hit_schedules_zero_events(tmp_path):
    """Regression guard: a cache hit is a pure deserialize.

    Serving a warm sweep must never construct a Simulator (and hence
    never schedule a single event) — if the hit path ever falls back to
    re-execution, this trips immediately.
    """
    from repro.cache import RunCache
    from repro.core.experiment import run_figure2
    from repro.netsim.simulator import Simulator

    root = str(tmp_path / "cache")
    kwargs = _tiny_sweep_kwargs()
    cold = run_figure2(cache=RunCache(root=root), **kwargs)

    original_init = Simulator.__init__

    def forbidden_init(self, *args, **init_kwargs):
        raise AssertionError("cache hit built a Simulator (re-execution!)")

    Simulator.__init__ = forbidden_init
    try:
        warm = run_figure2(cache=RunCache(root=root), **kwargs)
    finally:
        Simulator.__init__ = original_init
    assert warm == cold


def _sleep_task(seconds: float) -> float:
    import time

    time.sleep(seconds)
    return seconds


#: a skewed grid: one slow point among many fast ones (the shape that
#: makes static sharding idle the pool behind its slowest shard)
_SKEWED_GRID = (0.15,) + (0.01,) * 12


def _static_shard_map(fn, items, jobs):
    """The pre-PR dispatch: split the grid into ``jobs`` contiguous
    shards, one per worker, decided before anything runs."""
    from repro.parallel import _mp_context

    chunk = (len(items) + jobs - 1) // jobs
    with _mp_context().Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=chunk)


def test_sweep_dispatch_work_stealing(benchmark):
    """Dynamic shared-queue dispatch on the skewed grid: the slow point
    occupies one worker while the other drains every fast point."""
    from repro.parallel import run_map

    results = benchmark(lambda: run_map(_sleep_task, _SKEWED_GRID, jobs=2))
    assert results == list(_SKEWED_GRID)


def test_sweep_dispatch_static_sharding(benchmark):
    """Reference point for the work-stealing case: the same skewed grid
    under static sharding, whose wall time is slowest-shard bound."""
    results = benchmark(
        lambda: _static_shard_map(_sleep_task, _SKEWED_GRID, jobs=2)
    )
    assert results == list(_SKEWED_GRID)


def test_span_tracking_lifecycle(benchmark):
    """Open, account and close 20k causal spans under one parent — the
    shape of an attack train fan-out.  Span IDs are BLAKE2s digests, so
    this tracks the hashing + dict bookkeeping cost per span."""
    from repro.obs.spans import SpanTracker

    def run():
        tracker = SpanTracker(seed=1, max_spans=50_000)
        parent = tracker.start("cnc.command", 0.0, entity="udpplain")
        for index in range(20_000):
            span = tracker.start("attack.train", float(index),
                                 entity="bot", parent=parent)
            tracker.deliver(span.span_id, 1, nbytes=512)
            tracker.end(span, float(index) + 1.0)
        tracker.end(parent, 20_000.0)
        return len(tracker), len(tracker.tree())

    count, roots = benchmark(run)
    assert count == 20_001
    assert roots == 1  # every train nested under the command


def test_flight_recorder_note_throughput(benchmark):
    """100k landmarks through the always-on ring + one dump.  The ring
    (deque maxlen) must keep note() O(1) regardless of how far past
    capacity the run gets."""
    from repro.obs.recorder import FlightRecorder

    def run():
        recorder = FlightRecorder(capacity=256)
        for index in range(100_000):
            recorder.note("container.spawn", float(index), name="dev0")
        dump = recorder.dump("bench", 100_000.0)
        return recorder.noted, dump["evicted"], len(dump["notes"])

    noted, evicted, retained = benchmark(run)
    assert noted == 100_000
    assert retained == 256
    assert evicted == 100_000 - 256


def test_traced_e2e_run(benchmark):
    """The tiny end-to-end scenario under ``Observatory.full()`` —
    tracer, spans and recorder all live.  Tracks the price of
    full instrumentation on a real run, and asserts the causal tree
    still reconstructs (recruitment chain + flood attribution)."""
    from repro.core.config import SimulationConfig
    from repro.core.framework import DDoSim
    from repro.obs import Observatory

    config = SimulationConfig(
        n_devs=2, seed=1, attack_duration=10.0, recruit_timeout=30.0,
        sim_duration=120.0, protection_profiles=((),),
    )

    def run():
        ddosim = DDoSim(config, observatory=Observatory.full())
        ddosim.run()
        kinds = ddosim.obs.spans.kinds()
        delivered = sum(span.packets_delivered
                        for span in ddosim.obs.spans.spans())
        return kinds, delivered

    kinds, delivered = benchmark(run)
    assert kinds["cnc.recruit"] == 2
    assert kinds["attack.train"] == 2
    assert delivered > 0


def test_tcp_stream_throughput(benchmark):
    """Transfer 200 kB over the simulated TCP."""
    from repro.netsim.process import SimProcess
    from repro.netsim.sockets import TcpServerSocket, TcpSocket

    blob = b"x" * 200_000

    def run():
        sim = Simulator()
        star = StarInternet(sim)
        node_a = Node(sim, "a")
        node_b = Node(sim, "b")
        star.attach_host(node_a, 100e6, delay=0.001)
        star.attach_host(node_b, 100e6, delay=0.001)
        server = TcpServerSocket(node_b, 80)
        received = []

        def server_proc():
            sock = yield server.accept()
            data = yield from sock.read_all()
            received.append(len(data))

        def client_proc():
            sock = TcpSocket.connect(node_a, star.address_of(node_b), 80)
            yield sock.wait_connected()
            sock.send(blob)
            sock.close()

        SimProcess(sim, server_proc(), name="server")
        SimProcess(sim, client_proc(), name="client")
        sim.run(until=120.0)
        return received[0] if received else 0

    transferred = benchmark(run)
    assert transferred == len(blob)
