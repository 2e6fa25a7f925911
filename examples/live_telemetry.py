#!/usr/bin/env python3
"""Real-time analysis at any stage: telemetry over a full run.

The paper: "DDoSim permits real-time analysis and investigation of
botnet DDoS attacks at any stage, allowing users to quantify attack
severity ..., assess botnet magnitude ..., and scrutinize compromised
devices."  This example samples the whole system every 5 simulated
seconds and renders the run's life cycle — recruitment ramp, idle
pre-attack phase, the flood, cooldown — as an ASCII timeline.

It also runs fully instrumented (``Observatory.full()``) to show the
rest of the observability layer: the typed event trace — when each
device was recruited, when exploits landed — the causal tree derived
from it that chains exploit → recruit → flood train, and the always-on
flight recorder.

Run:  python examples/live_telemetry.py
"""

from collections import Counter

from repro.core import DDoSim, SimulationConfig, TelemetrySampler
from repro.obs import Observatory, causal_tree


def walk(nodes):
    """Every node of a causal forest, parents first."""
    for node in nodes:
        yield node
        yield from walk(node["children"])


def main() -> None:
    config = SimulationConfig(
        n_devs=20,
        seed=8,
        attack_duration=60.0,
        recruit_timeout=40.0,
        sim_duration=300.0,
    )
    ddosim = DDoSim(config, observatory=Observatory.full())
    telemetry = TelemetrySampler(ddosim, interval=5.0)
    print(f"running {config.n_devs}-device scenario with 5 s telemetry ...\n")
    result = ddosim.run()

    peak = max(telemetry.series.peak_received_rate_kbps(), 1.0)
    print("  t(s)  bots  online  rx kbps   timeline")
    for sample in telemetry.series.samples:
        bar = "#" * int(40 * sample.received_rate_kbps / peak)
        marker = ""
        if abs(sample.time - result.attack.issued_at) < 2.5:
            marker = "  <- attack command"
        print(
            f"{sample.time:6.0f}  {sample.bots_connected:4d}  "
            f"{sample.devs_online:6d}  {sample.received_rate_kbps:8.0f}"
            f"   {bar}{marker}"
        )

    print(
        f"\nbotnet magnitude over time (infected devices): "
        f"{telemetry.series.infection_curve()[:12]} ..."
    )
    print(
        f"attack: {result.attack.avg_received_kbps:.0f} kbps average, "
        f"{telemetry.series.peak_received_rate_kbps():.0f} kbps peak "
        f"(sampled)"
    )

    # The typed event trace: scrutinize individual compromises.
    tracer = ddosim.obs.tracer
    print("\nfirst five recruitments (from the cnc.recruit event stream):")
    for event in tracer.events("cnc.recruit")[:5]:
        print(
            f"  t={event.t:7.2f}s  bot {event.fields['bot_id']:3d}  "
            f"{event.fields['address']}  [{event.fields['architecture']}]"
        )
    counts = tracer.counts()
    interesting = ("exploit.attempt", "exploit.success", "cnc.recruit",
                   "queue.drop")
    print("\nevent counts: " + ", ".join(
        f"{name}={counts.get(name, 0)}" for name in interesting
    ))

    # The causal tree, derived from the same event trace: why each bot
    # flooded, not just that it did.
    tree = causal_tree(tracer, ddosim.tserver.sink.flow_records())
    kinds = Counter(node["kind"] for node in walk(tree))
    print("\ncausal tree: " + ", ".join(
        f"{kind}={count}" for kind, count in sorted(kinds.items())
    ))
    chain = next(root for root in tree if root["kind"] == "exploit")
    print("one recruitment chain, exploit to bot:")
    node, depth = chain, 0
    while node is not None:
        entity = node.get("entity", "")
        print(f"  {'  ' * depth}{node['kind']}  [{entity}]  "
              f"status={node['status']}")
        children = node.get("children", [])
        node, depth = (children[0], depth + 1) if children else (None, depth)
    trains = [node for node in walk(tree) if node["kind"] == "attack.train"]
    sent = sum(train.get("packets_sent", 0) for train in trains)
    delivered = sum(train["packets_delivered"] for train in trains)
    print(f"flood attribution: {len(trains)} trains sent {sent} packets, "
          f"{delivered} reached the sink")

    # The flight recorder rides along in every run (even the default
    # Observatory); nothing died here, so the ring holds landmarks but
    # no dump was forced.
    recorder = ddosim.obs.recorder
    print(f"\nflight recorder: {recorder.noted} landmarks noted, "
          f"{len(recorder.recent())} in the ring, "
          f"{len(recorder.dumps)} dumps (none forced — clean run)")


if __name__ == "__main__":
    main()
