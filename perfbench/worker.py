"""One workload in one fresh process: the unit ``run.py`` times.

Runs every point of a workload serially through ``repro.parallel.run_map``
(the ``repro figure2`` sweep path with one job) and prints one JSON
line: per point the result digest, the checked outputs and the set-up
time, plus the process's timings and peak RSS.  ``--spawned-at`` is the
parent's ``time.perf_counter()`` just before it started this process;
the clock is system-wide, so the interpreter's start-up counts too.

With ``--setup-only`` each point is only built, which measures
``setup_s`` alone.  With ``--probe`` the host-speed probe (``probe.py``)
runs inside this process from before ``repro`` is imported until the
last point ends, and the line carries its unit count and time.  With
``--trace-out`` the run is traced (see ``layertrace.py``): the line also
carries the per-layer metrics and the kept spans go to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from workloads import SRC, WORKLOADS, make_config, point_key, result_digest


def _counter_totals(snapshot: dict) -> dict:
    return {
        name: sum(children.values())
        for name, children in snapshot["counters"].items()
    }


def _run_point(tier: str, churn: str, n_devs: int, seed: int,
               setup_only: bool) -> dict:
    from repro import DDoSim, serialization

    key = point_key(churn, n_devs)
    started = time.perf_counter()
    try:
        ddosim = DDoSim(make_config(tier, churn, n_devs, seed))
        ddosim.build()
        built = time.perf_counter()
        if setup_only:
            return {"key": key, "started": started, "built": built}
        result = ddosim.run()
        digest = result_digest(serialization.result_to_json(result))
        counters = _counter_totals(ddosim.obs.metrics.snapshot())
    except Exception as error:  # noqa: BLE001 - a failed point is reported, not fatal
        traceback.print_exc()
        return {"key": key, "error": f"{type(error).__name__}: {error}"}
    return {
        "key": key,
        "digest": digest,
        "avg_received_kbps": result.attack.avg_received_kbps,
        "bots_at_attack": result.attack.bots_commanded,
        "events": result.events_executed,
        "started": started,
        "built": built,
        "ended": time.perf_counter(),
        "counters": counters,
    }


def _layer_metrics(tracer, points: list, imported: float, spawned: float,
                   ended: float) -> dict:
    """The per-layer metrics of a traced run (all but trace_overhead_x)."""
    self_s = tracer.layer_self_s()
    ok = [point for point in points if "error" not in point]
    counters = {}
    for point in ok:
        for name, value in point["counters"].items():
            counters[name] = counters.get(name, 0) + value
    events = sum(point["events"] for point in ok)
    schedules = tracer.layer_calls(
        "simulator", "Simulator.schedule_at", "Simulator.schedule_bare",
        "Simulator.schedule_bare_at")
    epochs = counters.get("flow_epochs_total", 0)
    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    metrics.update({
        "simulator.events": events,
        "simulator.ns_per_event": self_s["simulator"] / max(events, 1) * 1e9,
        "simulator.schedules": schedules,
        "simulator.cancelled_pct": 100.0 * tracer.layer_calls(
            "simulator", "ScheduledEvent.cancel") / max(schedules, 1),
        "process.resumes": sum(tracer.calls[name] for name in tracer.step_names),
        "netdevice.sends": tracer.layer_calls("netdevice", "PointToPointDevice.send"),
        "channel.tx_packets": counters.get("link_tx_packets_total", 0),
        "queues.enqueues": tracer.layer_calls("queues", "DropTailQueue.enqueue"),
        "queues.drops": counters.get("queue_drops_total", 0),
        "ip.sends": tracer.layer_calls("ip", "IpStack.send"),
        "ip.receives": tracer.layer_calls("ip", "IpStack.receive"),
        "udp.datagrams": tracer.layer_calls("udp", "Udp.send"),
        "tcp.segments": tracer.layer_calls("tcp", "Tcp.receive"),
        "tcp.retransmits": counters.get("tcp_retransmissions_total", 0),
        "sink.packets": tracer.layer_calls("sink", "PacketSink._on_datagram"),
        "sink.fluid_accounts": tracer.layer_calls("sink", "PacketSink.account_fluid"),
        "flows.epochs": epochs,
        # per run when no solver epoch ran (the engine was never built)
        "flows.us_per_epoch": self_s["flows"] / max(epochs, 1) * 1e6,
        "flows.flows_started": counters.get("flows_started_total", 0),
        "botnet.exploit_attempts": counters.get("exploit_attempts_total", 0),
        "botnet.recruits": counters.get("cnc_recruits_total", 0),
        "container.spawns": counters.get("container_spawns_total", 0),
        "core.churn_events": counters.get("churn_departures_total", 0)
        + counters.get("churn_rejoins_total", 0),
    })
    metrics.update(_phases(tracer.marks, ok, imported - spawned))
    traced_wall = ended - spawned
    metrics["run.unattributed_pct"] = 100.0 * (
        traced_wall - tracer.traced_top_level_s()) / traced_wall
    return metrics


def _phases(marks: list, points: list, import_s: float) -> dict:
    """Per-phase wall time summed over points, from the tracer's marks.

    build: point start to the event loop; recruit: event loop to the
    attack order; attack: attack order to the loop's end; collect: the
    loop's end to the point's serialized result.
    """
    totals = {"build_s": 0.0, "recruit_s": 0.0, "attack_s": 0.0, "collect_s": 0.0}
    for point in points:
        inside = {label: at for label, at in marks
                  if point["started"] <= at <= point["ended"]}
        run_start, run_end = inside["run_start"], inside["run_end"]
        attack = inside.get("attack", run_end)
        totals["build_s"] += run_start - point["started"]
        totals["recruit_s"] += attack - run_start
        totals["attack_s"] += run_end - attack
        totals["collect_s"] += point["ended"] - run_end
    return {"phase.import_s": import_s,
            **{f"phase.{name}": value for name, value in totals.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    probe = None
    if args.probe:
        from probe import TimerProbe

        probe = TimerProbe()
        probe.start()
    tracer = None
    if args.trace_out:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install_import_hook()
    import repro
    from repro import parallel, serialization  # noqa: F401 - imported before timing

    imported = time.perf_counter()
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()

    tier, grid = WORKLOADS[args.workload]

    def run_point(point):
        return _run_point(tier, *point, args.seed, args.setup_only)

    if tracer is not None:
        # Timers and digests are the benchmark's, not the sweep layer's.
        run_point = tracer.unattributed(run_point)
    points = parallel.run_map(run_point, grid, jobs=1)
    if probe is not None:
        probe.stop()
    ended = time.perf_counter()
    report = {
        "import_s": imported - args.spawned_at,
        "setup_s": imported - args.spawned_at + sum(
            point["built"] - point["started"] for point in points
            if "error" not in point),
        "wall_s": ended - args.spawned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points": [
            {name: value for name, value in point.items()
             if name not in ("counters", "started", "built", "ended")}
            for point in points
        ],
    }
    if probe is not None:
        report["probe_units"] = probe.units
        report["probe_busy_s"] = probe.busy_s
    if tracer is not None:
        report["layers"] = _layer_metrics(
            tracer, points, imported, args.spawned_at, ended)
        tracer.write_spans(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
