"""Paper-experiment benchmark: time a DDoSim workload end to end.

Usage, from the repository root (standard library only)::

    python3 perfbench/run.py --workload packet-50 [--seed 1] [--seconds 60] [--trace 0|1]

Workloads (see ``workloads.py``), every point the paper's 100 s
UDP-PLAIN attack with 512 B payloads on the star topology:

* ``packet-50``: 50 Devs at the exact per-packet tier.  Nearly all time
  is the attack's per-packet path: scheduler, link, IP, packet objects.
* ``fluid-600``: 600 Devs at the fluid tier.  Recruitment (exploits, TCP
  downloads, C&C dial-in) and the flow solver dominate; the per-packet
  path is nearly idle.
* ``fig2-hybrid``: the ``repro figure2`` quick grid (Devs 10/50/100/150 x
  churn none/static/dynamic, 12 points in one process) at the hybrid
  tier: packet trains into a saturated bottleneck, churn-driven flow
  re-solves and 12 set-ups.  One sample takes 20-30 s, so a run of the
  length the other two need holds at most two, and listing it would
  shorten every run; it is run by hand and ``BENCHMARK.json`` lists only
  the other two.

Load shape: closed batch.  Each sample is one fresh single-threaded
process running the whole workload; the next starts when it has exited.
After the bytecode and page caches are filled, a run repeats rounds of a
few set-up-only processes and one whole sample while another round fits
in ``--seconds``, then tops the set-up-only processes up to
``SETUP_SAMPLES``.

End-to-end metrics (``--trace 0``), medians over the run's samples:

* ``wall_s``: from spawning the process until its results are serialized;
* ``setup_s``: the part of it before the event loop: interpreter start,
  ``repro`` imports, config, ``DDoSim(...)`` and ``build()`` (summed over
  a grid's points);
* ``peak_rss_mb``: the process's peak resident set;
* ``rate_acc_pct``: 100 x (1 - worst relative error of
  ``avg_received_kbps`` against the stored packet-tier reference).

The shared host's speed changes by up to 2x in stretches of seconds to
minutes, unevenly across its CPUs: on a 2-core Xeon VM identical
``fluid-600`` samples took 5.6 to 12.6 s, and over ten 60 s runs the
runs' medians spread (IQR / median) 9-25%.  ``wall_s`` and ``setup_s``
are therefore read at a reference host speed: every timed workload
process runs the host-speed probe (``probe.py``) between its own
bytecodes, and each sample's time, less the probe's share, is scaled by
``PROBE_REF_S`` over the probe's mean unit time in that process.  The
results file keeps the raw times and the probe's counts beside the
scaled ones.

Every point is an operation, checked against ``refs.json`` (regenerate
with ``make_refs.py``): the packet tier must reproduce the reference
digest exactly; fast tiers must keep ``bots_at_attack`` and stay within
the 1% rate budget.  A point also fails if it raises or if its samples
disagree.  Any failure names the workload and point on stderr and the
command exits 1.

``--trace 1`` instead runs one untraced sample and one traced run
(``layertrace.py``) and prints the per-layer metrics; the traced results
must hash the same as the untraced ones, and ``run.trace_overhead_x`` is
the ratio of their wall times.  ``--seed n`` selects the n-th seed that
has stored references, cyclically.  Each run writes a results file with its
provenance under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from probe import PROBE_REF_S, at_reference_speed
from workloads import (
    HERE,
    ROOT,
    SRC,
    WORKLOADS,
    check_point,
    load_refs,
    point_key,
    simulation_seed,
)

OUT = os.path.join(HERE, "out")
#: the benchmark's definition: metric names, units and bounds
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: set-up-only processes per run, after the one that fills the caches.
#: Each lasts 0.1-0.2 s, the noisiest length on a shared host, so
#: ``setup_s`` is the median of many.
SETUP_SAMPLES = 24
#: set-up-only processes run before each whole sample, so a drift of the
#: host's speed during a run reaches both kinds of sample alike
SETUP_BATCH = 6
#: a worker that takes longer than this is killed and counted as failed
WORKER_TIMEOUT_S = 170

class WorkerFailed(RuntimeError):
    """A workload process exited abnormally or printed no report."""


def _worker_env() -> dict:
    """One thread, a bytecode cache under ``out/`` (so imports cost what
    an installed user pays and the source tree stays clean), fixed
    hashing, and ``repro`` from this checkout's ``src``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONPYCACHEPREFIX": os.path.join(OUT, "pycache"),
        "PYTHONHASHSEED": "0",
        "PYTHONUNBUFFERED": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _run_worker(env: dict, workload: str, seed: int, setup_only: bool = False,
                probe: bool = False, trace_out: str = "") -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed)]
    if setup_only:
        command.append("--setup-only")
    if probe:
        command.append("--probe")
    if trace_out:
        command += ["--trace-out", trace_out]
    spawned = time.perf_counter()
    proc = subprocess.run(
        command + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    if probe and report["probe_units"] == 0:
        raise WorkerFailed("no probe unit ran in the worker")
    return report


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _judge(tier: str, samples: list, refs: dict) -> tuple:
    """Check every point of every sample; returns (failures, worst error).

    ``failures`` maps a point key to its first failure message."""
    failures = {}
    worst = 0.0
    first = {point["key"]: point for point in samples[0]["points"]}
    for sample in samples:
        for point in sample["points"]:
            key = point["key"]
            if key in failures:
                continue
            if "error" in point:
                failures[key] = f"raised {point['error']}"
                continue
            if point["digest"] != first[key].get("digest"):
                failures[key] = "result differs between runs of one seed"
                continue
            error, message = check_point(tier, point, refs[key])
            worst = max(worst, error)
            if message is not None:
                failures[key] = message
    return failures, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    seed = simulation_seed(args.seed)
    refs = load_refs()["seeds"][str(seed)]
    tier, grid = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    env = _worker_env()

    # Fill the bytecode cache (for this tree and the standard library
    # modules a run imports) and the page cache before timing.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "repro")],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    _run_worker(env, args.workload, seed, setup_only=True)

    setup_runs = []
    samples = []
    walls = []
    setups = []
    traced = None
    try:
        if args.trace:
            samples.append(_run_worker(env, args.workload, seed))
            trace_out = os.path.join(OUT, f"spans-{args.workload}-seed{seed}.jsonl")
            traced = _run_worker(env, args.workload, seed, trace_out=trace_out)
        else:
            # Rounds of set-up-only processes and one whole sample.
            # Start another round only while one more of the last one's
            # length still fits in the window, so a run never outlasts
            # --seconds by more than its first round.
            started = time.perf_counter()
            while True:
                round_started = time.perf_counter()
                setup_runs += [
                    _run_worker(env, args.workload, seed, setup_only=True, probe=True)
                    for _ in range(min(SETUP_BATCH, SETUP_SAMPLES - len(setup_runs)))
                ]
                samples.append(_run_worker(env, args.workload, seed, probe=True))
                now = time.perf_counter()
                if now - started + (now - round_started) > args.seconds:
                    break
            setup_runs += [
                _run_worker(env, args.workload, seed, setup_only=True, probe=True)
                for _ in range(SETUP_SAMPLES - len(setup_runs))
            ]
            walls = [at_reference_speed(s, s["wall_s"]) for s in samples]
            setups = [at_reference_speed(r, r["setup_s"]) for r in setup_runs + samples]
    except (WorkerFailed, subprocess.TimeoutExpired) as error:
        failures = {point_key(*point): f"workload process failed: {error}"
                    for point in grid}
        samples = []
    else:
        # The traced run is judged like one more sample: equal digests
        # prove the wrappers left the simulation unchanged.
        failures, worst = _judge(tier, samples + ([traced] if traced else []), refs)

    result = {
        "workload": args.workload,
        "seed": seed,
        "tier": tier,
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "probe_ref_s": PROBE_REF_S,
        "samples": samples,
        "setup_only": setup_runs,
        "wall_at_ref_s": walls,
        "setup_at_ref_s": setups,
        "traced": traced,
    }
    values = {}
    entries = []
    if traced is not None:
        values = dict(traced["layers"])
        values["run.trace_overhead_x"] = traced["wall_s"] / samples[0]["wall_s"]
        entries = spec["per_layer"]
    elif samples:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "rate_acc_pct": 100.0 * (1.0 - worst),
        }
        entries = spec["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
               for entry in entries}
    result["failures"] = failures
    result["metrics"] = metrics
    with open(os.path.join(OUT, f"results-{args.workload}-seed{seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    for key, message in failures.items():
        print(f"FAIL {args.workload} seed {seed} point {key}: {message}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(grid),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
