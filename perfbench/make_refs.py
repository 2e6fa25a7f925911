"""Regenerate the stored packet-tier references (``refs.json``).

Every point any workload runs (the 12 Figure 2 quick-grid points and the
600-Dev run) is simulated at the exact per-packet tier, for each seed in
``REF_SEEDS`` (seed 1 and the held-out seed 2).
The benchmark judges its runs against these records, so a reference is
always reproducible from the code instead of typed in.

Usage (from the repository root; 6 to 8 minutes per seed on a 2-core
Xeon, one core used)::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from workloads import (
    REF_SEEDS,
    REFS_PATH,
    SRC,
    WORKLOADS,
    make_config,
    point_key,
    result_digest,
)


def reference_points():
    """Every (churn, n_devs) point of every workload, in a fixed order."""
    points = []
    for _tier, grid in WORKLOADS.values():
        for point in grid:
            if point not in points:
                points.append(point)
    return sorted(points, key=lambda p: (p[1], p[0]))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    sys.path.insert(0, SRC)
    from repro import DDoSim
    from repro.serialization import result_to_json

    seeds = {}
    for seed in REF_SEEDS:
        records = {}
        for churn, n_devs in reference_points():
            started = time.perf_counter()
            result = DDoSim(make_config("packet", churn, n_devs, seed)).run()
            records[point_key(churn, n_devs)] = {
                "digest": result_digest(result_to_json(result)),
                "avg_received_kbps": result.attack.avg_received_kbps,
                "bots_at_attack": result.attack.bots_commanded,
            }
            print(f"seed {seed} {point_key(churn, n_devs)}: "
                  f"{result.events_executed} events, "
                  f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
        seeds[str(seed)] = records
    document = {"tier": "packet", "seeds": seeds}
    tmp = REFS_PATH + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, REFS_PATH)
    print(f"wrote {REFS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
