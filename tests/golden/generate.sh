#!/bin/sh
# Regenerate the golden outputs into DIR: three Figure 2 grids (one per
# --flow tier) and the result + metrics JSON of seven single runs.  Run
# it from the repository root with the package importable (PYTHONPATH=src
# or an editable install); it takes about 25 s.  To check the bytes:
#
#   sh tests/golden/generate.sh DIR
#   (cd DIR && sha256sum -c "$OLDPWD/tests/golden/SHA256SUMS")
#
# A change that moves these bytes on purpose rewrites SHA256SUMS
# (`cd DIR && sha256sum *.json`) and says why in CHANGES.md.
set -eu
out=$(mkdir -p "$1" && cd "$1" && pwd)
repro() { python -m repro "$@" >/dev/null; }
for flow in off auto all; do
    repro figure2 --grid 3 10 --seed 1 --no-cache --flow "$flow" \
        --json "$out/figure2-flow-$flow.json"
done
repro run --devs 6 --seed 3 --churn dynamic --faults examples/fault_plan.json \
    --json "$out/run-dynamic-faults.json" --metrics-out "$out/run-dynamic-faults.metrics.json"
repro run --devs 6 --seed 3 --churn static --flow auto --train 8 \
    --json "$out/run-static-auto-train8.json" --metrics-out "$out/run-static-auto-train8.metrics.json"
repro run --devs 8 --seed 2 \
    --json "$out/run-devs8.json" --metrics-out "$out/run-devs8.metrics.json"
# Fully fluid past saturation, with churn: pins the fluid engine's
# link-change epochs byte for byte.
repro run --devs 120 --seed 2 --churn dynamic --flow all \
    --json "$out/run-dynamic-flow-all.json" --metrics-out "$out/run-dynamic-flow-all.metrics.json"
# Per-packet floods, as trains and one packet at a time, two of them
# killed mid-attack by container crashes (flood_crash_plan.json).
for train in 8 1; do
    repro run --devs 6 --seed 3 --train "$train" --faults tests/golden/flood_crash_plan.json \
        --json "$out/run-flood-crash-train$train.json" \
        --metrics-out "$out/run-flood-crash-train$train.metrics.json"
done
# Per-packet trains into 5-packet queues: every 8-packet train is split
# by drop-tail, which pins queue drops and the link byte counters.
repro run --config tests/golden/small_queue.json \
    --json "$out/run-small-queue.json" --metrics-out "$out/run-small-queue.metrics.json"
