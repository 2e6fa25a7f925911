#!/bin/sh
# Regenerate the golden outputs into DIR: three Figure 2 grids (one per
# --flow tier) and the result + metrics JSON of three single runs.  Run
# it from the repository root with the package importable (PYTHONPATH=src
# or an editable install); it takes about 20 s.  To check the bytes:
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
