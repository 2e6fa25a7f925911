"""Double-run determinism harness: prove bit-identity, localize drift.

The repo's contract — the same (config, seed) is byte-identical,
run-to-run and across ``--jobs`` — is what the result cache and the
parallel sweeps stand on.  This harness *executes* the contract:

1. **double-run**: run one config twice under a full trace observatory
   and compare the canonical trace (every ``repro.obs`` event, wall
   clock stripped), then one fingerprint line per subsystem — a
   SHA-256 of its end state (:func:`capture_fingerprint`) — and the
   serialized :class:`RunResult`.  On a mismatch it reports the **first
   diverging line**: the closest observable to the root cause, since
   everything after it is cascade.  A subsystem whose end state drifted
   while every trace event agreed is named by its fingerprint line.
2. **jobs**: run a figure-2-style sweep at ``jobs=1`` and ``jobs=N``
   and compare rows byte-for-byte, proving dispatch order cannot leak
   into results.

``repro verify-determinism`` is a thin CLI over
:func:`verify_determinism`; CI runs it on a small grid as a gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: recursion guard for scheduled-event argument descriptions
_MAX_DESCRIBE_DEPTH = 4


@dataclass(frozen=True)
class Divergence:
    """First position where two runs disagree."""

    index: int
    left: Optional[str]    # None when one side is shorter
    right: Optional[str]

    def to_dict(self) -> dict:
        return {"index": self.index, "left": self.left, "right": self.right}


@dataclass
class CheckResult:
    """Outcome of one determinism check."""

    name: str
    identical: bool
    compared: int                      # events or rows compared
    divergence: Optional[Divergence] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "identical": self.identical,
            "compared": self.compared,
            "divergence": self.divergence.to_dict() if self.divergence else None,
            "detail": self.detail,
        }


@dataclass
class DeterminismReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return all(check.identical for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "identical": self.identical,
            "checks": [check.to_dict() for check in self.checks],
        }

    def format_text(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok" if check.identical else "DIVERGED"
            lines.append(f"{check.name:<24} {status:<9} "
                         f"({check.compared} compared) {check.detail}".rstrip())
            if check.divergence is not None:
                div = check.divergence
                lines.append(f"  first divergence at #{div.index}:")
                lines.append(f"    run A: {div.left}")
                lines.append(f"    run B: {div.right}")
        verdict = ("determinism contract holds: runs are bit-identical"
                   if self.identical else
                   "DETERMINISM VIOLATION: see first diverging event above")
        lines.append(verdict)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
def canonical_trace_lines(tracer) -> List[str]:
    """Every buffered trace event as one canonical JSON line.

    Each line holds the event's name, virtual time, position in its
    type's ring and fields, and the lines are sorted — a total order
    built only from deterministic inputs, so two byte-identical runs
    produce byte-identical line sequences.
    """
    lines = []
    for name in tracer.event_types():
        for position, event in enumerate(tracer.events(name)):
            payload = {"event": event.name, "t": event.t, "n": position}
            payload.update({
                key: value for key, value in event.fields.items()
            })
            lines.append(json.dumps(payload, sort_keys=True, default=str))
    lines.sort()
    return lines


def first_divergence(left: Sequence[str], right: Sequence[str]) -> Optional[Divergence]:
    """First index where the sequences disagree, or None if identical."""
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return Divergence(index=index, left=a, right=b)
    if len(left) != len(right):
        index = min(len(left), len(right))
        longer = left if len(left) > len(right) else right
        extra = longer[index]
        return Divergence(
            index=index,
            left=extra if len(left) > len(right) else None,
            right=extra if len(right) > len(left) else None,
        )
    return None


# ----------------------------------------------------------------------
# End-state fingerprints
# ----------------------------------------------------------------------
def state_digest(payload) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``.

    ``repr`` floats round-trip exactly under :func:`json.dumps`, so two
    states digest equal iff every float/int/str in them is identical.
    """
    encoded = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _rng_token(rng) -> Optional[str]:
    """Compact digest of one random.Random's full Mersenne state."""
    if rng is None:
        return None
    return hashlib.sha256(repr(rng.getstate()).encode("utf-8")).hexdigest()


def _describe(value, depth: int = 0):
    """A JSON-able, *deterministic* description of one scheduled-event
    argument.

    ``Packet.uid`` comes from a process-global counter, so packets are
    described by their deterministic shape (size, count, spacing) and
    never by identity.  Unknown objects degrade to ``[type, name]`` —
    enough to catch a different object showing up at the same slot.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if depth >= _MAX_DESCRIBE_DEPTH:
        return type(value).__name__
    if isinstance(value, (list, tuple)):
        return [_describe(item, depth + 1) for item in value]
    from repro.netsim.packet import Packet

    if isinstance(value, Packet):
        return [
            "pkt",
            value.size,
            getattr(value, "count", 1),
            getattr(value, "spacing", 0.0),
        ]
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return [type(value).__name__, name]
    return [type(value).__name__, str(value) if isinstance(value, type) else ""]


def _scheduler_entries(sim) -> List[list]:
    """The pending event queue as ``[time, seq, cancelled, site, args]``
    rows in total (time, seq) order — tombstones included, because a
    cancelled-but-not-compacted entry still shifts heap internals."""
    from repro.obs.trace import site_of

    entries = []
    for time, seq, callback, args, handle in sim.fingerprint_events():
        entries.append(
            [
                time,
                seq,
                int(handle is not None and handle.cancelled),
                site_of(callback),
                [_describe(arg) for arg in args],
            ]
        )
    entries.sort(key=lambda row: (row[0], row[1]))
    return entries


def capture_fingerprint(ddosim) -> Dict[str, str]:
    """Per-subsystem content hashes of one DDoSim's complete live state.

    Keys are stable subsystem names, so two runs compare key by key and
    a divergence report names the layer that drifted.
    """
    sim = ddosim.sim
    fingerprint: Dict[str, str] = {}

    fingerprint["clock"] = state_digest(
        [sim.now, sim.events_executed, sim._seq, sim.pending_events]
    )
    fingerprint["scheduler"] = state_digest(_scheduler_entries(sim))
    fingerprint["rng"] = state_digest(
        [[name, _rng_token(rng)] for name, rng in ddosim.named_rngs()]
    )

    star = ddosim.star
    fingerprint["network"] = state_digest(
        star.fingerprint_state() if hasattr(star, "fingerprint_state") else []
    )

    engine = ddosim.flow_engine
    fingerprint["flows"] = state_digest(
        engine.fingerprint_state() if engine is not None else []
    )

    attacker = ddosim.attacker
    fingerprint["botnet"] = state_digest(
        {
            "cnc": attacker.cnc.fingerprint_state(),
            "exploits_delivered": attacker.exploits_delivered,
            "leaks_harvested": attacker.leaks_harvested,
        }
    )
    fingerprint["devs"] = state_digest(ddosim.devs.fingerprint_state())

    injector = ddosim.fault_injector
    fingerprint["faults"] = state_digest(
        injector.fingerprint_state() if injector is not None else []
    )

    fingerprint["sink"] = state_digest(ddosim.tserver.sink.fingerprint_state())
    fingerprint["containers"] = state_digest(
        [
            [name, container.state, container.memory_bytes()]
            for name, container in ddosim.runtime.containers.items()
        ]
    )
    fingerprint["metrics"] = state_digest(ddosim.obs.metrics.snapshot())
    return fingerprint


def fingerprint_lines(ddosim) -> List[str]:
    """One canonical ``{"fingerprint": <subsystem>, "sha256": ...}``
    line per subsystem, in the fingerprint's fixed subsystem order."""
    return [
        json.dumps({"fingerprint": name, "sha256": digest}, sort_keys=True)
        for name, digest in capture_fingerprint(ddosim).items()
    ]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def traced_run(config) -> Tuple[str, List[str]]:
    """(serialized RunResult, canonical trace lines followed by the
    end-state fingerprint lines) for one run."""
    from repro.core.framework import DDoSim
    from repro.obs import Observatory
    from repro.serialization import result_to_json

    ddosim = DDoSim(config, observatory=Observatory.full())
    result = ddosim.run()
    lines = canonical_trace_lines(ddosim.obs.tracer) + fingerprint_lines(ddosim)
    return result_to_json(result), lines


def verify_double_run(
    config,
    run_fn: Callable[[object], Tuple[str, List[str]]] = traced_run,
) -> CheckResult:
    """Execute ``config`` twice; compare result bytes, full traces and
    end-state fingerprints.

    ``run_fn`` is injectable so the harness itself is testable: the
    suite feeds it a deliberately nondeterministic runner and asserts
    the first diverging event is localized exactly.
    """
    result_a, trace_a = run_fn(config)
    result_b, trace_b = run_fn(config)
    divergence = first_divergence(trace_a, trace_b)
    if divergence is not None:
        return CheckResult(
            name="double-run", identical=False,
            compared=min(len(trace_a), len(trace_b)),
            divergence=divergence,
            detail="same config, two runs: trace or end state diverges",
        )
    if result_a != result_b:
        return CheckResult(
            name="double-run", identical=False, compared=len(trace_a),
            divergence=first_divergence(
                result_a.splitlines(), result_b.splitlines()
            ),
            detail="traces and end states identical but serialized "
                   "results differ",
        )
    return CheckResult(
        name="double-run", identical=True, compared=len(trace_a),
        detail=f"{len(trace_a)} trace and fingerprint lines bit-identical",
    )


def verify_jobs(
    devs_grid: Sequence[int] = (2, 4),
    seed: int = 1,
    jobs: int = 4,
    base_config=None,
) -> CheckResult:
    """figure2 sweep rows at ``jobs=1`` vs ``jobs=N`` must match bytes."""
    from repro.core.experiment import FIGURE2_CHURN, run_figure2

    serial = run_figure2(devs_grid=tuple(devs_grid),
                         churn_modes=FIGURE2_CHURN, seed=seed, jobs=1,
                         base_config=base_config)
    parallel = run_figure2(devs_grid=tuple(devs_grid),
                           churn_modes=FIGURE2_CHURN, seed=seed, jobs=jobs,
                           base_config=base_config)
    serial_rows = [json.dumps(row, sort_keys=True) for row in serial]
    parallel_rows = [json.dumps(row, sort_keys=True) for row in parallel]
    divergence = first_divergence(serial_rows, parallel_rows)
    return CheckResult(
        name=f"jobs 1-vs-{jobs}",
        identical=divergence is None,
        compared=len(serial_rows),
        divergence=divergence,
        detail=(f"{len(serial_rows)} sweep rows bit-identical"
                if divergence is None else
                "parallel dispatch changed sweep rows"),
    )


def verify_determinism(
    config=None,
    devs_grid: Sequence[int] = (2, 4),
    seed: int = 1,
    jobs: int = 4,
    flow: str = "off",
) -> DeterminismReport:
    """The full gate: double-run trace and end-state identity + jobs
    row identity.

    ``flow`` puts the fluid-flow datapath under the same contract: the
    checked config (and the sweep's base config) run with that crossover
    mode, so ``verify-determinism --flow all`` proves the analytic
    solver is as bit-stable as the packet path.
    """
    base_config = None
    if config is None:
        from repro.core.config import SimulationConfig

        config = SimulationConfig(n_devs=max(devs_grid), seed=seed,
                                  flood_flow=flow)
    if flow != "off":
        from repro.core.config import SimulationConfig

        base_config = SimulationConfig(flood_flow=flow)
    report = DeterminismReport()
    report.checks.append(verify_double_run(config))
    report.checks.append(verify_jobs(devs_grid=devs_grid, seed=seed, jobs=jobs,
                                     base_config=base_config))
    return report
