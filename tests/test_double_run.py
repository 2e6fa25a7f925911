"""Run-twice byte identity and the per-subsystem end-state fingerprint.

Two runs of one config must serialize to the same result JSON, the same
metrics snapshot and the same fingerprint tree, across the packet path,
both fluid-flow crossover modes, packet trains, fault plans and churn.
A run under ``Observatory.full()`` — the event tracer that
``--trace-out``, ``report`` and ``verify-determinism`` turn on, and from
which the causal tree is derived — must give the result JSON and the
metrics snapshot of a default run.
The double-run gate appends one fingerprint line per subsystem to the
trace it compares, so a subsystem whose end state drifted is named even
when every trace event agrees.
"""

import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.framework import DDoSim
from repro.faults import FaultPlan, FaultSpec
from repro.obs import Observatory
from repro.serialization import result_to_json
from repro.simlint import capture_fingerprint, verify_double_run


def _config(**overrides):
    base = dict(n_devs=3, seed=5, attack_duration=20.0, sim_duration=160.0)
    base.update(overrides)
    return SimulationConfig(**base)


#: link faults that overlap the attack, so mid-link-down and mid-degrade
#: state is part of what both runs must reproduce
_FAULT_PLAN = FaultPlan(
    faults=(
        FaultSpec(kind="link_down", target="dev*", at=30.0, duration=20.0,
                  pick=1),
        FaultSpec(kind="link_degrade", target="dev*", at=25.0, duration=30.0,
                  loss_rate=0.05),
    )
)

_HARD_CASES = {
    "packet": _config(),
    "flow-auto": _config(flood_flow="auto"),
    "flow-all": _config(flood_flow="all"),
    "train": _config(flood_train=8),
    "faults": _config(faults=_FAULT_PLAN),
    "churn-faults-flow": _config(churn="dynamic", flood_flow="auto",
                                 faults=_FAULT_PLAN),
}


def _run_state(config):
    """(result JSON, canonical metrics JSON, fingerprint tree) of one run."""
    ddosim = DDoSim(config, observatory=Observatory())
    result = ddosim.run()
    return (
        result_to_json(result),
        json.dumps(ddosim.obs.metrics.snapshot(), sort_keys=True),
        capture_fingerprint(ddosim),
    )


class TestRunTwiceByteIdentity:
    @pytest.mark.parametrize("case", sorted(_HARD_CASES))
    def test_two_runs_match(self, case):
        config = _HARD_CASES[case]
        assert _run_state(config) == _run_state(config)


#: 4-Dev configs across the three datapath tiers
_LOOP_CASES = {
    "packet-dynamic-churn": dict(churn="dynamic", churn_interval=5.0),
    "auto-train8-static-churn": dict(churn="static", flood_flow="auto",
                                     flood_train=8),
    "flow-all": dict(flood_flow="all"),
}


class TestInstrumentedLoop:
    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_instrumented_run_matches_default_run(self, case):
        config = SimulationConfig(n_devs=4, seed=3, attack_duration=10.0,
                                  sim_duration=120.0, **_LOOP_CASES[case])
        default = DDoSim(config)
        instrumented = DDoSim(config, observatory=Observatory.full())
        assert result_to_json(instrumented.run()) == result_to_json(default.run())
        assert instrumented.obs.metrics.snapshot() == default.obs.metrics.snapshot()


class TestFingerprintDeterminism:
    def test_identical_builds_fingerprint_identically(self):
        config = SimulationConfig(n_devs=2, seed=9, attack_duration=10.0,
                                  sim_duration=120.0)
        left = capture_fingerprint(DDoSim(config, observatory=Observatory()))
        right = capture_fingerprint(DDoSim(config, observatory=Observatory()))
        assert left == right

    def test_different_seed_fingerprints_differently(self):
        base = dict(n_devs=2, attack_duration=10.0, sim_duration=120.0)
        left = capture_fingerprint(
            DDoSim(SimulationConfig(seed=1, **base), observatory=Observatory())
        )
        right = capture_fingerprint(
            DDoSim(SimulationConfig(seed=2, **base), observatory=Observatory())
        )
        assert left != right


class TestFingerprintLines:
    def test_end_state_drift_is_named_by_its_fingerprint_line(
        self, monkeypatch
    ):
        runs = []
        original_run = DDoSim.run

        def run_then_drift(self):
            result = original_run(self)
            runs.append(self)
            if len(runs) == 2:
                # After the result and every trace event are final.
                self.tserver.sink.total_bytes += 1
            return result

        monkeypatch.setattr(DDoSim, "run", run_then_drift)
        check = verify_double_run(
            SimulationConfig(n_devs=2, seed=1, attack_duration=10.0,
                             sim_duration=120.0)
        )
        assert not check.identical
        left = json.loads(check.divergence.left)
        right = json.loads(check.divergence.right)
        assert left["fingerprint"] == right["fingerprint"] == "sink"
        assert left["sha256"] != right["sha256"]
