"""Deterministic fault injection: `FaultPlan` → `FaultInjector` → hooks.

The paper's only failure mode is IoT churn (§IV-A), hardwired into
:mod:`repro.core.churn`.  This module generalises it: a
:class:`FaultPlan` — programmatic or JSON, loadable via
``repro run --faults plan.json`` — schedules typed faults against named
targets, each drawn from a seeded RNG stream so identical (plan, seed)
pairs replay identical fault sequences.

Fault kinds:

* **Link faults** — ``link_down`` (administrative outage window),
  ``link_flap`` (repeated down/up cycles), ``link_degrade``
  (latency/loss/data-rate override window), ``partition`` (hard
  partition at the star router: the router-side device goes
  administratively down, a silent blackhole the host cannot observe).
* **Node/container faults** — ``crash`` (container stops, veth
  detaches), ``crash_restart`` (crash, then a fresh boot
  ``restart_after`` seconds later with the veth re-attached),
  ``memory_kill`` (the largest-RSS process is OOM-killed).
* **Service faults** — ``cnc_outage`` (the C&C daemon and its bot
  sessions die for ``duration`` seconds, then restart; bots re-recruit
  via their reconnect backoff), ``sink_stall`` (the TServer sink stops
  accounting for a window).
* **``churn``** — the paper's churn model expressed as a fault spec;
  with the same seed it reproduces ``config.churn`` runs exactly, so
  the published churn curves are the special case of a one-fault plan.

Administrative state is separate from churn state: a churn rejoin never
resurrects an admin-downed link, and clearing an admin fault restores
whatever churn last decided.  Everything emits through ``repro.obs``
(``fault.inject``/``fault.clear`` trace events, the
``faults_injected_total`` counter family, registered lazily so a run
with an empty plan leaves the metric snapshot untouched).
"""

from __future__ import annotations

import fnmatch
import json
import random
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

FAULT_LINK_DOWN = "link_down"
FAULT_LINK_FLAP = "link_flap"
FAULT_LINK_DEGRADE = "link_degrade"
FAULT_PARTITION = "partition"
FAULT_CRASH = "crash"
FAULT_CRASH_RESTART = "crash_restart"
FAULT_MEMORY_KILL = "memory_kill"
FAULT_CNC_OUTAGE = "cnc_outage"
FAULT_SINK_STALL = "sink_stall"
FAULT_CHURN = "churn"

FAULT_KINDS = (
    FAULT_LINK_DOWN,
    FAULT_LINK_FLAP,
    FAULT_LINK_DEGRADE,
    FAULT_PARTITION,
    FAULT_CRASH,
    FAULT_CRASH_RESTART,
    FAULT_MEMORY_KILL,
    FAULT_CNC_OUTAGE,
    FAULT_SINK_STALL,
    FAULT_CHURN,
)

#: kinds whose target resolves to a host access link
_LINK_KINDS = (FAULT_LINK_DOWN, FAULT_LINK_FLAP, FAULT_LINK_DEGRADE, FAULT_PARTITION)
#: kinds whose target resolves to a container
_CONTAINER_KINDS = (FAULT_CRASH, FAULT_CRASH_RESTART, FAULT_MEMORY_KILL)


class FaultPlanError(ValueError):
    """Malformed fault plan / spec."""


@dataclass
class FaultSpec:
    """One scheduled fault (possibly repeated, jittered, or sampled).

    ``target`` names a component (``dev003``, ``attacker``, ``tserver``)
    or an ``fnmatch`` glob over them (``dev*``); service faults and
    ``churn`` ignore it.  ``pick`` samples that many matching targets
    from the plan's seeded RNG stream, and ``probability`` (scaled by
    the plan's ``intensity``) arms each picked target independently —
    both draws come from the same stream, so replays are exact.
    """

    kind: str
    target: str = "*"
    #: injection time (simulation seconds); per-target jitter is added
    at: float = 0.0
    #: outage/degradation window length (0 = permanent; the restart of a
    #: ``crash_restart`` is governed by ``restart_after`` instead)
    duration: float = 0.0
    #: uniform [0, jitter) seeded start offset, drawn per target
    jitter: float = 0.0
    #: repetitions (flap cycles, repeated windows)
    count: int = 1
    #: spacing between repetition starts
    period: float = 0.0
    #: sample this many matching targets (None = all matches)
    pick: Optional[int] = None
    #: per-target arming probability, scaled by the plan intensity
    probability: float = 1.0
    # --- link_degrade overrides (None = leave the base value) ---------
    delay: Optional[float] = None
    loss_rate: Optional[float] = None
    data_rate_bps: Optional[float] = None
    # --- crash_restart ------------------------------------------------
    restart_after: float = 10.0
    # --- churn (mirrors SimulationConfig's churn block) ---------------
    mode: str = "dynamic"
    interval: float = 20.0
    rejoin_probability: float = 0.5
    phi: Tuple[float, float, float] = (0.16, 0.08, 0.04)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.at < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0 or self.jitter < 0 or self.period < 0:
            raise FaultPlanError("duration/jitter/period must be >= 0")
        if self.count < 1:
            raise FaultPlanError("count must be >= 1")
        if self.count > 1 and self.period <= 0:
            raise FaultPlanError("repeated faults need a positive period")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError("probability outside [0, 1]")
        if self.pick is not None and self.pick < 1:
            raise FaultPlanError("pick must be >= 1 when given")
        if self.loss_rate is not None and not 0.0 <= self.loss_rate < 1.0:
            raise FaultPlanError("loss_rate override must be in [0, 1)")
        if self.restart_after < 0:
            raise FaultPlanError("restart_after must be >= 0")
        if self.kind == FAULT_CHURN and self.mode not in ("static", "dynamic"):
            raise FaultPlanError(
                f"churn fault mode must be 'static' or 'dynamic', got {self.mode!r}"
            )


@dataclass(frozen=True)
class FaultEvent:
    """One injected/cleared fault occurrence (the replayable sequence)."""

    time: float
    kind: str
    target: str
    action: str  # "inject" | "clear"


@dataclass
class FaultPlan:
    """An ordered set of fault specs plus a global intensity knob.

    ``intensity`` scales every spec's arming probability —
    ``run_fault_sweep`` sweeps it the way ``run_figure2`` sweeps churn;
    intensity 0 arms nothing and the run is bit-identical to a plain one.
    """

    faults: Tuple[FaultSpec, ...] = ()
    intensity: float = 1.0

    def __post_init__(self) -> None:
        self.faults = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
            for spec in self.faults
        )
        if self.intensity < 0:
            raise FaultPlanError("intensity must be >= 0")

    def scaled(self, intensity: float) -> "FaultPlan":
        """The same plan at a different intensity (specs shared)."""
        return replace(self, intensity=intensity)

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        spec_dicts = []
        for spec in self.faults:
            data = {}
            for spec_field in fields(FaultSpec):
                value = getattr(spec, spec_field.name)
                if isinstance(value, tuple):
                    value = list(value)
                data[spec_field.name] = value
            spec_dicts.append(data)
        return {"faults": spec_dicts, "intensity": self.intensity}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(data).__name__}")
        known = {"faults", "intensity"}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(f"unknown fault plan fields: {sorted(unknown)}")
        spec_names = {spec_field.name for spec_field in fields(FaultSpec)}
        specs = []
        for entry in data.get("faults", ()):
            payload = dict(entry)
            bad = set(payload) - spec_names
            if bad:
                raise FaultPlanError(f"unknown fault spec fields: {sorted(bad)}")
            if "phi" in payload:
                payload["phi"] = tuple(payload["phi"])
            specs.append(FaultSpec(**payload))
        return cls(faults=tuple(specs), intensity=data.get("intensity", 1.0))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def load_fault_plan(path: str) -> FaultPlan:
    """Read a JSON fault plan from disk (the ``--faults`` knob)."""
    with open(path, encoding="utf-8") as handle:
        return FaultPlan.from_json(handle.read())


class FaultInjector:
    """Arms one :class:`FaultPlan` against one ``DDoSim`` run.

    All randomness (target sampling, arming draws, start jitter, degraded
    medium loss) comes from streams seeded off the run seed, so the fault
    event sequence — recorded in :attr:`log` — replays exactly for the
    same (plan, seed) pair.
    """

    def __init__(self, ddosim, plan: FaultPlan, seed: int):
        self.ddosim = ddosim
        self.plan = plan
        self.seed = seed
        self.rng = random.Random(f"{seed}-faults")
        #: RNG the degraded channels draw medium loss from
        self._loss_rng = random.Random(f"{seed}-faults-loss")
        self.log: List[FaultEvent] = []
        self.injected = 0
        #: churn models instantiated from ``churn`` specs (the framework
        #: folds these into its ChurnSummary)
        self.static_churn = None
        self.dynamic_churn = None
        self._armed = False

    def fingerprint_state(self) -> dict:
        """Deterministic injection progress for the end-state fingerprint
        (the RNG streams themselves are hashed by the framework)."""
        return {
            "injected": self.injected,
            "armed": self._armed,
            "log": [
                [event.time, event.kind, event.target, event.action]
                for event in self.log
            ],
        }

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _links(self) -> List[Tuple[str, object]]:
        ddosim = self.ddosim
        named = [(dev.name, dev.link) for dev in ddosim.devs.devs]
        named.append(("attacker", ddosim.attacker.link))
        named.append(("tserver", ddosim.tserver.link))
        return named

    def _containers(self) -> List[Tuple[str, object]]:
        ddosim = self.ddosim
        named = [(dev.name, dev.container) for dev in ddosim.devs.devs]
        if ddosim.attacker.container is not None:
            named.append(("attacker", ddosim.attacker.container))
        return named

    def _resolve(self, spec: FaultSpec) -> List[Tuple[str, object]]:
        if spec.kind in _LINK_KINDS:
            candidates = self._links()
        elif spec.kind in _CONTAINER_KINDS:
            candidates = self._containers()
        else:  # service faults and churn act on one implicit target
            return [(spec.kind, None)]
        matches = [
            (name, obj) for name, obj in candidates
            if fnmatch.fnmatchcase(name, spec.target)
        ]
        if spec.pick is not None and spec.pick < len(matches):
            matches = self.rng.sample(matches, spec.pick)
        return matches

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every armed fault occurrence; call once, after build.

        The RNG stream is consumed in spec order then target order, which
        is what makes the schedule a pure function of (plan, seed).
        """
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        sim = self.ddosim.sim
        for spec in self.plan.faults:
            if spec.kind == FAULT_CHURN:
                self._arm_churn(spec)
                continue
            for name, obj in self._resolve(spec):
                probability = spec.probability * self.plan.intensity
                if probability <= 0.0:
                    continue
                if probability < 1.0 and self.rng.random() >= probability:
                    continue
                start = spec.at
                if spec.jitter > 0.0:
                    start += self.rng.random() * spec.jitter
                for repetition in range(spec.count):
                    at = start + repetition * spec.period
                    sim.schedule_at(max(at, 0.0), self._inject, spec, name, obj)

    def _arm_churn(self, spec: FaultSpec) -> None:
        """Instantiate the paper's churn model from a fault spec.

        Seeds and scheduling mirror :class:`repro.core.framework.DDoSim`
        exactly, so a one-churn-fault plan reproduces ``config.churn``
        runs bit-for-bit.
        """
        from repro.core.churn import DynamicChurn, StaticChurn

        ddosim = self.ddosim
        if self.plan.intensity <= 0.0:
            return
        churn_rng = random.Random(f"{self.seed}-churn")
        if spec.mode == "static":
            self.static_churn = StaticChurn(
                ddosim.config.n_devs, churn_rng, tuple(spec.phi)
            )
            ddosim.sim.schedule(
                0.05,
                self.static_churn.apply,
                ddosim.sim,
                ddosim.devs.set_device_online,
            )
        else:
            self.dynamic_churn = DynamicChurn(
                ddosim.config.n_devs,
                churn_rng,
                interval=spec.interval,
                rejoin_probability=spec.rejoin_probability,
                phi=tuple(spec.phi),
            )
            self.dynamic_churn.start(
                ddosim.sim,
                ddosim.devs.set_device_online,
                until=ddosim.config.sim_duration,
            )

    # ------------------------------------------------------------------
    # Injection / clearing
    # ------------------------------------------------------------------
    def _record(self, spec: FaultSpec, name: str, action: str) -> None:
        sim = self.ddosim.sim
        self.log.append(FaultEvent(sim.now, spec.kind, name, action))
        # Any fault event is a rate-change epoch for the fluid datapath:
        # close the pre-fault segment before the mutation lands (the
        # device/channel hooks re-solve again after it).
        if sim.flows is not None:
            sim.flows.relinearize()
        obs = sim.obs
        if action == "inject":
            self.injected += 1
            # Registered lazily so an empty plan leaves metric snapshots
            # byte-identical to a plain run.
            obs.metrics.counter(
                "faults_injected_total",
                help="faults injected, by kind",
                labels=("kind",),
            ).labels(spec.kind).inc()
        if obs.tracer.enabled:
            obs.tracer.emit(f"fault.{action}", sim.now, kind=spec.kind, target=name)
        recorder = obs.recorder
        if recorder.enabled:
            recorder.note(f"fault.{action}", sim.now, fault=spec.kind, target=name)
            if action == "inject":
                # Every injection force-dumps the flight recorder: the
                # dump captures the pre-fault run-up plus the metric
                # delta since the previous dump.
                recorder.dump(f"fault.{spec.kind}", sim.now, target=name)

    def _inject(self, spec: FaultSpec, name: str, obj) -> None:
        self._record(spec, name, "inject")
        sim = self.ddosim.sim
        kind = spec.kind
        if kind in (FAULT_LINK_DOWN, FAULT_LINK_FLAP):
            obj.set_admin_up(False)
            if spec.duration > 0:
                sim.schedule(spec.duration, self._clear, spec, name, obj)
        elif kind == FAULT_PARTITION:
            obj.set_router_admin_up(False)
            if spec.duration > 0:
                sim.schedule(spec.duration, self._clear, spec, name, obj)
        elif kind == FAULT_LINK_DEGRADE:
            obj.channel.override_parameters(
                delay=spec.delay, loss_rate=spec.loss_rate, rng=self._loss_rng
            )
            if spec.data_rate_bps is not None:
                obj.host_device.override_data_rate(spec.data_rate_bps)
                obj.router_device.override_data_rate(spec.data_rate_bps)
            if spec.duration > 0:
                sim.schedule(spec.duration, self._clear, spec, name, obj)
        elif kind == FAULT_CRASH:
            self.ddosim.runtime.stop(obj)
        elif kind == FAULT_CRASH_RESTART:
            self.ddosim.runtime.stop(obj)
            sim.schedule(spec.restart_after, self._clear, spec, name, obj)
        elif kind == FAULT_MEMORY_KILL:
            victims = obj.live_processes()
            if victims:
                max(victims, key=lambda p: (p.rss_bytes, p.pid)).kill()
        elif kind == FAULT_CNC_OUTAGE:
            attacker = self.ddosim.attacker
            if attacker.container is not None:
                for process in attacker.container.find_processes("cnc"):
                    process.kill()
            if spec.duration > 0:
                sim.schedule(spec.duration, self._clear, spec, name, obj)
        elif kind == FAULT_SINK_STALL:
            self.ddosim.tserver.sink.stop()
            if spec.duration > 0:
                sim.schedule(spec.duration, self._clear, spec, name, obj)

    def _clear(self, spec: FaultSpec, name: str, obj) -> None:
        self._record(spec, name, "clear")
        kind = spec.kind
        if kind in (FAULT_LINK_DOWN, FAULT_LINK_FLAP):
            obj.set_admin_up(True)
        elif kind == FAULT_PARTITION:
            obj.set_router_admin_up(True)
        elif kind == FAULT_LINK_DEGRADE:
            obj.channel.clear_overrides()
            if spec.data_rate_bps is not None:
                obj.host_device.clear_data_rate_override()
                obj.router_device.clear_data_rate_override()
        elif kind == FAULT_CRASH_RESTART:
            self.ddosim.runtime.restart(obj)
        elif kind == FAULT_CNC_OUTAGE:
            attacker = self.ddosim.attacker
            if attacker.container is not None and attacker.container.state == "running":
                attacker.container.exec_run(["/usr/sbin/cnc"])
        elif kind == FAULT_SINK_STALL:
            self.ddosim.tserver.sink.start()
