"""Sweep runners that regenerate every table and figure in the paper.

Each function runs the corresponding experiment grid and returns row
dicts ready for :func:`repro.core.results.format_table`; the benchmark
harness under ``benchmarks/`` is a thin wrapper around these.

Grids default to the paper's parameters.  Because the paper's own runs
took minutes per point on real hardware, each runner accepts a reduced
grid for quick passes; ``REPRO_FULL=1`` in the environment switches the
benchmarks to the full published grids.

Grid points are independent (each builds its own simulator from its own
seed), so every sweep accepts ``jobs=N`` to spread points across worker
processes via :mod:`repro.parallel` — same rows, sooner.  ``jobs=1``
(the default) is the exact serial path.

Every sweep also accepts ``cache=`` (a :class:`repro.cache.RunCache`):
finished points are committed to the cache as they complete and served
from it on the next invocation, so rerunning a sweep costs only its
changed (or interrupted, not-yet-committed) points.  ``cache=None`` (the
default) always simulates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.cache import CachedRun
from repro.core.config import CHURN_DYNAMIC, CHURN_NONE, CHURN_STATIC, SimulationConfig
from repro.core.framework import DDoSim
from repro.parallel import run_cached

#: the paper's grids
FIGURE2_DEVS_FULL = (10, 30, 50, 70, 90, 110, 130, 150)
FIGURE2_CHURN = (CHURN_NONE, CHURN_STATIC, CHURN_DYNAMIC)
FIGURE3_DURATIONS = (150.0, 200.0, 300.0)
FIGURE3_DEVS_FULL = (50, 100, 150, 200)
TABLE1_DEVS = (20, 40, 70, 100, 130)
FIGURE4_DEVS_FULL = tuple(range(1, 20))

#: reduced grids for quick benchmark passes
FIGURE2_DEVS_QUICK = (10, 50, 100, 150)
FIGURE3_DEVS_QUICK = (50, 100)
FIGURE4_DEVS_QUICK = (1, 4, 7, 10, 13, 16, 19)


def _run_point(config: SimulationConfig) -> CachedRun:
    """The standard sweep point (module-level so it pickles): one DDoSim
    run plus its metric snapshot, in cache-storable form."""
    ddosim = DDoSim(config)
    result = ddosim.run()
    return CachedRun(results=[result], metrics=ddosim.obs.metrics.snapshot())


# ----------------------------------------------------------------------
# Figure 2: received rate vs number of Devs at three churn levels
# ----------------------------------------------------------------------
def run_figure2(
    devs_grid: Sequence[int] = FIGURE2_DEVS_QUICK,
    churn_modes: Sequence[str] = FIGURE2_CHURN,
    seed: int = 1,
    base_config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> List[Dict[str, object]]:
    """100-second attacks across a Devs x churn grid."""
    points = [
        (churn, n_devs) for churn in churn_modes for n_devs in devs_grid
    ]
    configs = [
        _derive(base_config, n_devs=n_devs, churn=churn, seed=seed)
        for churn, n_devs in points
    ]
    runs = run_cached(_run_point, configs, jobs=jobs, cache=cache,
                      telemetry=telemetry)
    return [
        {
            "churn": churn,
            "n_devs": n_devs,
            "avg_received_kbps": round(run.result.attack.avg_received_kbps, 1),
            "offered_kbps": round(run.result.attack.offered_kbps, 1),
            "bots_at_attack": run.result.attack.bots_commanded,
            "delivery_ratio": round(run.result.attack.delivery_ratio, 3),
        }
        for (churn, n_devs), run in zip(points, runs)
    ]


# ----------------------------------------------------------------------
# Figure 3: received rate vs attack duration for several fleet sizes
# ----------------------------------------------------------------------
def run_figure3(
    devs_grid: Sequence[int] = FIGURE3_DEVS_QUICK,
    durations: Sequence[float] = FIGURE3_DURATIONS,
    seed: int = 1,
    base_config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> List[Dict[str, object]]:
    points = [
        (n_devs, duration) for n_devs in devs_grid for duration in durations
    ]
    configs = [
        _derive(
            base_config,
            n_devs=n_devs,
            attack_duration=duration,
            seed=seed,
            sim_duration=max(600.0, duration + 120.0),
        )
        for n_devs, duration in points
    ]
    runs = run_cached(_run_point, configs, jobs=jobs, cache=cache,
                      telemetry=telemetry)
    return [
        {
            "n_devs": n_devs,
            "attack_duration_s": duration,
            "avg_received_kbps": round(run.result.attack.avg_received_kbps, 1),
            "received_mbit_total": round(
                run.result.attack.received_bytes * 8 / 1e6, 1
            ),
        }
        for (n_devs, duration), run in zip(points, runs)
    ]


# ----------------------------------------------------------------------
# Table I: host resources consumed per run
# ----------------------------------------------------------------------
def run_table1(
    devs_grid: Sequence[int] = TABLE1_DEVS,
    seed: int = 1,
    base_config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> List[Dict[str, object]]:
    configs = [
        _derive(base_config, n_devs=n_devs, seed=seed) for n_devs in devs_grid
    ]
    runs = run_cached(_run_point, configs, jobs=jobs, cache=cache,
                      telemetry=telemetry)
    return [
        {
            "n_devs": n_devs,
            "pre_attack_mem_gb": round(run.result.resources.pre_attack_mem_gb, 2),
            "attack_mem_gb": round(run.result.resources.attack_mem_gb, 2),
            "attack_time": run.result.resources.attack_time_mmss(),
        }
        for n_devs, run in zip(devs_grid, runs)
    ]


# ----------------------------------------------------------------------
# Figure 4: real-hardware model vs DDoSim
# ----------------------------------------------------------------------
def _figure4_point(config: SimulationConfig) -> CachedRun:
    """One Figure 4 grid point: the DDoSim run plus its hardware twin
    (module-level so it pickles for parallel sweeps)."""
    from repro.hardware.testbed import HardwareTestbed

    ddosim = DDoSim(config)
    ddosim_result = ddosim.run()
    hardware_result = HardwareTestbed(config).run()
    return CachedRun(
        results=[ddosim_result, hardware_result],
        metrics=ddosim.obs.metrics.snapshot(),
    )


def run_figure4(
    devs_grid: Sequence[int] = FIGURE4_DEVS_QUICK,
    seed: int = 1,
    attack_duration: float = 60.0,
    base_config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> List[Dict[str, object]]:
    configs = [
        _derive(
            base_config,
            n_devs=n_devs,
            seed=seed,
            attack_duration=attack_duration,
            sim_duration=attack_duration + 150.0,
        )
        for n_devs in devs_grid
    ]
    runs = run_cached(_figure4_point, configs, jobs=jobs, cache=cache,
                      telemetry=telemetry)
    rows: List[Dict[str, object]] = []
    for n_devs, run in zip(devs_grid, runs):
        ddosim_result, hardware_result = run.results
        sim_kbps = ddosim_result.attack.avg_received_kbps
        hw_kbps = hardware_result.attack.avg_received_kbps
        divergence = abs(sim_kbps - hw_kbps) / hw_kbps if hw_kbps else 0.0
        rows.append(
            {
                "n_devs": n_devs,
                "hardware_kbps": round(hw_kbps, 1),
                "ddosim_kbps": round(sim_kbps, 1),
                "relative_divergence": round(divergence, 3),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fault sweep: attack magnitude vs fault intensity (repro.faults)
# ----------------------------------------------------------------------
FAULT_INTENSITY_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _fault_sweep_point(config: SimulationConfig) -> CachedRun:
    """One fault-sweep grid point (module-level so it pickles): the run
    plus the injector's own counters."""
    ddosim = DDoSim(config)
    result = ddosim.run()
    injector = ddosim.fault_injector
    injected = injector.injected if injector is not None else 0
    reconnects = int(ddosim.sim.obs.metrics.value("bots_reconnects_total"))
    return CachedRun(
        results=[result],
        metrics=ddosim.obs.metrics.snapshot(),
        extra={"faults_injected": injected, "bot_reconnects": reconnects},
    )


def run_fault_sweep(
    plan,
    intensity_grid: Sequence[float] = FAULT_INTENSITY_GRID,
    n_devs: int = 20,
    seed: int = 1,
    base_config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> List[Dict[str, object]]:
    """Sweep one :class:`repro.faults.FaultPlan` across intensities.

    The fault-layer analogue of :func:`run_figure2`'s churn axis: every
    point runs the same scenario with the plan's per-target arming
    probabilities scaled by ``intensity`` (0.0 arms nothing — the
    graceful-degradation baseline).  A plan holding a single ``churn``
    fault reproduces the paper's churn curves as the special case.
    """
    configs = [
        _derive(
            base_config, n_devs=n_devs, seed=seed, faults=plan.scaled(intensity)
        )
        for intensity in intensity_grid
    ]
    runs = run_cached(_fault_sweep_point, configs, jobs=jobs, cache=cache,
                      telemetry=telemetry)
    return [
        {
            "intensity": intensity,
            "n_devs": n_devs,
            "faults_injected": run.extra["faults_injected"],
            "bots_at_attack": run.result.attack.bots_commanded,
            "avg_received_kbps": round(run.result.attack.avg_received_kbps, 1),
            "delivery_ratio": round(run.result.attack.delivery_ratio, 3),
            "bot_reconnects": run.extra["bot_reconnects"],
        }
        for intensity, run in zip(intensity_grid, runs)
    ]


# ----------------------------------------------------------------------
# R1/R2: recruitment-only sweep over CVEs and protection profiles
# ----------------------------------------------------------------------
def run_recruitment(
    n_devs: int = 16,
    seed: int = 1,
    base_config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> List[Dict[str, object]]:
    """Infection rate per (binary, protection profile) — the R2 answer."""
    points = [
        (binary_mix, profile)
        for binary_mix in ("connman", "dnsmasq")
        for profile in ((), ("wx",), ("aslr",), ("wx", "aslr"))
    ]
    configs = [
        _derive(
            base_config,
            n_devs=n_devs,
            seed=seed,
            binary_mix=binary_mix,
            protection_profiles=(profile,),
            attack_duration=10.0,
            sim_duration=180.0,
        )
        for binary_mix, profile in points
    ]
    runs = run_cached(_run_point, configs, jobs=jobs, cache=cache,
                      telemetry=telemetry)
    return [
        {
            "binary": binary_mix,
            "protections": "+".join(profile) or "none",
            "devs": n_devs,
            "recruited": run.result.recruitment.bots_recruited,
            "infection_rate": round(run.result.recruitment.infection_rate, 3),
            "leaks": run.result.recruitment.leaks_harvested,
        }
        for (binary_mix, profile), run in zip(points, runs)
    ]


# ----------------------------------------------------------------------
# Baseline: memory-error recruitment vs the default-credential vector
# ----------------------------------------------------------------------
def _vector_comparison_point(config: SimulationConfig) -> CachedRun:
    ddosim = DDoSim(config)
    result = ddosim.run()
    return CachedRun(
        results=[result],
        metrics=ddosim.obs.metrics.snapshot(),
        extra={"weak_credential_devs": ddosim.devs.weak_credential_count()},
    )


def run_vector_comparison(
    n_devs: int = 20,
    seed: int = 1,
    weak_credential_fraction: float = 0.6,
    base_config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> List[Dict[str, object]]:
    """Same fleet, three recruitment vectors (the paper's R1 contrast:
    memory-error exploits vs the classic Mirai credential dictionary)."""
    vectors = ("credentials", "memory_error", "both")
    configs = [
        _derive(
            base_config,
            n_devs=n_devs,
            seed=seed,
            recruitment_vector=vector,
            weak_credential_fraction=weak_credential_fraction,
            attack_duration=30.0,
            sim_duration=300.0,
        )
        for vector in vectors
    ]
    runs = run_cached(_vector_comparison_point, configs, jobs=jobs, cache=cache,
                      telemetry=telemetry)
    return [
        {
            "vector": vector,
            "devs": n_devs,
            "weak_credential_devs": run.extra["weak_credential_devs"],
            "recruited": run.result.recruitment.bots_recruited,
            "infection_rate": round(run.result.recruitment.infection_rate, 3),
            "avg_received_kbps": round(run.result.attack.avg_received_kbps, 1),
        }
        for vector, run in zip(vectors, runs)
    ]


# ----------------------------------------------------------------------
# Emulation-mode comparison: containers (the paper's choice) vs
# Firmadyne/QEMU full-firmware emulation (§III-B's alternative)
# ----------------------------------------------------------------------
def _emulation_comparison_point(config: SimulationConfig) -> CachedRun:
    ddosim = DDoSim(config)
    result = ddosim.run()
    return CachedRun(
        results=[result],
        metrics=ddosim.obs.metrics.snapshot(),
        extra={"fleet_memory_bytes": ddosim.runtime.total_memory_bytes()},
    )


def run_emulation_comparison(
    n_devs: int = 15,
    seed: int = 1,
    base_config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> List[Dict[str, object]]:
    """Same experiment under both Dev emulation modes.

    Quantifies the paper's scalability rationale: full-system emulation
    "requires significant processing powers, which limits DDoSim's
    scalability" — while recruitment outcomes are identical because only
    the network-facing program's vulnerability matters.
    """
    modes = ("container", "firmware")
    configs = [
        _derive(
            base_config,
            n_devs=n_devs,
            seed=seed,
            dev_emulation=mode,
            attack_duration=30.0,
            sim_duration=300.0,
        )
        for mode in modes
    ]
    runs = run_cached(_emulation_comparison_point, configs, jobs=jobs, cache=cache,
                      telemetry=telemetry)
    return [
        {
            "emulation": mode,
            "devs": n_devs,
            "infection_rate": round(run.result.recruitment.infection_rate, 3),
            "first_bot_s": round(run.result.recruitment.first_bot_time or 0.0, 1),
            "fleet_memory_mb": round(run.extra["fleet_memory_bytes"] / 1e6, 1),
            "avg_received_kbps": round(run.result.attack.avg_received_kbps, 1),
        }
        for mode, run in zip(modes, runs)
    ]


def _derive(base: Optional[SimulationConfig], **overrides) -> SimulationConfig:
    if base is None:
        return SimulationConfig(**overrides)
    return replace(base, **overrides)
