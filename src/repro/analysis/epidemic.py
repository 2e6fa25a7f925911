"""Epidemic models of botnet spread vs DDoSim propagation (use case V-A2).

The paper: "Researchers can run experiments in DDoSim and extract the
number of infected devices in Devs at any time step, enabling them to
assess whether these more realistic simulations align with their models."

This module does exactly that end to end:

1. :func:`run_propagation_experiment` — DDoSim with *one* seeded
   infection (the attacker exploits a single Dev), after which the C&C
   orders exploit-armed scanning (:mod:`repro.botnet.scanner`); the C&C's
   registration log is the measured infection curve ``I(t)``;
2. :func:`si_curve` — the SI model's logistic solution;
3. :func:`fit_si_model` — least-squares fit of the contact rate β to the
   measured curve, with goodness-of-fit.

Devices whose daemon was consumed by ``execlp`` stop answering probes, so
"infected" implies "no longer susceptible" — an SI process with no
recovery, which is what the fit targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import curve_fit

from repro.botnet.scanner import scan_config_json
from repro.core.config import SimulationConfig
from repro.core.framework import DDoSim
from repro.netsim.address import Ipv6Address
from repro.netsim.process import SimProcess, Timeout


def si_curve(times: np.ndarray, beta: float, population: int, i0: int = 1) -> np.ndarray:
    """Analytic SI solution: logistic growth of the infected count."""
    times = np.asarray(times, dtype=float)
    if i0 <= 0 or population <= 0:
        raise ValueError("population and i0 must be positive")
    growth = np.exp(beta * times)
    return population * i0 * growth / (population - i0 + i0 * growth)


@dataclass
class SiFit:
    """A fitted SI model and its goodness of fit."""

    beta: float
    rmse: float
    r_squared: float


def fit_si_model(
    times: np.ndarray, infected: np.ndarray, population: int, i0: int = 1
) -> SiFit:
    """Least-squares fit of β to a measured infection curve."""
    times = np.asarray(times, dtype=float)
    infected = np.asarray(infected, dtype=float)

    def model(t, beta):
        return si_curve(t, beta, population, i0)

    (beta,), _covariance = curve_fit(
        model, times, infected, p0=[0.05], bounds=(1e-6, 10.0), maxfev=10000
    )
    predicted = model(times, beta)
    residuals = infected - predicted
    rmse = float(np.sqrt(np.mean(residuals ** 2)))
    total_variance = float(np.sum((infected - infected.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(residuals ** 2)) / total_variance if total_variance else 0.0
    return SiFit(beta=float(beta), rmse=rmse, r_squared=r_squared)


@dataclass
class PropagationResult:
    """Output of one propagation (worm-spread) experiment."""

    n_devs: int
    pool_size: int
    probes_per_second: float
    duration: float
    #: sampled measurement grid (1-second steps from the seed infection)
    times: List[float] = field(default_factory=list)
    infected: List[int] = field(default_factory=list)
    seed_time: float = 0.0
    final_infected: int = 0

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.infected)


def run_propagation_experiment(
    n_devs: int = 30,
    seed: int = 1,
    duration: float = 400.0,
    probes_per_second: float = 2.0,
    pool_factor: float = 4.0,
    config: Optional[SimulationConfig] = None,
) -> PropagationResult:
    """Seed one infection, let Mirai scanning spread, measure ``I(t)``.

    ``pool_factor`` scales the scanned address pool relative to the fleet
    size (sparser pools mean lower hit rates and slower spread — a knob
    the epidemic comparison sweeps).
    """
    if config is None:
        config = SimulationConfig(
            n_devs=n_devs,
            seed=seed,
            binary_mix="dnsmasq",
            extra_services=False,
            sim_duration=duration + 120.0,
        )
    ddosim = DDoSim(config)
    ddosim.attacker.max_initial_infections = 1
    ddosim.build()
    ddosim.attacker.start()
    ddosim.devs.start_all()
    ddosim.tserver.start()

    sim = ddosim.sim
    cnc = ddosim.attacker.cnc
    iids = [dev.ipv6.value & 0xFFFFFFFF for dev in ddosim.devs.devs]
    first = min(iids)
    pool_size = max(int(n_devs * pool_factor), max(iids) - first + 1)
    last = first + pool_size - 1
    base = ddosim.devs.devs[0].ipv6.value & ~((1 << 64) - 1)
    pool_prefix = str(Ipv6Address(base))

    result = PropagationResult(
        n_devs=config.n_devs,
        pool_size=pool_size,
        probes_per_second=probes_per_second,
        duration=duration,
    )

    def orchestrate():
        yield Timeout(sim, 0.5)
        yield cnc.wait_for_bots(1)  # patient zero recruited by the attacker
        result.seed_time = sim.now
        cnc.issue_scan(
            scan_config_json(
                pool_prefix,
                first,
                last,
                ddosim.devs.dnsmasq_binary,
                str(ddosim.attacker.address),
                probes_per_second=probes_per_second,
            )
        )
        yield Timeout(sim, duration)
        sim.stop()

    SimProcess(sim, orchestrate(), name="propagation-orchestrator")
    sim.run(until=config.sim_duration)

    # Build I(t) on a 1-second grid from the registration log.
    registrations = sorted(cnc.registration_times)
    times: List[float] = []
    infected: List[int] = []
    step = 0
    while step <= int(duration):
        t = result.seed_time + step
        times.append(float(step))
        infected.append(sum(1 for r in registrations if r <= t))
        step += 1
    result.times = times
    result.infected = infected
    result.final_infected = len(cnc.seen_addresses)
    return result
