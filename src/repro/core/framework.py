"""DDoSim: the assembled framework (paper Figure 1) and its run loop.

A run follows the paper's initialization-then-execute flow (§IV-A):

1. build container images for Attacker and Devs, create containers;
2. wire them to ghost nodes / veth bridges, assemble the star Internet
   with TServer;
3. start the simulation: the attacker's services come up, Devs phone
   home (Connman) or answer multicast (Dnsmasq), the two-stage memory
   error exploits land, compromised Devs fetch and run Mirai;
4. once all reachable Devs are bots (or the recruit timeout passes),
   the C&C issues a UDP-PLAIN flood order against TServer;
5. TServer's sink records the attack; churn (static/dynamic) perturbs
   Dev connectivity throughout; after attack + cooldown the run stops
   and all metrics/resource reports are collected.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.container.runtime import ContainerRuntime
from repro.core.attacker import AttackerComponent
from repro.core.churn import DynamicChurn, StaticChurn
from repro.core.config import CHURN_DYNAMIC, CHURN_STATIC, SimulationConfig
from repro.core.devs import DevFleet
from repro.core.metrics import (
    average_received_rate_kbps,
    delivery_ratio,
    peak_received_rate_kbps,
    received_rate_series_kbps,
)
from repro.core.resources import ResourceModel
from repro.core.results import (
    AttackStatsSummary,
    ChurnSummary,
    RecruitmentStats,
    RunResult,
)
from repro.core.tserver import TServerComponent
from repro.netsim.process import AnyOf, SimProcess, Timeout
from repro.netsim.simulator import Simulator
from repro.netsim.topology import StarInternet
from repro.obs.observatory import Observatory


class DDoSim:
    """One simulation instance.  Typical use::

        result = DDoSim(SimulationConfig(n_devs=50, seed=7)).run()
        print(result.attack.avg_received_kbps)

    Pass ``observatory=Observatory.full()`` to capture a structured event
    trace and the causal span tree alongside the metrics registry every
    run carries (the registry is what :class:`TelemetrySampler` samples).
    """

    def __init__(self, config: SimulationConfig,
                 resource_model: Optional[ResourceModel] = None,
                 network_factory=None,
                 observatory: Optional[Observatory] = None):
        self.config = config
        self.rng = random.Random(f"{config.seed}-ddosim")
        self.sim = Simulator()
        # Attach before any component is built: instrumented layers bind
        # their counters/tracers from sim.obs at construction time.
        self.obs = self.sim.attach_observatory(
            observatory if observatory is not None else Observatory()
        )
        # Span IDs derive from the run seed (never wall clock): reseed
        # here so a reused tracker cannot leak state across runs.
        self.obs.spans.reseed(config.seed)
        # The network fabric is pluggable: the default is the paper's
        # star "simulated Internet"; the hardware validation swaps in
        # repro.hardware.testbed.WifiTestbedInternet.
        if network_factory is None:
            self.star = StarInternet(
                self.sim, default_queue_packets=config.queue_packets
            )
        else:
            self.star = network_factory(self.sim, config)
        self.runtime = ContainerRuntime(self.sim, seed=config.seed)
        self.resource_model = resource_model or ResourceModel()

        # Components (build order: Devs define the fleet binaries the
        # attacker analyzes).
        self.devs = DevFleet(config, self.sim, self.runtime, self.star, self.rng)
        self.attacker = AttackerComponent(
            config,
            self.sim,
            self.runtime,
            self.star,
            self.devs.connman_binary,
            self.devs.dnsmasq_binary,
        )
        self.tserver = TServerComponent(config, self.sim, self.star)

        # Churn model.
        churn_rng = random.Random(f"{config.seed}-churn")
        self.static_churn: Optional[StaticChurn] = None
        self.dynamic_churn: Optional[DynamicChurn] = None
        if config.churn == CHURN_STATIC:
            self.static_churn = StaticChurn(config.n_devs, churn_rng, config.churn_phi)
        elif config.churn == CHURN_DYNAMIC:
            self.dynamic_churn = DynamicChurn(
                config.n_devs,
                churn_rng,
                interval=config.churn_interval,
                rejoin_probability=config.churn_rejoin_probability,
                phi=config.churn_phi,
            )

        # Fault injector (None on the exact no-fault path).
        self.fault_injector = None
        if config.faults is not None:
            from repro.faults import FaultInjector

            self.fault_injector = FaultInjector(self, config.faults, config.seed)

        # Fluid-flow engine (None on the exact packet path: sim.flows
        # stays unset and every flow hook short-circuits).
        self.flow_engine = None
        if config.flood_flow != "off":
            from repro.netsim.flows import FlowEngine

            self.flow_engine = FlowEngine(
                self.sim, mode=config.flood_flow,
                train=max(config.flood_train, 1),
            )

        # Filled in during run().
        self._pre_attack_container_bytes = 0
        self._attack_issued_at: Optional[float] = None
        self._online_at_recruit_start = config.n_devs
        self._built = False

        self._register_gauges()

    def _register_gauges(self) -> None:
        """Publish the run's live state as callback gauges.

        These are the registry-sourced samples :class:`TelemetrySampler`
        reads (gauge names match :class:`TelemetrySample` field names);
        callback gauges cost nothing until read.
        """
        metrics = self.obs.metrics
        cnc = self.attacker.cnc
        metrics.gauge("bots_connected", help="bots connected to the C&C",
                      fn=cnc.bot_count)
        metrics.gauge("devs_online", help="devices currently online",
                      fn=self.devs.online_count)
        metrics.gauge("distinct_recruits",
                      help="distinct bot addresses ever recruited",
                      fn=lambda: len(cnc.seen_addresses))
        metrics.gauge("tserver_rx_bytes_total",
                      help="bytes received by the TServer sink",
                      fn=lambda: self.tserver.sink.total_bytes)
        metrics.gauge("container_memory_bytes",
                      help="total RSS of running containers",
                      fn=self.runtime.total_memory_bytes)
        # queue_drops_total is the counter the drop-tail queues maintain
        # on their own hot path; pre-register it so the telemetry sampler
        # reads 0 (not a missing metric) before the first drop.
        metrics.counter("queue_drops_total",
                        help="packets dropped by transmit queues")

    def named_rngs(self):
        """Every named RNG stream of this run as ``(label, Random)``
        pairs, in a fixed order — what the end-state fingerprint hashes so
        a second run that drifts in any stream is named by it."""
        pairs = [
            ("ddosim", self.rng),
            ("credentials", self.devs._credential_rng),
        ]
        if self.static_churn is not None:
            pairs.append(("static-churn", self.static_churn.rng))
        if self.dynamic_churn is not None:
            pairs.append(("dynamic-churn", self.dynamic_churn.rng))
        injector = self.fault_injector
        if injector is not None:
            pairs.append(("faults", injector.rng))
            pairs.append(("faults-loss", injector._loss_rng))
            if injector.static_churn is not None:
                pairs.append(("faults-static-churn", injector.static_churn.rng))
            if injector.dynamic_churn is not None:
                pairs.append(
                    ("faults-dynamic-churn", injector.dynamic_churn.rng)
                )
        return pairs

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self) -> "DDoSim":
        """Phase 1-2: images, containers, bridges, network.

        Devs attach first so that — when the default-credential baseline
        vector is enabled — the attacker's loader can be armed with the
        fleet's address block before its image is baked.
        """
        if self._built:
            return self
        self.devs.build(self.attacker.address)
        if self.config.recruitment_vector in ("credentials", "both"):
            pool_base, first_iid, last_iid = self.devs.iid_range()
            self.attacker.arm_telnet_loader(pool_base, first_iid, last_iid)
        self.attacker.build()
        self._built = True
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Run the full scenario and return the collected results."""
        config = self.config
        self.build()
        self.attacker.start()
        self.devs.start_all()
        self.tserver.start()

        # Static churn applies "at the simulation's outset", before any
        # recruitment traffic has had a chance to flow.
        if self.static_churn is not None:
            self.sim.schedule(
                0.05,
                self.static_churn.apply,
                self.sim,
                self.devs.set_device_online,
            )
        if self.dynamic_churn is not None:
            self.dynamic_churn.start(
                self.sim, self.devs.set_device_online, until=config.sim_duration
            )
        # Armed exactly where native churn is scheduled, so a
        # churn-equivalent fault plan lands its events at the same event
        # sequence positions as config.churn would.
        if self.fault_injector is not None:
            self.fault_injector.arm()

        SimProcess(self.sim, self._orchestrate(), name="orchestrator")
        self.sim.run(until=config.sim_duration)
        return self._collect()

    def _orchestrate(self):
        """Waits for recruitment, fires the attack, ends the run."""
        config = self.config
        # Give the attacker's services a tick to come up, and static
        # churn a chance to apply, before deciding how many bots to wait
        # for.
        yield Timeout(self.sim, 0.5)
        expected = self.devs.online_count()
        self._online_at_recruit_start = expected
        if config.recruitment_vector == "credentials":
            # Only factory-credential devices are reachable by the
            # dictionary baseline; don't wait for the others.
            expected = min(expected, self.devs.weak_credential_count())
        ready = self.attacker.cnc.wait_for_bots(max(expected, 1))
        deadline = Timeout(self.sim, config.recruit_timeout)
        winner = yield AnyOf(self.sim, [ready, deadline])
        if winner is not deadline:
            deadline.cancel()
        if config.attack_settle_delay > 0:
            yield Timeout(self.sim, config.attack_settle_delay)
        if self.attacker.cnc.bot_count() == 0:
            # Nothing to command (e.g. all Devs patched): wait out the
            # attack window so metrics windows stay well-defined.
            self._pre_attack_container_bytes = self.runtime.total_memory_bytes()
            self._attack_issued_at = self.sim.now
            yield Timeout(self.sim, config.attack_duration + config.cooldown)
            self.sim.stop()
            return
        self._pre_attack_container_bytes = self.runtime.total_memory_bytes()
        order = self.attacker.cnc.issue_attack(
            str(self.tserver.address),
            config.attack_port,
            config.attack_duration,
            config.attack_payload_size,
            train=config.flood_train,
            flow=config.flood_flow,
        )
        self._attack_issued_at = order.issued_at
        yield Timeout(self.sim, config.attack_duration + config.cooldown)
        if self.dynamic_churn is not None:
            self.dynamic_churn.stop()
        injector = self.fault_injector
        if injector is not None and injector.dynamic_churn is not None:
            injector.dynamic_churn.stop()
        self.sim.stop()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self) -> RunResult:
        config = self.config
        cnc = self.attacker.cnc
        sink = self.tserver.sink
        if self.flow_engine is not None:
            # Settle any open constant-rate segment through sim.now so
            # fluid accounting is complete before results are read.
            self.flow_engine.flush()
        issued_at = self._attack_issued_at if self._attack_issued_at is not None else self.sim.now
        attack_end = issued_at + config.attack_duration

        kind_of = self.devs.kind_by_address()
        by_binary = {}
        for address in cnc.seen_addresses:
            kind = kind_of.get(address)
            if kind is not None:
                by_binary[kind] = by_binary.get(kind, 0) + 1

        recruitment = RecruitmentStats(
            devs_total=config.n_devs,
            devs_online_at_start=self._online_at_recruit_start,
            bots_recruited=len(cnc.seen_addresses),
            bots_at_attack=(
                cnc.attack_orders[0].bots_commanded if cnc.attack_orders else 0
            ),
            exploits_delivered=self.attacker.exploits_delivered,
            leaks_harvested=self.attacker.leaks_harvested,
            first_bot_time=cnc.first_registration_time,
            last_bot_time=cnc.last_registration_time,
            by_binary=by_binary,
        )

        offered_bytes, offered_packets = self.devs.total_offered_attack()
        received_bytes = sink.bytes_received_between(issued_at, attack_end)
        attack = AttackStatsSummary(
            issued_at=issued_at,
            duration=config.attack_duration,
            bots_commanded=recruitment.bots_at_attack,
            avg_received_kbps=average_received_rate_kbps(sink, issued_at, attack_end),
            peak_received_kbps=peak_received_rate_kbps(sink, issued_at, attack_end),
            offered_kbps=offered_bytes * 8.0 / 1000.0 / config.attack_duration,
            offered_bytes=offered_bytes,
            offered_packets=offered_packets,
            received_bytes=received_bytes,
            received_packets=sink.total_packets,
            queue_drops=self.star.total_queue_drops(),
            delivery_ratio=delivery_ratio(received_bytes, offered_bytes),
        )

        churn_model = self.static_churn or self.dynamic_churn
        if churn_model is None and self.fault_injector is not None:
            # A churn fault spec instantiates the same models; fold its
            # departures/rejoins into the summary.
            injector = self.fault_injector
            churn_model = injector.static_churn or injector.dynamic_churn
        churn = ChurnSummary(
            mode=config.churn,
            departures=churn_model.total_departures() if churn_model else 0,
            rejoins=churn_model.total_rejoins() if churn_model else 0,
            online_at_end=self.devs.online_count(),
        )

        resources = self.resource_model.report(
            n_devs=config.n_devs,
            container_bytes=self._pre_attack_container_bytes,
            flood_bytes=offered_bytes,
            flood_packets=offered_packets,
            attack_duration=config.attack_duration,
        )

        return RunResult(
            n_devs=config.n_devs,
            seed=config.seed,
            churn_mode=config.churn,
            attack_duration=config.attack_duration,
            recruitment=recruitment,
            attack=attack,
            churn=churn,
            resources=resources,
            rate_series_kbps=received_rate_series_kbps(sink, issued_at, attack_end),
            events_executed=self.sim.events_executed,
            sim_end_time=self.sim.now,
        )
