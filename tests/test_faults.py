"""Tests for the fault-injection subsystem (repro.faults) and the
recovery semantics it relies on (bot backoff, C&C pruning, container
restart, admin link state)."""

import json
import os
import random

import pytest

from repro.botnet.bot import (
    RECONNECT_BACKOFF,
    RECONNECT_BACKOFF_MAX,
    reconnect_delay,
)
from repro.botnet.cnc import BotRecord, CncServer
from repro.core.config import SimulationConfig
from repro.core.framework import DDoSim
from repro.faults import (
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    load_fault_plan,
)
from repro.netsim.netdevice import PointToPointDevice
from repro.netsim.simulator import Simulator
from repro.obs.observatory import Observatory
from repro.serialization import result_to_json
from tests.helpers import MiniNet


def tiny_config(**overrides):
    base = dict(
        n_devs=2,
        seed=1,
        attack_duration=10.0,
        recruit_timeout=30.0,
        sim_duration=120.0,
        # All-unprotected fleets recruit deterministically, which the
        # baseline-vs-fault comparisons below rely on.
        protection_profiles=((),),
    )
    base.update(overrides)
    return SimulationConfig(**base)


# ----------------------------------------------------------------------
# FaultPlan (de)serialization and validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="link_flap", target="dev*", at=10.0,
                          duration=5.0, count=3, period=20.0, jitter=2.0),
                FaultSpec(kind="cnc_outage", at=40.0, duration=30.0),
                FaultSpec(kind="churn", mode="static", phi=(0.2, 0.1, 0.05)),
            ),
            intensity=0.5,
        )
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt == plan

    def test_dict_coercion_in_spec_list(self):
        plan = FaultPlan(faults=({"kind": "crash", "target": "dev001"},))
        assert isinstance(plan.faults[0], FaultSpec)
        assert plan.faults[0].target == "dev001"

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"faults": [], "intensity": 1.0, "bogus": 1})
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"faults": [{"kind": "crash", "wat": 2}]})

    def test_bad_specs_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="crash", at=-1.0)
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="link_flap", count=3)  # repeats need a period
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="link_down", probability=1.5)
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="churn", mode="sideways")

    def test_scaled_keeps_specs(self):
        plan = FaultPlan(faults=(FaultSpec(kind="crash"),))
        half = plan.scaled(0.5)
        assert half.intensity == 0.5
        assert half.faults == plan.faults

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = FaultPlan(faults=(FaultSpec(kind="sink_stall", at=5.0),))
        path.write_text(plan.to_json(), encoding="utf-8")
        assert load_fault_plan(str(path)) == plan

    def test_config_coerces_dict_plan(self):
        config = tiny_config(faults={"faults": [{"kind": "crash"}]})
        assert isinstance(config.faults, FaultPlan)
        with pytest.raises(ValueError):
            tiny_config(faults="not a plan")


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def _jittery_plan(self):
        return FaultPlan(
            faults=(
                FaultSpec(kind="link_flap", target="dev*", at=15.0,
                          duration=4.0, count=2, period=25.0, jitter=6.0,
                          probability=0.8),
                FaultSpec(kind="link_degrade", target="dev*", pick=1,
                          at=30.0, duration=20.0, loss_rate=0.2),
            )
        )

    def test_same_plan_and_seed_replays_identically(self):
        runs = []
        for _ in range(2):
            ddosim = DDoSim(tiny_config(faults=self._jittery_plan()))
            result = ddosim.run()
            runs.append((ddosim.fault_injector.log, result_to_json(result)))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        # The log holds typed events, at least some of them injections.
        assert all(isinstance(event, FaultEvent) for event in runs[0][0])
        assert "inject" in {event.action for event in runs[0][0]}

    def test_different_seed_changes_schedule(self):
        logs = []
        for seed in (1, 2):
            ddosim = DDoSim(tiny_config(seed=seed, faults=self._jittery_plan()))
            ddosim.run()
            logs.append(ddosim.fault_injector.log)
        assert logs[0] != logs[1]

    def test_empty_plan_is_bit_identical_to_plain_run(self):
        plain = DDoSim(tiny_config())
        plain_result = plain.run()
        armed = DDoSim(tiny_config(faults=FaultPlan()))
        armed_result = armed.run()
        assert result_to_json(plain_result) == result_to_json(armed_result)
        assert json.dumps(plain.obs.metrics.snapshot(), indent=2, sort_keys=True) \
            == json.dumps(armed.obs.metrics.snapshot(), indent=2, sort_keys=True)
        assert armed.fault_injector.log == []

    def test_zero_intensity_arms_nothing(self):
        plan = self._jittery_plan().scaled(0.0)
        ddosim = DDoSim(tiny_config(faults=plan))
        result = ddosim.run()
        plain = result_to_json(DDoSim(tiny_config()).run())
        assert ddosim.fault_injector.injected == 0
        assert result_to_json(result) == plain


# ----------------------------------------------------------------------
# Churn as the special case of a one-fault plan
# ----------------------------------------------------------------------
class TestChurnEquivalence:
    def _strip_mode(self, text_a, text_b):
        return (
            text_a.replace('"dynamic"', '"X"').replace('"none"', '"X"'),
            text_b.replace('"dynamic"', '"X"').replace('"none"', '"X"'),
        )

    def test_dynamic_churn_fault_matches_config_churn(self):
        config = tiny_config(n_devs=4, churn="dynamic")
        native = DDoSim(config).run()
        plan = FaultPlan(faults=(FaultSpec(kind="churn", mode="dynamic"),))
        faulted_sim = DDoSim(tiny_config(n_devs=4, faults=plan))
        faulted = faulted_sim.run()
        # Identical except the churn_mode labels (the fault run's config
        # says "none"; the model and its seeded stream are the same).
        assert native.churn.departures == faulted.churn.departures
        assert native.churn.rejoins == faulted.churn.rejoins
        native_json, faulted_json = self._strip_mode(
            result_to_json(native), result_to_json(faulted)
        )
        assert native_json == faulted_json

    def test_static_churn_fault_matches_config_churn(self):
        native = DDoSim(tiny_config(n_devs=4, churn="static")).run()
        plan = FaultPlan(faults=(FaultSpec(kind="churn", mode="static"),))
        faulted = DDoSim(tiny_config(n_devs=4, faults=plan)).run()
        assert native.churn.departures == faulted.churn.departures
        native_json, faulted_json = (
            result_to_json(native).replace('"static"', '"X"').replace('"none"', '"X"'),
            result_to_json(faulted).replace('"static"', '"X"').replace('"none"', '"X"'),
        )
        assert native_json == faulted_json


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
class TestLinkFaults:
    def test_permanent_dev_link_down_blocks_recruitment(self):
        plan = FaultPlan(faults=(FaultSpec(kind="link_down", target="dev*"),))
        result = DDoSim(tiny_config(faults=plan)).run()
        assert result.recruitment.bots_recruited == 0

    def test_partition_during_attack_cuts_received_rate(self):
        baseline = DDoSim(tiny_config()).run()
        # Partition TServer's router-side link across the attack window.
        start = baseline.attack.issued_at
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="partition", target="tserver", at=start,
                          duration=baseline.attack.duration),
            )
        )
        partitioned = DDoSim(tiny_config(faults=plan)).run()
        assert (
            partitioned.attack.received_bytes < baseline.attack.received_bytes
        )

    def test_degrade_applies_and_clears_overrides(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="link_degrade", target="tserver", at=1.0,
                          duration=5.0, delay=0.5, loss_rate=0.3,
                          data_rate_bps=50_000.0),
            )
        )
        ddosim = DDoSim(tiny_config(faults=plan))
        ddosim.build()
        link = ddosim.tserver.link
        base_delay = link.channel.delay
        base_rate = link.host_device.data_rate_bps
        ddosim.run()
        # After the clear event everything is restored.
        assert link.channel.delay == base_delay
        assert link.channel.loss_rate == 0.0
        assert link.host_device.data_rate_bps == base_rate
        assert [e.action for e in ddosim.fault_injector.log] == ["inject", "clear"]

    def test_admin_state_is_orthogonal_to_churn_state(self):
        sim = Simulator()
        device = PointToPointDevice(sim, 1e6)
        device.set_admin_down()
        assert not device.up
        device.set_up()  # churn rejoin cannot resurrect an admin fault
        assert not device.up
        device.set_admin_up()
        assert device.up
        device.set_down()  # churn departure
        device.set_admin_down()
        device.set_admin_up()  # clearing the fault keeps churn's verdict
        assert not device.up
        device.set_up()
        assert device.up


# ----------------------------------------------------------------------
# Container faults and restart
# ----------------------------------------------------------------------
class TestContainerFaults:
    def test_restart_loop_leaves_no_stale_state(self):
        mininet = MiniNet()
        mininet.sim.attach_observatory(Observatory())
        container, node, _link = mininet.host_container("victim")
        for _ in range(5):
            mininet.runtime.stop(container)
            assert container.netns is None  # veth detached on stop
            mininet.runtime.restart(container)
            assert container.state == "running"
            assert container.netns is not None
            assert container.netns.node is node
        # Exactly one live bridge is registered however many cycles ran.
        assert len(mininet.runtime.veths) == 1
        assert (
            mininet.sim.obs.metrics.value("container_restarts_total") == 5
        )

    def test_restart_is_a_fresh_boot(self):
        mininet = MiniNet()
        container, _node, _link = mininet.host_container("victim")
        container.fs.write_file("/tmp/infected", b"payload", mode=0o644)
        mininet.runtime.restart(container)
        assert not container.fs.exists("/tmp/infected")

    def test_remove_detaches_and_forgets_veth(self):
        mininet = MiniNet()
        container, _node, _link = mininet.host_container("victim")
        mininet.runtime.stop(container)
        mininet.runtime.remove(container)
        assert container.netns is None
        assert "victim" not in mininet.runtime.veths

    def test_crash_restart_fault_revives_device(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash_restart", target="dev000", at=5.0,
                          restart_after=10.0),
            )
        )
        ddosim = DDoSim(tiny_config(faults=plan))
        ddosim.run()
        dev = ddosim.devs.devs[0]
        assert dev.container.state == "running"
        assert [e.action for e in ddosim.fault_injector.log] == ["inject", "clear"]
        assert ddosim.obs.metrics.value("container_restarts_total") == 1

    def test_memory_kill_removes_largest_process(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="memory_kill", target="dev000", at=3.0),)
        )
        ddosim = DDoSim(tiny_config(faults=plan))
        ddosim.build()
        container = ddosim.devs.devs[0].container
        ddosim.run()
        log = ddosim.fault_injector.log
        assert [e.kind for e in log] == ["memory_kill"]
        assert container.state == "running"  # the container survives


class TestKilledFloodsStayOffered:
    """``tests/golden/flood_crash_plan.json`` crashes dev000 at t=70.0 and
    dev003 at t=95.5, mid-attack.  Their floods die with their bot
    processes, but what they emitted was offered all the same."""

    PLAN = os.path.join(os.path.dirname(__file__), "golden", "flood_crash_plan.json")

    @pytest.mark.parametrize("train", [8, 1])
    def test_offered_totals_count_every_flood(self, train):
        config = SimulationConfig(n_devs=6, seed=3, flood_train=train,
                                  faults=load_fault_plan(self.PLAN))
        ddosim = DDoSim(config, observatory=Observatory.full())
        attack = ddosim.run().attack
        stops = ddosim.obs.tracer.events("attack.stop")
        assert sorted(stop.t for stop in stops)[:2] == [70.0, 95.5]
        assert attack.offered_bytes == sum(s.fields["bytes_sent"] for s in stops)
        assert attack.offered_packets == sum(s.fields["packets_sent"] for s in stops)
        assert attack.offered_bytes >= attack.received_bytes


# ----------------------------------------------------------------------
# Service faults
# ----------------------------------------------------------------------
class TestServiceFaults:
    def test_cnc_outage_bots_rerecruit_via_backoff(self):
        # Outage at t=30 for 20 s; the long settle delay leaves the bots
        # ample backoff room to re-register before the attack order.
        plan = FaultPlan(
            faults=(FaultSpec(kind="cnc_outage", at=30.0, duration=20.0),)
        )
        config = tiny_config(
            sim_duration=400.0, attack_settle_delay=60.0, faults=plan
        )
        ddosim = DDoSim(config, observatory=Observatory.full())
        ddosim.run()  # must complete without unhandled exceptions
        cnc = ddosim.attacker.cnc
        # Bots re-registered after the restart: more registrations than
        # distinct recruits, reached through the reconnect backoff.
        assert len(cnc.seen_addresses) == 2
        assert cnc.total_registrations > len(cnc.seen_addresses)
        reconnect_events = ddosim.obs.tracer.events("bot.reconnect")
        assert reconnect_events
        assert ddosim.obs.metrics.value("bots_reconnects_total") >= len(
            reconnect_events
        )
        fault_events = ddosim.obs.tracer.events("fault.inject")
        assert [e.fields["kind"] for e in fault_events] == ["cnc_outage"]

    def test_sink_stall_cuts_recorded_bytes(self):
        baseline = DDoSim(tiny_config()).run()
        start = baseline.attack.issued_at
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="sink_stall", at=start,
                          duration=baseline.attack.duration / 2),
            )
        )
        stalled = DDoSim(tiny_config(faults=plan)).run()
        assert stalled.attack.received_bytes < baseline.attack.received_bytes

    def test_fault_metrics_count_injections_by_kind(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="sink_stall", at=5.0, duration=2.0),
                FaultSpec(kind="link_down", target="dev001", at=8.0,
                          duration=2.0),
            )
        )
        ddosim = DDoSim(tiny_config(faults=plan))
        ddosim.run()
        metrics = ddosim.obs.metrics
        assert metrics.value("faults_injected_total", "kind=sink_stall") == 1
        assert metrics.value("faults_injected_total", "kind=link_down") == 1
        assert ddosim.fault_injector.injected == 2


# ----------------------------------------------------------------------
# Bot reconnect backoff
# ----------------------------------------------------------------------
class TestReconnectBackoff:
    def test_deterministic_for_same_rng_state(self):
        delays_a = [reconnect_delay(n, random.Random(7)) for n in range(1, 6)]
        delays_b = [reconnect_delay(n, random.Random(7)) for n in range(1, 6)]
        assert delays_a == delays_b

    def test_exponential_growth_capped(self):
        rng = random.Random(1)
        # Jitter scales in [0.5, 1.0], so bounds per failure count are
        # [base*2^(n-1)/2, base*2^(n-1)] up to the cap.
        for failures in range(1, 12):
            delay = reconnect_delay(failures, rng)
            ceiling = min(
                RECONNECT_BACKOFF_MAX, RECONNECT_BACKOFF * 2 ** (failures - 1)
            )
            assert ceiling / 2.0 <= delay <= ceiling
        assert reconnect_delay(50, rng) <= RECONNECT_BACKOFF_MAX

    def test_jitter_desynchronizes_a_fleet(self):
        delays = {
            round(reconnect_delay(3, random.Random(seed)), 6)
            for seed in range(20)
        }
        assert len(delays) > 15  # not lockstep


# ----------------------------------------------------------------------
# C&C bot-table pruning
# ----------------------------------------------------------------------
class _DeadSocket:
    def send_line(self, line):
        raise ConnectionError("peer is gone")


class _LiveSocket:
    def __init__(self):
        self.lines = []

    def send_line(self, line):
        self.lines.append(line)


class TestCncPrune:
    def _record(self, bot_id, socket):
        return BotRecord(
            bot_id=bot_id, address=f"fe80::{bot_id}", architecture="x86_64",
            connected_at=0.0, socket=socket,
        )

    def test_broadcast_prunes_dead_peer_immediately(self):
        cnc = CncServer()
        dead = self._record(1, _DeadSocket())
        live = self._record(2, _LiveSocket())
        cnc.bots = {1: dead, 2: live}
        sent = cnc.broadcast("PING")
        assert sent == 1
        assert not dead.alive
        assert 1 not in cnc.bots  # pruned, not just flagged
        assert cnc.bot_count() == 1
        assert live.socket.lines == ["PING"]

    def test_prune_notifies_bot_count_waiters_safely(self):
        cnc = CncServer()
        sim = Simulator()
        cnc._sim = sim
        cnc.bots = {1: self._record(1, _DeadSocket())}
        # A pending waiter must survive the prune-triggered notification.
        future = cnc.wait_for_bots(5)
        cnc.broadcast("PING")
        assert not future.done
        assert cnc.bot_count() == 0
        assert sim.obs.metrics.value("cnc_bot_prunes_total") == 0  # null obs


# ----------------------------------------------------------------------
# NetworkUnreachable
# ----------------------------------------------------------------------
class TestNetworkUnreachable:
    def test_connect_without_address_raises_connection_error(self):
        from repro.netsim.address import Ipv6Address
        from repro.netsim.node import Node
        from repro.netsim.tcp import NetworkUnreachable

        sim = Simulator()
        node = Node(sim, "orphan")  # no devices, no addresses
        destination = Ipv6Address.parse("2001:db8::1")
        with pytest.raises(NetworkUnreachable) as excinfo:
            node.tcp.connect(destination, 80)
        assert isinstance(excinfo.value, ConnectionError)


# ----------------------------------------------------------------------
# Fault sweep runner
# ----------------------------------------------------------------------
class TestFaultSweep:
    def test_sweep_scales_intensity(self):
        from repro.core.experiment import run_fault_sweep

        plan = FaultPlan(
            faults=(
                FaultSpec(kind="link_down", target="dev*", probability=1.0),
            )
        )
        rows = run_fault_sweep(
            plan, intensity_grid=(0.0, 1.0), n_devs=2,
            base_config=tiny_config(),
        )
        assert [row["intensity"] for row in rows] == [0.0, 1.0]
        assert rows[0]["faults_injected"] == 0
        assert rows[1]["faults_injected"] == 2  # both dev links downed
        assert rows[1]["avg_received_kbps"] <= rows[0]["avg_received_kbps"]

    def test_churn_plan_reproduces_churn_rows(self):
        from repro.core.experiment import run_fault_sweep, run_figure2

        churn_rows = run_figure2(
            devs_grid=(4,), churn_modes=("dynamic",),
            base_config=tiny_config(),
        )
        plan = FaultPlan(faults=(FaultSpec(kind="churn", mode="dynamic"),))
        fault_rows = run_fault_sweep(
            plan, intensity_grid=(1.0,), n_devs=4, base_config=tiny_config()
        )
        assert (
            fault_rows[0]["avg_received_kbps"]
            == churn_rows[0]["avg_received_kbps"]
        )
        assert (
            fault_rows[0]["bots_at_attack"] == churn_rows[0]["bots_at_attack"]
        )

    def test_config_with_plan_survives_serialization(self):
        from repro.serialization import config_from_json, config_to_json

        plan = FaultPlan(
            faults=(FaultSpec(kind="link_flap", target="dev*", at=10.0,
                              duration=5.0, count=2, period=30.0),),
            intensity=0.75,
        )
        config = tiny_config(faults=plan)
        rebuilt = config_from_json(config_to_json(config))
        assert rebuilt.faults == plan
        assert rebuilt == config


# ----------------------------------------------------------------------
# Flight-recorder integration: injections force a post-mortem dump
# ----------------------------------------------------------------------
class TestFlightRecorderDump:
    def test_injected_container_crash_dumps_recorder(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash", target="dev000", at=5.0),)
        )
        ddosim = DDoSim(tiny_config(faults=plan), observatory=Observatory())
        ddosim.run()
        dumps = ddosim.obs.recorder.dumps
        assert dumps, "fault injection must force a flight-recorder dump"
        crash = next(d for d in dumps if d["reason"] == "fault.crash")
        assert crash["t"] == pytest.approx(5.0)
        # The ring captured the run-up: container lifecycle notes plus
        # the fault.inject landmark itself.
        kinds = {note["kind"] for note in crash["notes"]}
        assert "container.spawn" in kinds
        assert "fault.inject" in kinds
        inject = next(n for n in crash["notes"] if n["kind"] == "fault.inject")
        assert inject["fault"] == "crash"
        assert inject["target"] == "dev000"

    def test_default_observatory_recorder_is_always_on(self):
        ddosim = DDoSim(tiny_config(), observatory=Observatory())
        assert ddosim.obs.recorder.enabled
        ddosim.run()
        # No faults, no crash: notes accumulate but nothing dumps.
        assert ddosim.obs.recorder.noted > 0
        assert ddosim.obs.recorder.dumps == []
