"""Parallel sweeps: jobs=N must be a pure wall-clock knob.

Grid points share nothing (each builds its own simulator from its own
seeded config), so spreading them across worker processes may never
change a row.  These tests pin that contract — serial and parallel
execution produce identical results, in input order — and the pool's
failure handling: a raising point fails the sweep like the serial path,
a worker death is retried once, and every death leaves a post-mortem.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core.config import SimulationConfig
from repro.parallel import SweepTelemetry, run_map


def _square(value):
    return value * value


class TestRunMap:
    def test_serial_path_preserves_order(self):
        assert run_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_path_preserves_order(self):
        items = list(range(20))
        assert run_map(_square, items, jobs=4) == [v * v for v in items]

    def test_single_item_short_circuits_pool(self):
        assert run_map(_square, [7], jobs=8) == [49]

    def test_import_leaves_multiprocessing_unloaded(self):
        # The pool is imported on the jobs>1 path only, so the serial
        # path (and the set-up time perfbench counts) never pays for it.
        code = ("import sys, repro.parallel; "
                "print(sorted(m for m in ('multiprocessing', 'pickle', "
                "'socket', 'subprocess') if m in sys.modules))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == "[]"


class TestSweepEquivalence:
    def test_figure2_rows_identical_across_jobs(self):
        from repro.core.experiment import run_figure2

        base = SimulationConfig(
            n_devs=1, attack_duration=5.0, sim_duration=30.0
        )
        serial = run_figure2(
            devs_grid=(2, 4), churn_modes=("none",), seed=3, base_config=base,
            jobs=1,
        )
        parallel = run_figure2(
            devs_grid=(2, 4), churn_modes=("none",), seed=3, base_config=base,
            jobs=2,
        )
        assert serial == parallel


def _die_once(item):
    value, flag = item
    if value == 1 and not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value + 100


def _two_always_dies(value):
    if value == 2:
        time.sleep(0.2)  # let the other points finish first
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _boom(value):
    if value == 1:
        raise ValueError("bad point")
    return value


def _boom_beside_a_slow_point(value):
    if value == 0:
        time.sleep(60)
    raise ValueError("bad point")


class TestSupervisedExecution:
    """The parent watches the pool: failures surface, deaths retry once."""

    def test_worker_death_retries_once_by_default(self, tmp_path):
        flag = str(tmp_path / "died-once")
        items = [(value, flag) for value in range(3)]
        assert run_map(_die_once, items, jobs=2) == [100, 101, 102]
        assert os.path.exists(flag), "the worker must actually have died"

    def test_worker_killing_point_fails_after_one_retry(self):
        with pytest.raises(RuntimeError, match=r"sweep point\(s\) 2 did not "
                                               r"finish.*on the retry"):
            run_map(_two_always_dies, [0, 1, 2], jobs=2)

    def test_point_exception_propagates_like_serial(self):
        with pytest.raises(ValueError, match="bad point"):
            run_map(_boom, [0, 1], jobs=2)

    def test_point_exception_stops_the_other_workers(self):
        with pytest.raises(ValueError, match="bad point"):
            run_map(_boom_beside_a_slow_point, [0, 1], jobs=2)
        # The slow point's worker is stopped, not left to run for 60 s.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_every_worker_death_dumps_the_flight_recorder(self, tmp_path):
        flag = str(tmp_path / "died-once")
        telemetry = SweepTelemetry(label="t", quiet=True)
        telemetry.begin(3, 2)
        run_map(_die_once, [(value, flag) for value in range(3)], jobs=2,
                telemetry=telemetry)
        assert [dump["reason"] for dump in telemetry.recorder.dumps] == [
            "sweep.worker_lost"]
        assert 1 in telemetry.recorder.dumps[0]["retry"]
        assert telemetry.finish()["retries"] >= 1

        telemetry = SweepTelemetry(label="t", quiet=True)
        telemetry.begin(3, 2)
        with pytest.raises(RuntimeError):
            run_map(_two_always_dies, [0, 1, 2], jobs=2, telemetry=telemetry)
        assert [dump["reason"] for dump in telemetry.recorder.dumps] == [
            "sweep.worker_lost", "sweep.worker_death"]
