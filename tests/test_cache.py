"""repro.cache: content-addressed run store + incremental sweeps.

The cache's contract is reproducibility-grade: a warm rerun must return
*byte-identical* output to the cold run, any change to the config (seed,
grid knob, fault plan) or to the engine's code must miss, and an
interrupted sweep must resume from its committed points without
recomputing them.
"""

import dataclasses
import io
import json
import os
import sys

import pytest

from repro.cache import CachedRun, RunCache, code_salt, run_key
from repro.core.config import SimulationConfig
from repro.core.resources import ResourceReport
from repro.core.results import (
    AttackStatsSummary,
    ChurnSummary,
    RecruitmentStats,
    RunResult,
)
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import SweepTelemetry, run_cached
from repro.serialization import (
    config_to_canonical_json,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)


def tiny_config(**overrides):
    defaults = dict(
        n_devs=2, seed=1, attack_duration=5.0,
        recruit_timeout=20.0, sim_duration=60.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def fake_result(n_devs=2, seed=1) -> RunResult:
    return RunResult(
        n_devs=n_devs,
        seed=seed,
        churn_mode="none",
        attack_duration=5.0,
        recruitment=RecruitmentStats(devs_total=n_devs, by_binary={"connman": 1}),
        attack=AttackStatsSummary(avg_received_kbps=12.5),
        churn=ChurnSummary(),
        resources=ResourceReport(
            n_devs=n_devs, pre_attack_mem_gb=1.0,
            attack_mem_gb=1.5, attack_time_s=61.0,
        ),
        rate_series_kbps=[1.0, 2.0],
        events_executed=100,
        sim_end_time=60.0,
    )


def fake_point(config) -> CachedRun:
    return CachedRun(
        results=[fake_result(config.n_devs, config.seed)],
        metrics={"counters": {"x": {"": 1.0}}},
        extra={"tag": config.n_devs},
    )


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
class TestRunKey:
    def test_equal_configs_share_a_key(self):
        assert run_key(tiny_config()) == run_key(tiny_config())

    def test_seed_change_misses(self):
        assert run_key(tiny_config(seed=1)) != run_key(tiny_config(seed=2))

    def test_config_change_misses(self):
        assert run_key(tiny_config(n_devs=2)) != run_key(tiny_config(n_devs=3))

    def test_fault_plan_change_misses(self):
        plan = FaultPlan(faults=({"kind": "churn", "at": 10.0},))
        keys = {
            run_key(tiny_config()),
            run_key(tiny_config(faults=plan)),
            run_key(tiny_config(faults=plan.scaled(0.5))),
        }
        assert len(keys) == 3

    def test_code_salt_changes_key(self):
        config = tiny_config()
        assert run_key(config, salt="a") != run_key(config, salt="b")

    def test_code_salt_is_memoised_and_stable(self):
        assert code_salt() == code_salt()
        assert len(code_salt()) == 64

    def test_canonical_json_is_key_stable(self):
        text = config_to_canonical_json(tiny_config())
        assert text == config_to_canonical_json(tiny_config())
        assert "\n" not in text and ": " not in text
        assert json.loads(text)["n_devs"] == 2


# ----------------------------------------------------------------------
# Result round-trip (the deserialize half of a cache hit)
# ----------------------------------------------------------------------
class TestResultRoundTrip:
    def test_dict_round_trip_is_byte_identical(self):
        result = fake_result()
        rebuilt = result_from_dict(result_to_dict(result))
        assert result_to_json(rebuilt) == result_to_json(result)
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(result)

    def test_json_round_trip_of_real_run(self):
        from repro.core.framework import DDoSim

        result = DDoSim(tiny_config()).run()
        rebuilt = result_from_json(result_to_json(result))
        assert result_to_json(rebuilt) == result_to_json(result)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestRunCache:
    def test_get_put_round_trip(self, tmp_path):
        cache = RunCache(root=str(tmp_path / "c"))
        config = tiny_config()
        assert cache.get(config) is None
        cache.put(config, fake_point(config))
        hit = cache.get(config)
        assert hit is not None
        assert hit.result.n_devs == 2
        assert hit.extra == {"tag": 2}
        assert hit.metrics == {"counters": {"x": {"": 1.0}}}

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = RunCache(root=str(tmp_path / "c"))
        cache.put(tiny_config(), fake_point(tiny_config()))
        strays = [
            name
            for _dir, _sub, names in os.walk(str(tmp_path / "c"))
            for name in names
            if name.startswith(".tmp-")
        ]
        assert strays == []

    def test_corrupt_blob_is_a_miss_and_removed(self, tmp_path):
        cache = RunCache(root=str(tmp_path / "c"))
        config = tiny_config()
        cache.put(config, fake_point(config))
        path = cache._blob_path(cache.key_for(config))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "key": "truncated')
        assert cache.get(config) is None
        assert not os.path.exists(path)

    def test_salt_mismatch_is_a_miss(self, tmp_path):
        root = str(tmp_path / "c")
        config = tiny_config()
        RunCache(root=root, salt="engine-v1").put(config, fake_point(config))
        assert RunCache(root=root, salt="engine-v2").get(config) is None
        assert RunCache(root=root, salt="engine-v1").get(config) is not None

    def test_gc_evicts_least_recently_used(self, tmp_path):
        cache = RunCache(root=str(tmp_path / "c"), max_bytes=10**9)
        configs = [tiny_config(seed=seed) for seed in (1, 2, 3)]
        for index, config in enumerate(configs):
            cache.put(config, fake_point(config))
            path = cache._blob_path(cache.key_for(config))
            os.utime(path, (index, index))  # deterministic recency order
        blob_size = os.path.getsize(
            cache._blob_path(cache.key_for(configs[0]))
        )
        evicted = cache.gc(max_bytes=2 * blob_size + blob_size // 2)
        assert evicted == 1
        assert cache.get(configs[0]) is None  # oldest went first
        assert cache.get(configs[1]) is not None
        assert cache.get(configs[2]) is not None

    def test_clear_removes_everything(self, tmp_path):
        cache = RunCache(root=str(tmp_path / "c"))
        for seed in (1, 2):
            cache.put(tiny_config(seed=seed), fake_point(tiny_config(seed=seed)))
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_stats_persist_across_instances(self, tmp_path):
        root = str(tmp_path / "c")
        first = RunCache(root=root)
        config = tiny_config()
        assert first.get(config) is None  # miss
        first.put(config, fake_point(config))
        first.commit_session()
        second = RunCache(root=root)
        assert second.get(config) is not None  # hit
        second.commit_session()
        stats = RunCache(root=root).stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["last_sweep"] == {"hits": 1, "misses": 0, "hit_rate": 1.0}


# ----------------------------------------------------------------------
# Observability wiring
# ----------------------------------------------------------------------
class TestCacheObservability:
    def test_counters_gauge_and_traces(self, tmp_path):
        from repro.obs import Observatory

        obs = Observatory.full()
        cache = RunCache(root=str(tmp_path / "c"), observatory=obs)
        config = tiny_config()
        cache.get(config)  # miss
        cache.put(config, fake_point(config))
        cache.get(config)  # hit
        assert obs.metrics.value("cache_hits_total") == 1
        assert obs.metrics.value("cache_misses_total") == 1
        assert obs.metrics.value("cache_bytes") > 0
        assert len(obs.tracer.events("cache.hit")) == 1
        assert len(obs.tracer.events("cache.miss")) == 1
        assert len(obs.tracer.events("cache.store")) == 1


# ----------------------------------------------------------------------
# The incremental sweep engine
# ----------------------------------------------------------------------
class TestRunCached:
    def test_no_cache_is_plain_map(self):
        configs = [tiny_config(n_devs=n) for n in (2, 3)]
        runs = run_cached(fake_point, configs, cache=None)
        assert [run.extra["tag"] for run in runs] == [2, 3]

    # The cache keys each point on its point function as well as its
    # config, so a warm or resumed sweep reruns the same fake_point; the
    # failures these tests need are injected one level down, in the
    # fake_result it calls.
    def test_warm_sweep_recomputes_nothing(self, tmp_path, monkeypatch):
        configs = [tiny_config(n_devs=n) for n in (2, 3, 4)]
        cache = RunCache(root=str(tmp_path / "c"))
        cold = run_cached(fake_point, configs, cache=cache)

        def explode(n_devs, seed):
            raise AssertionError("warm sweep must not recompute")

        monkeypatch.setattr(sys.modules[__name__], "fake_result", explode)
        warm = run_cached(fake_point, configs,
                          cache=RunCache(root=str(tmp_path / "c")))
        assert [result_to_json(run.result) for run in warm] == [
            result_to_json(run.result) for run in cold
        ]
        assert [run.extra for run in warm] == [run.extra for run in cold]

    def test_interrupted_sweep_resumes_from_committed_points(self, tmp_path,
                                                             monkeypatch):
        configs = [tiny_config(n_devs=n) for n in (2, 3, 4, 5)]
        root = str(tmp_path / "c")
        executed = []
        real_result = fake_result

        def flaky(n_devs, seed):
            if n_devs == 4:
                raise RuntimeError("simulated interruption")
            executed.append(n_devs)
            return real_result(n_devs, seed)

        monkeypatch.setattr(sys.modules[__name__], "fake_result", flaky)
        with pytest.raises(RuntimeError):
            run_cached(fake_point, configs, cache=RunCache(root=root))
        assert executed == [2, 3]  # committed before the interruption

        monkeypatch.undo()
        resumed = run_cached(fake_point, configs, cache=RunCache(root=root))
        assert [run.extra["tag"] for run in resumed] == [2, 3, 4, 5]
        # RunCache.get served 2 and 3; only 4 and 5 were simulated.
        stats = RunCache(root=root).stats()
        assert stats["last_sweep"] == {
            "hits": 2, "misses": 2, "hit_rate": 0.5,
        }

    def test_parallel_cached_sweep_matches_serial(self, tmp_path):
        configs = [tiny_config(seed=seed) for seed in (1, 2, 3)]
        serial = run_cached(fake_point, configs, jobs=1, cache=None)
        warm_root = str(tmp_path / "c")
        parallel = run_cached(
            fake_point, configs, jobs=2, cache=RunCache(root=warm_root)
        )
        assert [result_to_json(r.result) for r in parallel] == [
            result_to_json(r.result) for r in serial
        ]
        # All three points were committed from the parent process.
        assert RunCache(root=warm_root).stats()["entries"] == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_telemetry_names_grid_indices_not_miss_positions(self, tmp_path,
                                                             jobs):
        configs = [tiny_config(n_devs=n) for n in (2, 3, 4, 5)]
        root = str(tmp_path / "c")
        run_cached(fake_point, configs[::2], cache=RunCache(root=root))
        stream = io.StringIO()
        telemetry = SweepTelemetry(label="t", stream=stream)
        run_cached(fake_point, configs, jobs=jobs, cache=RunCache(root=root),
                   telemetry=telemetry)
        lines = stream.getvalue().splitlines()
        assert [line.split()[2] for line in lines
                if "cache hit" in line] == ["0:", "2:"]
        assert sorted(line.split()[2] for line in lines
                      if "computed in" in line) == ["1:", "3:"]

    def test_point_function_is_part_of_the_key(self, tmp_path):
        """Figure 2 and the fault sweep build equal configs but store
        different payloads; neither may serve the other's point."""
        from repro.core.experiment import run_fault_sweep, run_figure2

        plan = FaultPlan(
            faults=(FaultSpec(kind="crash", target="dev000", at=5.0),)
        )
        cache = RunCache(root=str(tmp_path / "c"))
        figure2 = dict(devs_grid=(2,), churn_modes=("none",),
                       base_config=tiny_config(faults=plan))
        rows = run_figure2(cache=cache, **figure2)
        sweep = dict(plan=plan, intensity_grid=(1.0,), n_devs=2,
                     base_config=tiny_config())
        assert run_fault_sweep(cache=cache, **sweep) == run_fault_sweep(**sweep)
        telemetry = SweepTelemetry(quiet=True)
        assert run_figure2(cache=cache, telemetry=telemetry, **figure2) == rows
        assert telemetry.cached == 1


# ----------------------------------------------------------------------
# stats.json hardening
# ----------------------------------------------------------------------
class TestStatsHardening:
    def test_interrupted_persist_keeps_old_stats_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "c")
        cache = RunCache(root=root)
        cache.session_misses = 2
        cache.commit_session()
        stats_path = os.path.join(root, "stats.json")
        with open(stats_path, encoding="utf-8") as handle:
            before = handle.read()

        def explode(*_args, **_kwargs):
            raise KeyboardInterrupt  # ^C mid-serialization

        cache.session_hits = 7
        monkeypatch.setattr(json, "dump", explode)
        with pytest.raises(KeyboardInterrupt):
            cache.commit_session()
        monkeypatch.undo()
        with open(stats_path, encoding="utf-8") as handle:
            assert handle.read() == before  # rename never happened
        leftovers = [name for name in os.listdir(root)
                     if name.startswith(".tmp-")]
        assert leftovers == []

    def test_torn_stats_file_recovers_to_defaults(self, tmp_path):
        root = str(tmp_path / "c")
        cache = RunCache(root=root)
        os.makedirs(root, exist_ok=True)
        with open(os.path.join(root, "stats.json"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"hits": 3, "mis')  # torn non-atomic write
        stats = cache.stats()
        assert stats["hits"] == 0  # unreadable -> clean slate
        cache.session_hits = 1
        cache.commit_session()
        with open(os.path.join(root, "stats.json"),
                  encoding="utf-8") as handle:
            assert json.load(handle)["hits"] == 1


# ----------------------------------------------------------------------
# CLI: sweep cache flags + the cache subcommand
# ----------------------------------------------------------------------
class TestCacheCli:
    def test_sweep_then_cache_subcommands(self, capsys, tmp_path):
        from repro.cli import main

        cache_dir = str(tmp_path / "cc")
        sweep = ["table1", "--grid", "2", "--cache-dir", cache_dir]
        assert main(sweep) == 0
        cold = capsys.readouterr().out
        assert main(sweep) == 0
        assert capsys.readouterr().out == cold

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "entries    1" in stats_out
        assert "last sweep 1/1 hits (100%)" in stats_out

        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-bytes", "0"]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_no_cache_flag_skips_the_store(self, capsys, tmp_path):
        from repro.cli import main

        cache_dir = tmp_path / "cc"
        assert main(["table1", "--grid", "2", "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert not cache_dir.exists()


# ----------------------------------------------------------------------
# End-to-end: a real sweep through the real engine
# ----------------------------------------------------------------------
class TestSweepEndToEnd:
    def test_figure2_warm_rerun_is_byte_identical(self, tmp_path):
        from repro.core.experiment import run_figure2

        base = tiny_config()
        kwargs = dict(
            devs_grid=(2, 3), churn_modes=("none",), seed=1, base_config=base,
        )
        root = str(tmp_path / "c")
        cold = run_figure2(cache=RunCache(root=root), **kwargs)
        warm_cache = RunCache(root=root)
        warm = run_figure2(cache=warm_cache, **kwargs)
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
        assert warm_cache.stats()["last_sweep"] == {
            "hits": 2, "misses": 0, "hit_rate": 1.0,
        }
        no_cache = run_figure2(**kwargs)
        assert json.dumps(no_cache, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )

    def test_fault_sweep_extra_scalars_survive_the_cache(self, tmp_path):
        from repro.core.experiment import run_fault_sweep

        plan = FaultPlan()
        base = tiny_config()
        root = str(tmp_path / "c")
        cold = run_fault_sweep(
            plan, intensity_grid=(0.0, 1.0), n_devs=2, base_config=base,
            cache=RunCache(root=root),
        )
        warm = run_fault_sweep(
            plan, intensity_grid=(0.0, 1.0), n_devs=2, base_config=base,
            cache=RunCache(root=root),
        )
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
