"""Tests for config/result serialization and the CLI."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.config import SimulationConfig
from repro.core.framework import DDoSim
from repro.serialization import (
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    result_to_dict,
    result_to_json,
    rows_to_csv,
)


class TestConfigSerialization:
    def test_roundtrip_defaults(self):
        config = SimulationConfig(n_devs=25, seed=9)
        restored = config_from_json(config_to_json(config))
        assert restored == config

    def test_roundtrip_customized(self):
        config = SimulationConfig(
            n_devs=7,
            churn="dynamic",
            churn_phi=(0.3, 0.2, 0.1),
            dev_rate_kbps=(50.0, 200.0),
            protection_profiles=(("wx",), ()),
            binary_mix="connman",
        )
        restored = config_from_json(config_to_json(config))
        assert restored == config

    def test_unknown_field_rejected(self):
        data = config_to_dict(SimulationConfig(n_devs=3))
        data["warp_speed"] = True
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_dict(data)

    def test_json_is_plain_types(self):
        parsed = json.loads(config_to_json(SimulationConfig(n_devs=3)))
        assert parsed["n_devs"] == 3
        assert isinstance(parsed["protection_profiles"], list)


class TestResultSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        config = SimulationConfig(
            n_devs=3, seed=2, attack_duration=10.0,
            recruit_timeout=30.0, sim_duration=120.0,
        )
        return DDoSim(config).run()

    def test_result_round_trips_through_json(self, result):
        parsed = json.loads(result_to_json(result))
        assert parsed["n_devs"] == 3
        assert parsed["recruitment"]["bots_recruited"] == 3
        assert parsed["attack"]["avg_received_kbps"] > 0
        assert isinstance(parsed["rate_series_kbps"], list)

    def test_result_dict_has_nested_dataclasses(self, result):
        data = result_to_dict(result)
        assert set(data["churn"]) == {"mode", "departures", "rejoins", "online_at_end"}
        assert "attack_time_s" in data["resources"]


class TestRowsCsv:
    def test_renders_header_and_rows(self):
        csv = rows_to_csv([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = csv.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"
        assert lines[2] == "2,y"

    def test_empty(self):
        assert rows_to_csv([]) == ""


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("run", "figure2", "figure3", "table1", "figure4",
                        "recruitment", "epidemic"):
            assert command in text

    def test_run_command(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = main([
            "run", "--devs", "2", "--duration", "10", "--seed", "3",
            "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "infection_rate" in captured
        data = json.loads(out.read_text())
        assert data["n_devs"] == 2

    def test_run_with_config_file(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config = SimulationConfig(
            n_devs=2, seed=5, attack_duration=10.0,
            recruit_timeout=30.0, sim_duration=120.0,
        )
        config_path.write_text(config_to_json(config))
        code = main(["run", "--config", str(config_path)])
        assert code == 0
        assert "2" in capsys.readouterr().out

    def test_recruitment_command_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["recruitment", "--devs", "2", "--csv", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("binary,")
        assert len(lines) == 9  # header + 8 combos

    def test_invalid_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["obs"],
        ["lint", "--baseline", "findings.json"],
        ["lint", "--write-baseline", "findings.json"],
        ["lint", "--fix"],
        ["lint", "--diff", "HEAD"],
    ])
    def test_retired_commands_and_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_trace_out_leaves_the_metrics_snapshot_unchanged(self, tmp_path):
        trace, traced, plain = (tmp_path / name for name in (
            "trace.json", "traced.metrics.json", "plain.metrics.json"))
        run = ["run", "--devs", "4", "--duration", "10"]
        assert main(run + ["--trace-out", str(trace),
                           "--metrics-out", str(traced)]) == 0
        assert main(run + ["--metrics-out", str(plain)]) == 0
        assert traced.read_bytes() == plain.read_bytes()
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(event["name"] == "sched.fire" and event["ph"] == "i"
                   for event in events)

    def test_unwritable_output_fails_before_the_run(self, tmp_path,
                                                    monkeypatch):
        def forbidden_run(self):
            raise AssertionError("ran the simulation before checking --json")

        monkeypatch.setattr(DDoSim, "run", forbidden_run)
        with pytest.raises(FileNotFoundError):
            main(["run", "--json", str(tmp_path / "missing" / "x.json")])

    def test_failed_run_keeps_an_earlier_output_file(self, tmp_path):
        out = tmp_path / "result.json"
        out.write_text("earlier")
        with pytest.raises(FileNotFoundError):
            main(["run", "--json", str(out),
                  "--faults", str(tmp_path / "missing-plan.json")])
        assert out.read_text() == "earlier"

    def test_failed_run_leaves_no_new_output_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["run", "--devs", "2",
                  "--json", str(tmp_path / "r.json"),
                  "--metrics-out", str(tmp_path / "m.json"),
                  "--trace-out", str(tmp_path / "t.json"),
                  "--faults", str(tmp_path / "missing-plan.json")])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_cut_short_run_writes_its_trace_so_far(self, tmp_path,
                                                   monkeypatch, error):
        """A run stopped mid-way by ^C (exit 130) or by an error (which
        propagates) leaves its trace up to that instant."""
        stop_at = 20.0

        def stop():
            raise error

        class StoppedDDoSim(DDoSim):
            def run(self):
                self.sim.schedule_at(stop_at, stop)
                return super().run()

        monkeypatch.setattr(cli, "DDoSim", StoppedDDoSim)
        trace = tmp_path / "trace.json"
        argv = ["run", "--devs", "4", "--duration", "10",
                "--trace-out", str(trace)]
        if error is KeyboardInterrupt:
            assert main(argv) == 130
        else:
            with pytest.raises(error):
                main(argv)
        events = [event for event in json.loads(trace.read_text())["traceEvents"]
                  if event["ph"] == "i"]
        assert any(event["name"] == "container.spawn" for event in events)
        # The last event is the stopping callback's own sched.fire.
        assert max(event["ts"] for event in events) == stop_at * 1e6
