"""Tests for the experiment observatory report (repro.obs.report) and
the sweep telemetry that feeds its execution summary."""

import io
import json

import pytest

from repro.analysis.features import capture_records_from_flows, windows_from_capture
from repro.cli import main
from repro.core import DDoSim, SimulationConfig
from repro.obs import Observatory, flows_jsonl, render_run_report, render_sweep_report
from repro.parallel import SweepTelemetry, run_map


@pytest.fixture(scope="module")
def reported_run():
    config = SimulationConfig(
        n_devs=2, seed=1, attack_duration=10.0, recruit_timeout=30.0,
        sim_duration=120.0, protection_profiles=((),),
    )
    ddosim = DDoSim(config, observatory=Observatory.full())
    result = ddosim.run()
    return ddosim, result


def assert_self_contained(html: str) -> None:
    """The acceptance bar: one file, no runtime dependencies."""
    lowered = html.lower()
    assert lowered.startswith("<!doctype html>")
    assert "<script" not in lowered
    assert "http://" not in lowered
    assert "https://" not in lowered
    assert "<style>" in lowered  # CSS inlined, not linked
    assert 'rel="stylesheet"' not in lowered


class TestRunReport:
    def test_html_is_self_contained(self, reported_run):
        ddosim, result = reported_run
        html = render_run_report(
            result,
            spans=ddosim.obs.spans,
            tracer=ddosim.obs.tracer,
            recorder=ddosim.obs.recorder,
        )
        assert_self_contained(html)

    def test_sections_cover_tree_timeline_and_rate(self, reported_run):
        ddosim, result = reported_run
        html = render_run_report(
            result,
            spans=ddosim.obs.spans,
            tracer=ddosim.obs.tracer,
            recorder=ddosim.obs.recorder,
        )
        assert "attack.train" in html          # causal tree rendered
        assert "cnc.recruit" in html
        assert "<svg" in html                  # rate sparkline inlined
        assert "timeline" in html.lower()

    def test_missing_layers_render_notes_not_errors(self, reported_run):
        _ddosim, result = reported_run
        html = render_run_report(result)
        assert_self_contained(html)

    def test_report_command_writes_html_and_flows(self, tmp_path, capsys):
        html_path, flows_path = tmp_path / "report.html", tmp_path / "flows.jsonl"
        assert main(["report", "--devs", "4", "--duration", "10",
                     "--out", str(html_path), "--flows", str(flows_path)]) == 0
        html = html_path.read_text(encoding="utf-8")
        assert_self_contained(html)
        assert "attack.train" in html
        flows = [json.loads(line) for line in flows_path.read_text().splitlines()]
        assert flows and all(flow["packets"] > 0 for flow in flows)
        assert f"({len(flows)} flows)" in capsys.readouterr().out


class TestSweepReport:
    def test_rows_and_sparklines(self):
        rows = [
            {"n_devs": 10, "avg_kbps": 100.5, "label": "a"},
            {"n_devs": 50, "avg_kbps": 480.25, "label": "b"},
        ]
        html = render_sweep_report(rows, telemetry_summary={
            "total": 2, "cached": 1, "computed": 1, "stragglers": 0,
            "wall_seconds": 0.5,
        })
        assert_self_contained(html)
        assert "avg_kbps" in html
        assert "480.25" in html
        assert "<svg" in html

    def test_empty_rows_still_render(self):
        assert_self_contained(render_sweep_report([]))


class TestFlowsRoundTrip:
    def test_flows_jsonl_round_trips_through_features(self, reported_run):
        ddosim, result = reported_run
        flows = ddosim.tserver.sink.flow_records()
        assert flows, "attack run must leave flow records at the sink"
        text = flows_jsonl(flows)
        parsed = [json.loads(line) for line in text.splitlines()]
        assert parsed == json.loads(json.dumps(flows))  # lossless

        records = capture_records_from_flows(parsed)
        assert len(records) == sum(flow["packets"] for flow in flows)
        X, y = windows_from_capture(
            records,
            start=0.0,
            end=result.sim_end_time,
            window=5.0,
            attack_interval=(result.attack.issued_at,
                             result.attack.issued_at + 10.0),
        )
        assert X.shape[0] == len(y) > 0
        assert y.max() == 1  # attack windows labelled
        # Attack windows see traffic the idle windows do not.
        assert X[y == 1, 0].max() > X[y == 0, 0].max()

    def test_flow_records_are_deterministically_ordered(self, reported_run):
        ddosim, _result = reported_run
        flows = ddosim.tserver.sink.flow_records()
        keys = [(str(f["src"]), f["src_port"], f["dst_port"]) for f in flows]
        assert keys == sorted(keys)


@pytest.fixture(scope="module")
def fluid_reported_run():
    """The same tiny scenario on the fully-fluid datapath."""
    config = SimulationConfig(
        n_devs=2, seed=1, attack_duration=10.0, recruit_timeout=30.0,
        sim_duration=120.0, protection_profiles=((),), flood_flow="all",
    )
    ddosim = DDoSim(config, observatory=Observatory.full())
    result = ddosim.run()
    return ddosim, result


class TestFluidFlowReport:
    """Flow-mode runs feed the same report surfaces: rate sparkline,
    NetFlow JSONL, and the analysis.features round trip."""

    def test_run_report_renders_rate_sparkline(self, fluid_reported_run):
        ddosim, result = fluid_reported_run
        assert any(result.rate_series_kbps), \
            "fluid delivery must fill the received-rate series"
        html = render_run_report(
            result,
            spans=ddosim.obs.spans,
            tracer=ddosim.obs.tracer,
            recorder=ddosim.obs.recorder,
        )
        assert_self_contained(html)
        assert "<svg" in html

    def test_flows_jsonl_round_trips_through_features(self, fluid_reported_run):
        ddosim, result = fluid_reported_run
        flows = ddosim.tserver.sink.flow_records()
        assert flows, "fluid attack must leave flow records at the sink"
        text = flows_jsonl(flows)
        parsed = [json.loads(line) for line in text.splitlines()]
        assert parsed == json.loads(json.dumps(flows))

        records = capture_records_from_flows(parsed)
        assert len(records) == sum(flow["packets"] for flow in flows)
        X, y = windows_from_capture(
            records,
            start=0.0,
            end=result.sim_end_time,
            window=5.0,
            attack_interval=(result.attack.issued_at,
                             result.attack.issued_at + 10.0),
        )
        assert X.shape[0] == len(y) > 0
        assert y.max() == 1
        assert X[y == 1, 0].max() > X[y == 0, 0].max()


def _slow_square(value):
    return value * value


class TestSweepTelemetry:
    def test_progress_lines_and_summary(self):
        stream = io.StringIO()
        telemetry = SweepTelemetry(label="figure2", stream=stream)
        telemetry.begin(3, jobs=2)
        telemetry.point_cached(0, key="abcdef123456")
        telemetry.point_done(1, 0.5)
        telemetry.point_done(2, 0.6)
        summary = telemetry.finish()
        assert summary == telemetry.last_summary
        assert summary["total"] == 3
        assert summary["cached"] == 1
        assert summary["computed"] == 2
        assert summary["stragglers"] == []
        output = stream.getvalue()
        assert "[figure2]" in output
        assert "abcdef123456" in output

    def test_straggler_flagged_and_recorded(self):
        stream = io.StringIO()
        telemetry = SweepTelemetry(label="t", stream=stream,
                                   straggler_factor=3.0)
        telemetry.begin(4, jobs=1)
        for index in range(3):
            telemetry.point_done(index, 0.1)
        telemetry.point_done(3, 10.0)  # >> 3x median
        assert telemetry.stragglers == [3]
        assert "STRAGGLER" in stream.getvalue()
        done = [note for note in telemetry.recorder.recent()
                if note["kind"] == "sweep.point_done"]
        assert [note["index"] for note in done] == [0, 1, 2, 3]

    def test_worker_death_dumps_flight_recorder(self):
        stream = io.StringIO()
        telemetry = SweepTelemetry(label="t", stream=stream)
        telemetry.begin(2, jobs=2)
        telemetry.point_done(0, 0.1)
        telemetry.worker_died(RuntimeError("boom"))
        assert telemetry.recorder.dumps
        assert telemetry.recorder.dumps[-1]["reason"] == "sweep.worker_death"
        assert "boom" in stream.getvalue()

    def test_run_map_with_telemetry_preserves_results(self):
        stream = io.StringIO()
        telemetry = SweepTelemetry(label="map", stream=stream)
        telemetry.begin(4, jobs=1)
        values = run_map(_slow_square, [1, 2, 3, 4], jobs=1,
                         telemetry=telemetry)
        telemetry.finish()
        assert values == [1, 4, 9, 16]
        assert telemetry.computed == 4
