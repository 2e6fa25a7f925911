"""Additional coverage: CLI sweep commands on tiny grids, epidemic CLI."""

import json


from repro.cli import main


class TestCliSweeps:
    def test_table1_with_custom_grid(self, capsys, tmp_path):
        out = tmp_path / "t1.json"
        code = main(["table1", "--grid", "2", "4", "--json", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        rows = json.loads(out.read_text())
        assert [row["n_devs"] for row in rows] == [2, 4]
        assert all("attack_time" in row for row in rows)

    def test_figure4_with_single_point(self, capsys):
        code = main(["figure4", "--grid", "2", "--no-cache"])
        assert code == 0
        output = capsys.readouterr().out
        assert "hardware_kbps" in output

    def test_epidemic_command(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "epidemic", "--devs", "8", "--duration", "120",
            "--scan-rate", "4", "--csv", str(out),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "final infected: 8/8" in output
        assert "SI fit" in output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,infected"
        assert len(lines) == 122  # header + 121 samples
