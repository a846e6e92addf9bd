"""Tests for the operator CLI (python -m repro)."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_topology_command(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "3 rings" in out
        assert "s1 <-> s2" in out

    def test_topology_custom_size(self, capsys):
        main(["topology", "--rings", "2", "--hosts", "1"])
        out = capsys.readouterr().out
        assert "2 rings" in out

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "video-1" in out
        assert "TOTAL" in out

    def test_buffers_command(self, capsys):
        assert main(["buffers"]) == 0
        out = capsys.readouterr().out
        assert "MAC transmit queues" in out
        assert "TOTAL" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bench_command_quick(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "tr-hopeless" in out
        assert "decisions identical" in out
        import json

        payload = json.loads(out_path.read_text())
        assert payload["macro_decisions_identical"] is True
        steps = payload["decision_trajectory"]["decisions"]
        assert [s["conn_id"] for s in steps][:3] == ["tr-1", "tr-2", "tr-hopeless"]
        assert "results" not in payload

    def test_bench_command_no_file(self, capsys):
        assert main(["bench", "--quick", "--output", "-"]) == 0
        assert "written to" not in capsys.readouterr().out
