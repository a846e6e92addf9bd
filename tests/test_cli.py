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

    def test_service_replay_refuses_missing_directory(self, capsys, tmp_path):
        missing = tmp_path / "no-such-journal"
        assert main(["service", "replay", str(missing)]) != 0
        assert "no journal directory" in capsys.readouterr().err
        assert not missing.exists()
