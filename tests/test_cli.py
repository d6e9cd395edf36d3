"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestExperimentCommand:
    def test_fig5_tiny(self, capsys):
        code = main([
            "experiment", "fig5", "--hosts", "5",
            "--window", "35", "--warmup", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "root" in out and "attic" in out

    def test_table1_tiny(self, capsys):
        code = main([
            "experiment", "table1", "--hosts", "5", "--warmup", "45",
        ])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out


class TestRunCommand:
    def test_nlevel(self, capsys):
        code = main([
            "run", "--hosts", "5", "--window", "35", "--warmup", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gmetad root" in out
        assert "hosts up" in out

    def test_1level(self, capsys):
        code = main([
            "run", "--design", "1level", "--hosts", "5",
            "--window", "35", "--warmup", "20",
        ])
        assert code == 0
        assert "1level federation" in capsys.readouterr().out


class TestQueryCommand:
    def test_host_query(self, capsys):
        code = main([
            "query", "/sdsc-c0/sdsc-c0-0-2", "--hosts", "5",
            "--warmup", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert 'HOST NAME="sdsc-c0-0-2"' in out

    def test_unknown_gmetad_errors(self, capsys):
        code = main([
            "query", "/x", "--at", "nowhere", "--hosts", "5",
            "--warmup", "20",
        ])
        assert code == 2
        assert "unknown gmetad" in capsys.readouterr().err


class TestConfCommands:
    def test_check_gmetad_conf(self, tmp_path, capsys):
        path = tmp_path / "gmetad.conf"
        path.write_text(
            'gridname "G"\nscalability off\ndata_source "c" 20 h1 h2\n'
        )
        assert main(["check-gmetad-conf", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1level" in out
        assert "h1:8649 h2:8649" in out

    def test_check_gmetad_conf_bad_file(self, tmp_path, capsys):
        path = tmp_path / "gmetad.conf"
        path.write_text("warp_drive on\n")
        assert main(["check-gmetad-conf", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_check_gmetad_conf_missing_file(self, capsys):
        assert main(["check-gmetad-conf", "/no/such/file"]) == 2

    def test_check_gmond_conf(self, tmp_path, capsys):
        path = tmp_path / "gmond.conf"
        path.write_text('name "Meteor"\nheartbeat 30\n')
        assert main(["check-gmond-conf", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Meteor" in out
        assert "every 30s" in out


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestGstatCommand:
    def test_federation_status(self, capsys):
        code = main([
            "gstat", "--at", "root", "--hosts", "4", "--warmup", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GRID sdsc" in out

    def test_cluster_detail(self, capsys):
        code = main([
            "gstat", "--at", "attic", "--source", "attic-c0",
            "--hosts-detail", "--hosts", "3", "--warmup", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "CLUSTER attic-c0" in out
        assert "attic-c0-0-0" in out

    def test_unknown_gmetad(self, capsys):
        assert main([
            "gstat", "--at", "mars", "--hosts", "3", "--warmup", "20",
        ]) == 2


class TestReadtierCommand:
    ARGS = ["readtier", "--at", "sdsc", "--hosts", "4", "--replicas", "2",
            "--clients", "200", "--window", "30"]

    def test_drive_reports_lane_and_frames(self, capsys):
        """At a leaf the replicas decode cluster frames and parse only
        summary XML; they serve ``bin1`` with the shipped frames, so
        they encode none."""
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        lane = re.search(
            r"feed lane: frames decoded=(\d+) XML bytes parsed=(\d+)", out
        )
        assert lane and int(lane[1]) > 0 and int(lane[2]) > 0
        frames = out.split("bin1 frames: ")[1].splitlines()[0]
        encoded, reused = (int(f.split("=")[1]) for f in frames.split())
        assert encoded == 0 and reused > 0
        assert "byte identity" in out and ": OK" in out

    def test_byte_identity_mismatch_fails_the_command(
        self, capsys, monkeypatch
    ):
        from repro.readtier.replica import ReadReplica

        real = ReadReplica.serve_query

        def drifted(self, request):
            xml, seconds = real(self, request)
            return xml + "<!-- drift -->", seconds

        monkeypatch.setattr(ReadReplica, "serve_query", drifted)
        assert main(self.ARGS) == 1
        assert "MISMATCH" in capsys.readouterr().out
