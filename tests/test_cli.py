"""Tests for the `python -m repro` experiment CLI."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "FP64" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "OSC_Alltoall" in out

    def test_fig2_quick(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "MP 64/32" in out

    def test_table2_quick(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "FP64->FP32" in out

    def test_trace_alltoall(self, capsys, tmp_path):
        args = ["trace", "alltoall", "--ranks", "4", "--n", "8", "--out", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "wire bytes" in out and "OK" in out
        assert (tmp_path / "trace_alltoall.json").exists()
        assert (tmp_path / "BENCH_alltoall.json").exists()

    def test_trace_unknown_case_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "nope", "--out", str(tmp_path)])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])
