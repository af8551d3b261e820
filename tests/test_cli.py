"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_cli_loads_no_scipy(tmp_path):
    """CLI start-up stays numpy-only: scipy (behind the Poisson solvers)
    loads with the first NEGF device, not with ``import repro.cli``."""
    script = ("import sys, repro.cli; print(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy'))")
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "table1" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_writes_output_file(self, tmp_path, tech, capsys):
        out = tmp_path / "report.txt"
        assert main(["run", "fig2", "--fast", "--out", str(out)]) == 0
        assert "Fig 2" in out.read_text()
