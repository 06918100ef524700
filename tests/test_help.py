"""Every command-line entry point answers ``--help`` without crashing.

argparse %-formats help strings, so a bare ``%`` in one (say from an
f-string ``{ratio:.0%}``) only fails when ``--help`` actually renders.
This runs ``--help`` on every ``benchmarks/bench_*.py`` script and every
``python -m repro`` subcommand in a fresh interpreter.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser

ROOT = Path(__file__).resolve().parents[1]
BENCHES = sorted((ROOT / "benchmarks").glob("bench_*.py"))


def _subcommands() -> list[str]:
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    return []


def run_help(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args, "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def test_found_entry_points():
    assert len(BENCHES) > 10
    assert {"diversify", "serve"} <= set(_subcommands())


@pytest.mark.parametrize("bench", BENCHES, ids=lambda path: path.name)
def test_bench_help(bench):
    result = run_help(str(bench))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", _subcommands())
def test_cli_subcommand_help(command):
    result = run_help("-m", "repro", command)
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout
