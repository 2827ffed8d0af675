"""Smoke runs of the scripts under scripts/ with small arguments."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("pattern_census.py", ["--trials", "20"], "u-first (20 samples, seed 0)"),
        ("bound_sweep.py", ["--max-d", "2", "--max-n", "4"],
         "d = 1: kappa = 1.000000, c = 1.500000"),
    ],
)
def test_script_runs(script, args, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
