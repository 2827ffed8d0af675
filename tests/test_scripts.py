"""Smoke runs of the scripts under scripts/ with small arguments."""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


#: sha256 of the full stdout of ``pattern_census.py --trials 500`` (seed 0).
CENSUS_500_DIGEST = "8d05464da90c518ba258e566a447125d19f00b209332b05c1ffa5f4399e219a8"


def run_script(script: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("pattern_census.py", ["--trials", "20"], "u-first (20 samples, seed 0)"),
        ("bound_sweep.py", ["--max-d", "2", "--max-n", "4"],
         "d = 1: kappa = 1.000000, c = 1.500000"),
    ],
)
def test_script_runs(script, args, line):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_pattern_census_report_pinned():
    proc = run_script("pattern_census.py", ["--trials", "500"])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == CENSUS_500_DIGEST


@pytest.mark.parametrize("args, message", [
    (["--trials", "0"], "error: trials must be at least 1, got 0"),
    (["--seed", "-1"], "error: seed -1 must be >= 0"),
])
def test_pattern_census_bad_arguments_exit_2(args, message):
    proc = run_script("pattern_census.py", args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [message]


def test_bound_sweep_past_the_double_range_exits_2():
    proc = run_script("bound_sweep.py", ["--max-d", "1", "--max-n", "1800"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "error: n = 1800 too large for a bound report at d = 1, k = 2"]


@functools.lru_cache(maxsize=None)
def margin_rows() -> dict[tuple[str, str], tuple[float, float]]:
    """(largest cut, smallest kept) per (d, kind) of ``rank_margin.py`` over
    seeds 0..599 at d = 2, 3: 300 atoms per sampling direction."""
    proc = run_script("rank_margin.py", ["--max-d", "3", "--trials", "300"])
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^d = (\d), ([a-z ]+): largest cut ([0-9.e+-]+), "
                      r"smallest kept ([0-9.e+-]+)$", proc.stdout, re.MULTILINE)
    return {(d, kind): (float(cut), float(kept)) for d, kind, cut, kept in rows}


def test_rank_cutoff_has_a_margin_on_both_sides():
    # every singular-value ratio of 600 seeded atoms at d = 2, 3 is rounding
    # noise far below RANK_TOL = 1e-9 or a genuine ratio far above it
    rows = {key: row for key, row in margin_rows().items() if key[1] != "products"}
    assert len(rows) == 4  # chain and null space at d = 2, 3
    for key, (cut, kept) in rows.items():
        assert cut < 1e-11 and kept > 1e-7, key


def test_noise_floor_has_a_margin_on_both_sides():
    # every evaluated product of the same atoms, over its Cauchy-Schwarz
    # bound, is rounding noise far below NOISE_REL = 1e-20 or far above it
    rows = {key: row for key, row in margin_rows().items() if key[1] == "products"}
    assert len(rows) == 2  # d = 2, 3
    for key, (cut, kept) in rows.items():
        assert cut < 1e-25 and kept > 1e-15, key


def test_rank_margin_bad_arguments_exit_2():
    proc = run_script("rank_margin.py", ["--max-d", "1"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: need 2 <= --max-d <= 6")


def test_mutant_list_applies_to_the_sources():
    # no mutant is run: each snippet must occur once, and each test must exist
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert [m.name for m in mutants.MUTANTS] == [
        "M1", "M2", "M4", "M5", "M6", "M7", "M8", "B1", "B2", "B3", "B4", "B5", "B6",
        "F1", "F2", "C1", "C2", "C3", "P1", "P2", "P3", "P4", "P5", "W1", "W2", "L1", "S3",
        "S4", "S5", "Φ1", "V1", "V2", "V3", "N1", "O1", "N2", "R1", "D1", "A1", "E1", "E2",
        "Z1"]
    assert mutants.snippet_faults() == []
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.tests
        for node in m.tests:
            path, *_, name = node.split("::")
            name, _, param = name.partition("[")
            text = (ROOT / path).read_text()
            assert f"def {name}(" in text, node
            # a parametrized node's id is spelled out in its test file
            assert not param or f'"{param.rstrip("]")}"' in text, node
