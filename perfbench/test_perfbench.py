"""Smoke test of the benchmark itself: every workload and check at reduced size.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_smoke_runs_every_workload_correctly():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results = run.smoke()
    assert {name for name, _ in results} == {w["name"] for w in spec["workloads"]}
    for (name, trace), (result, detail) in results.items():
        assert result["correct"] and result["failed"] == 0, (name, detail["errors"])
        assert result["attempted"] >= 1
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_call_counts_repeat_across_traced_runs():
    first, _ = run.run_workload("oracle-small", seed=3, seconds=0, trace=True, smoke=True)
    second, _ = run.run_workload("oracle-small", seed=3, seconds=0, trace=True, smoke=True)
    counts = {k for k in first["metrics"] if k.endswith(".calls")}
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


def test_metric_of_a_missing_function_fails_the_run(monkeypatch):
    spec = run.read_spec()
    gone = {"name": "covering.no_such_function.calls", "unit": "count", "better": "lower"}
    spec["per_layer"] = spec["per_layer"] + [gone]
    monkeypatch.setattr(run, "read_spec", lambda: spec)
    result, detail = run.run_workload("udisj-n9", seed=0, seconds=0, trace=True, smoke=True)
    assert not result["correct"] and result["failed"] == 1
    assert gone["name"] not in result["metrics"]
    assert any(gone["name"] in e for e in detail["errors"])
    called_never = "atoms.sample_atom.calls"  # exists, but udisj never samples
    assert result["metrics"][called_never]["value"] == 0


def test_checks_reject_a_wrong_report():
    run.load_program()
    from workloads import CheckFailed, check_oracle

    report = {"trials": 5, "passes": 4, "falsifier": None}
    with pytest.raises(CheckFailed):
        check_oracle(5, json.dumps(report))
