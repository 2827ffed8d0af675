#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it as one JSON file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/NAME.json

Each run is ``perfbench/run.py`` in its own process, one after another, with
the ``run_seconds`` of BENCHMARK.json.  Per workload and end-to-end metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (quartile distance over median) against the metric's bound, and every
value.  One traced run per workload (first seed) adds the per-layer metrics
and the traced job's shares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(detail)


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "n": len(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        entry = {
            "why": runs[0][1]["why"],
            "item": runs[0][1]["item"],
            "items_per_job": runs[0][1]["items_per_job"],
            "provenance": runs[0][1]["provenance"],
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "correct": all(r["correct"] for r, _ in runs),
            "end_to_end": {
                m: summarize([r["metrics"][m]["value"] for r, _ in runs], bounds[m])
                for m in bounds
            },
            "samples_per_run": runs[0][1]["samples"],
        }
        result, detail = run_once(name, seeds[0], spec["run_seconds"], 1)
        entry["traced"] = {
            "seed": seeds[0],
            "correct": result["correct"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "job_shares": detail["job_shares"],
            "trial_samples": detail["trial_samples"],
        }
        summary["workloads"][name] = entry
        print(json.dumps({name: {m: round(v["spread"], 4)
                                 for m, v in entry["end_to_end"].items()}}), flush=True)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
