#!/usr/bin/env python3
"""Empirical census of the six sparsity patterns over sampled 4x4 atoms.

Samples 2 x ``--trials`` atoms at n = d = 2 in one oracle run, classifies
each against the six admissible patterns, and prints frequency tables split
by sampling direction (U first at an even seed, V first at an odd one), each
over ``--trials`` atoms, together with a histogram of val (the count of
positive disjoint entries).  The classification itself guarantees val <= 7;
the census shows how often each pattern and each val actually occur.  Not
every allowed-positive slot of a pattern needs to be realizable, so rare
patterns are expected, not alarming.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from liftcert.cli import pattern_check, run_trials


def census(trials: int, seed: int) -> dict[str, list[tuple[int, int]]]:
    """The (pattern id, val) outcomes of seeds seed .. seed + 2 trials - 1,
    per sampling direction."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    outcomes, report = run_trials(2, 2, 2 * trials, seed, pattern_check)
    falsifier = report["falsifier"]
    if falsifier is not None:
        raise SystemExit(f"seed {falsifier['seed']} ({falsifier['direction']}): "
                         f"{falsifier['reason']}")
    # trial i draws U first when seed + i is even
    return {"u-first": outcomes[seed % 2::2], "v-first": outcomes[1 - seed % 2::2]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5000, help="samples per direction")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        by_direction = census(args.trials, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    for direction, outcomes in by_direction.items():
        patterns = Counter(pid for pid, _ in outcomes)
        vals = Counter(v for _, v in outcomes)
        print(f"\n{direction} ({args.trials} samples, seed {args.seed})")
        print("  pattern  count  share")
        for pid in range(1, 7):
            c = patterns.get(pid, 0)
            print(f"  {pid:>7}  {c:>5}  {c / args.trials:6.2%}")
        print("  val histogram:", dict(sorted(vals.items())))


if __name__ == "__main__":
    main()
