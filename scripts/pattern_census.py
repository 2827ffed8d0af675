#!/usr/bin/env python3
"""Empirical census of the six sparsity patterns over sampled 4x4 atoms.

Samples atoms at n = d = 2, classifies each against the six admissible
patterns, and prints frequency tables split by sampling direction together
with a histogram of val (the count of positive disjoint entries).  The
classification itself guarantees val <= 7; the census shows how often each
pattern and each val actually occur.  Not every allowed-positive slot of a
pattern needs to be realizable, so rare patterns are expected, not alarming.
"""

from __future__ import annotations

import argparse
from collections import Counter

from liftcert.atoms import block_size, evaluate_block, pattern_block, sample_block
from liftcert.bitcore import support_block, val_block


def census(trials: int, seed: int, direction: str) -> tuple[Counter, Counter]:
    patterns: Counter[int] = Counter()
    vals: Counter[int] = Counter()
    for start in range(seed, seed + trials, block_size(2)):
        seeds = range(start, min(start + block_size(2), seed + trials))
        u, v = sample_block(2, 2, "uniform", seeds, [direction] * len(seeds))
        support = support_block(evaluate_block(u, v))
        pids = pattern_block(support)
        if not pids.all():
            raise SystemExit(f"seed {seeds[int(pids.argmin())]} ({direction}): "
                             "support fits none of the six patterns")
        patterns.update(pids.tolist())
        vals.update(val_block(support).tolist())
    return patterns, vals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5000, help="samples per direction")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for direction in ("u-first", "v-first"):
        patterns, vals = census(args.trials, args.seed, direction)
        print(f"\n{direction} ({args.trials} samples, seed {args.seed})")
        print("  pattern  count  share")
        for pid in range(1, 7):
            c = patterns.get(pid, 0)
            print(f"  {pid:>7}  {c:>5}  {c / args.trials:6.2%}")
        print("  val histogram:", dict(sorted(vals.items())))


if __name__ == "__main__":
    main()
