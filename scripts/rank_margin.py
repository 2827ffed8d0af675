#!/usr/bin/env python3
"""Measure the margin of the rank cutoff RANK_TOL on sampled square atoms.

Every rank the oracles decide counts the singular values above RANK_TOL
times the largest.  For seeded blocks at n = d = 2..max-d this prints, for
the witness chain [V_{e_1} ... V_{e_i}] (both sampling directions) and for
the null-space SVD of the constrained side (each string's partners placed
side by side, reduced to d x d by one QR as the library reduces them), the
largest singular-value ratio cut as zero and the smallest one kept.
By-construction zeros carry only rounding noise and should sit far below
RANK_TOL, every genuine ratio far above it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from liftcert.atoms import _partner_factors, block_size, sample_block
from liftcert.linalg import RANK_TOL, _prefixes, _reduced


def relative_singular_values(x: np.ndarray, top_axes: tuple[int, ...]) -> np.ndarray:
    """Singular values of a stack of matrices, each over the largest along
    ``top_axes`` of the singular values (NaN where that largest is zero)."""
    s = np.linalg.svd(x, compute_uv=False)
    top = np.max(s, axis=top_axes, keepdims=True)
    return (s / np.where(top > 0, top, np.nan)).ravel()


def margins(d: int, trials: int) -> dict[str, tuple[float, float]]:
    """Largest ratio cut and smallest kept, per SVD, over ``trials`` seeds."""
    found = {"chain": [], "null space": []}
    step = block_size(d)
    for lo in range(0, trials, step):
        seeds = range(lo, min(lo + step, trials))
        for direction in ("u-first", "v-first"):
            _, v = sample_block(d, d, seeds, [direction] * len(seeds))
            # the chains' prefixes as the witness builds them, compared
            # against the largest singular value of the whole chain
            chains = _prefixes(v[:, 1 << np.arange(d - 1, -1, -1)])
            found["chain"].append(relative_singular_values(chains, (-2, -1)))
            if direction == "v-first":  # the free side is the same either way
                found["null space"].append(
                    relative_singular_values(_reduced(_partner_factors(v)), (-1,)))
    out = {}
    for kind, parts in found.items():
        ratios = np.concatenate(parts)
        ratios = ratios[~np.isnan(ratios)]
        cut, kept = ratios[ratios <= RANK_TOL], ratios[ratios > RANK_TOL]
        out[kind] = (float(cut.max(initial=0.0)), float(kept.min(initial=np.inf)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=5)
    parser.add_argument("--trials", type=int, default=4096, help="seeds per d")
    args = parser.parse_args()
    if not 2 <= args.max_d <= 6 or args.trials < 1:
        print("error: need 2 <= --max-d <= 6 and --trials >= 1", file=sys.stderr)
        raise SystemExit(2)
    print(f"RANK_TOL = {RANK_TOL:.1e}; seeds 0..{args.trials - 1} per d")
    for d in range(2, args.max_d + 1):
        for kind, (cut, kept) in margins(d, args.trials).items():
            print(f"d = {d}, {kind}: largest cut {cut:.2e}, smallest kept {kept:.2e}")


if __name__ == "__main__":
    main()
