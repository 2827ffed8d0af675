#!/usr/bin/env python3
"""Measure the margins of the rank cutoff RANK_TOL and the zero rule
NOISE_REL on sampled square atoms.

Every rank the oracles decide counts the singular values above RANK_TOL
times the largest.  For the atoms of seeds 0 .. 2 trials - 1 at n = d =
2..max-d (``trials`` atoms that draw U first, at the even seeds, and
``trials`` that draw V first) this prints, for the witness chain
[V_{e_1} ... V_{e_i}] and for the null-space SVD of the constrained side
(each string's partners placed side by side, reduced to d x d by one QR as
the library reduces them), the largest singular-value ratio cut as zero and
the smallest one kept.
Every evaluated entry is zero exactly when its squared product
||U_a^T V_b||_F^2 is at most NOISE_REL times its Cauchy-Schwarz bound
||U_a U_a^T||_F ||V_b V_b^T||_F.  From the squared products before that
clamp, computed here, each d's "products" row gives the largest ratio to
the bound that is stored as zero and the smallest one kept.  By-construction
zeros carry only rounding noise and should sit far below each cutoff, every
genuine ratio far above it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from liftcert.atoms import NOISE_REL, _partner_factors, block_size, sample_block
from liftcert.linalg import RANK_TOL, _prefixes, _reduced


def relative_singular_values(x: np.ndarray, top_axes: tuple[int, ...]) -> np.ndarray:
    """Singular values of a stack of matrices, each over the largest along
    ``top_axes`` of the singular values (NaN where that largest is zero)."""
    s = np.linalg.svd(x, compute_uv=False)
    top = np.max(s, axis=top_axes, keepdims=True)
    return (s / np.where(top > 0, top, np.nan)).ravel()


def product_ratios(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||U_a^T V_b||_F^2 over ||U_a U_a^T||_F ||V_b V_b^T||_F for every pair
    of every trial of a block, with no clamp (NaN where the bound is zero)."""
    squared = np.square(u.swapaxes(-1, -2)[:, :, None] @ v[:, None]).sum(axis=(-2, -1))
    gram = [np.linalg.norm(x @ x.swapaxes(-1, -2), axis=(-2, -1)) for x in (u, v)]
    bound = gram[0][:, :, None] * gram[1][:, None, :]
    return (squared / np.where(bound > 0, bound, np.nan)).ravel()


def margins(d: int, trials: int) -> dict[str, tuple[float, float]]:
    """Largest ratio cut and smallest kept, per SVD and for the evaluated
    products, over seeds 0 .. 2 trials - 1."""
    found = {"chain": [], "null space": [], "products": []}
    step = block_size(d)
    for lo in range(0, 2 * trials, step):
        seeds = range(lo, min(lo + step, 2 * trials))
        u, v = sample_block(d, d, seeds)
        found["products"].append(product_ratios(u, v))
        # the chains' prefixes as the witness builds them, compared
        # against the largest singular value of the whole chain
        chains = _prefixes(v[:, 1 << np.arange(d - 1, -1, -1)])
        found["chain"].append(relative_singular_values(chains, (-2, -1)))
        # the free side: U at an even seed, V at an odd one
        free = np.where((np.array(seeds) % 2 == 0)[:, None, None, None], u, v)
        found["null space"].append(
            relative_singular_values(_reduced(_partner_factors(free)), (-1,)))
    out = {}
    for kind, parts in found.items():
        ratios = np.concatenate(parts)
        ratios = ratios[~np.isnan(ratios)]
        tol = NOISE_REL if kind == "products" else RANK_TOL
        cut, kept = ratios[ratios <= tol], ratios[ratios > tol]
        out[kind] = (float(cut.max(initial=0.0)), float(kept.min(initial=np.inf)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=5)
    parser.add_argument("--trials", type=int, default=4096,
                        help="atoms per d and sampling direction")
    args = parser.parse_args()
    if not 2 <= args.max_d <= 6 or args.trials < 1:
        print("error: need 2 <= --max-d <= 6 and --trials >= 1", file=sys.stderr)
        raise SystemExit(2)
    print(f"RANK_TOL = {RANK_TOL:.1e}, NOISE_REL = {NOISE_REL:.1e}; "
          f"seeds 0..{2 * args.trials - 1} per d, U first at the even ones")
    for d in range(2, args.max_d + 1):
        for kind, (cut, kept) in margins(d, args.trials).items():
            print(f"d = {d}, {kind}: largest cut {cut:.2e}, smallest kept {kept:.2e}")


if __name__ == "__main__":
    main()
