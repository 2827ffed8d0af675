#!/usr/bin/env python3
"""Sweep the lift-size lower bounds over block sizes and matrix widths.

For each d the exact power-ratio bound 3^n / (3^d - 1)^(floor((n-1)/d)+1) is
printed next to its closed-form floor kappa(d) * c(d)^n.  For d = 2 the
refined bound (1/sqrt 7)(9/7)^(n/2) is compared against both the exact
7-power ratio (equal at odd n, a factor sqrt(7) below it at even n) and the
general-analysis value (1/sqrt 8)(9/8)^(n/2), which it always beats.
"""

from __future__ import annotations

import argparse
import sys

from liftcert.bounds import (
    bound_report,
    lift_lower,
    refined_d2_lower,
    rho_upper,
    theorem_constants,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()
    # Every float printed is finite if bound_report, which decides by
    # logarithms before any power of n, accepts the largest n at each width
    # swept (and at d = 2, for the refined table).
    try:
        for d in sorted({*range(1, args.max_d + 1), 2}):
            if d <= args.max_n:
                bound_report(args.max_n, d)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)

    for d in range(1, args.max_d + 1):
        kappa, c = theorem_constants(d)
        print(f"\nd = {d}: kappa = {kappa:.6f}, c = {c:.6f}")
        print(f"  {'n':>3}  {'exact 3^n/k^pow':>16}  {'kappa*c^n':>12}")
        for n in range(d, args.max_n + 1):
            exact = float(lift_lower(n, d))
            print(f"  {n:>3}  {exact:>16.6g}  {kappa * c**n:>12.6g}")

    print("\nrefined d = 2 comparison")
    print(f"  {'n':>3}  {'3^n/7^pow':>12}  {'refined':>12}  {'general':>12}")
    kappa2, c2 = theorem_constants(2)
    for n in range(2, args.max_n + 1):
        seven_ratio = 3**n / rho_upper(n, 2, 7)
        refined = refined_d2_lower(n)
        general = kappa2 * c2**n
        print(f"  {n:>3}  {seven_ratio:>12.6g}  {refined:>12.6g}  {general:>12.6g}")


if __name__ == "__main__":
    main()
