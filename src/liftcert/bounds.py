"""Closed-form bound formulas tying coverings to lift-size lower bounds.

A k-uniform-covering at base width d caps the positive-disjoint-entry count
of any width-n atom at k^(floor((n-1)/d)+1).  Since the unique-disjointness
matrix has 3^n positive disjoint entries and every term of a block-PSD
decomposition is an atom, the number of blocks is at least

    3^n / (3^d - 1)^(floor((n-1)/d)+1)  >=  kappa(d) * c(d)^n

with c(d) = (1 - 1/3^d)^(-1/d) > 1 and kappa(d) = (3^d - 1)^(-(1-1/d)).
For d = 1 this reads (3/2)^n.  For d = 2 the 7-rectangle covering refines
the constants to kappa = 1/sqrt(7) and c = sqrt(9/7), which beats the
general-formula pair (1/sqrt(8), sqrt(9/8)); both variants are exposed side
by side and never collapsed.

Integer powers are exact big integers and the power-ratio bounds exact
rationals, and a report's invariants are integer facts, so no check drifts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

#: Refined constants for width-2 blocks, from the 7-rectangle covering.
REFINED_KAPPA_D2 = 1.0 / math.sqrt(7.0)
REFINED_C_D2 = math.sqrt(9.0 / 7.0)

#: Python's default cap on the digits of an int converted to text.
MAX_REPORT_DIGITS = 4300
_LOG10_MAX = 1024 * math.log10(2)  # a double overflows at 2^1024


def _check_nd(n: int, d: int) -> None:
    if d < 1:
        raise ValueError(f"d = {d} must be >= 1")
    if n < d:
        raise ValueError(f"n = {n} must be >= d = {d}")


def rho_upper(n: int, d: int, k: int) -> int:
    """Cap k^(floor((n-1)/d)+1) on val over width-n atoms, as an exact integer."""
    _check_nd(n, d)
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    return k ** ((n - 1) // d + 1)


def lift_lower(n: int, d: int) -> Fraction:
    """Exact block-count lower bound 3^n / (3^d - 1)^(floor((n-1)/d)+1)."""
    _check_nd(n, d)
    return Fraction(3**n, rho_upper(n, d, 3**d - 1))


def theorem_constants(d: int) -> tuple[float, float]:
    """General-formula constants (kappa(d), c(d)); c is strictly above 1.

    For d = 2 these are (1/sqrt(8), sqrt(9/8)), weaker than the refined pair
    REFINED_KAPPA_D2, REFINED_C_D2 obtained from the 7-rectangle covering.
    """
    if d < 1:
        raise ValueError(f"d = {d} must be >= 1")
    kappa = float(3**d - 1) ** -(1.0 - 1.0 / d)
    c = (1.0 - 3.0**-d) ** (-1.0 / d)
    return kappa, c


def t_constant(d: int, k: int) -> float:
    """Per-level growth rate k^(1/d), strictly below 3 for k <= 3^d - 1."""
    if d < 1:
        raise ValueError(f"d = {d} must be >= 1")
    return float(k) ** (1.0 / d)


def refined_d2_lower(n: int) -> float:
    """The refined width-2 bound (1/sqrt(7)) * (9/7)^(n/2)."""
    if n < 2:
        raise ValueError(f"n = {n} must be >= 2")
    return REFINED_KAPPA_D2 * (9.0 / 7.0) ** (n / 2.0)


@dataclass(frozen=True)
class BoundReport:
    """All bound quantities for one (n, d), general and refined side by side."""

    n: int
    d: int
    k: int
    rho_upper: int
    lift_lower: Fraction
    kappa: float
    c: float
    t: float
    refined_d2: Optional[float] = None

    def __post_init__(self) -> None:
        """Checks the integer facts behind the floats (c and t round to 1.0
        and 3.0 from d = 31 and 32 on): with K = 3^d - 1 < 3^d and k <= K,
        3^n / k^m >= kappa c^n = 3^n K^(-(n+d-1)/d) iff d m <= n + d - 1."""
        m = (self.n - 1) // self.d + 1
        if not (1 <= self.k <= 3**self.d - 1 < 3**self.d and self.d * m <= self.n + self.d - 1):
            raise ValueError(f"k = {self.k} breaks k <= 3^d - 1 or d m <= n + d - 1")
        if self.rho_upper != self.k**m or self.lift_lower != Fraction(3**self.n, self.rho_upper):
            raise ValueError(f"rho {self.rho_upper} or lift {self.lift_lower} is not k^m, 3^n/k^m")


def bound_report(n: int, d: int, k: Optional[int] = None) -> BoundReport:
    """Evaluate every formula at (n, d).

    k defaults to the certified covering size 3^d - 1; a smaller k (a better
    covering, were one found) strengthens the bound, while a larger one is
    rejected because the report's invariants presuppose a covering of size at
    most 3^d - 1.  A report with a float past the double range or an integer
    past MAX_REPORT_DIGITS digits raises ValueError naming n, before 3^n.
    """
    _check_nd(n, d)
    if d * math.log10(3) >= _LOG10_MAX:  # kappa and t take float(3^d - 1)
        raise ValueError(f"n = {n} too large for a bound report at d = {d}")
    default_k = 3**d - 1
    k = default_k if k is None else k
    if not 1 <= k <= default_k:
        raise ValueError(f"k = {k} outside [1, {default_k}]")
    kappa, c = theorem_constants(d)
    # log10 of rho = k^m and of the numerator 3^(n - m v) (3^v exactly divides k)
    m, v = (n - 1) // d + 1, next(v for v in range(d) if k % 3 ** (v + 1))
    digits = max(m * math.log10(k), (n - m * v) * math.log10(3))
    floats = max(n * math.log10(3) - m * math.log10(k), n * math.log10(c),
                 n / 2 * math.log10(9 / 7) if d == 2 else 0.0)
    if digits >= MAX_REPORT_DIGITS or floats >= _LOG10_MAX:
        raise ValueError(f"n = {n} too large for a bound report at d = {d}, k = {k}")
    return BoundReport(
        n=n,
        d=d,
        k=k,
        rho_upper=rho_upper(n, d, k),
        lift_lower=Fraction(3**n, rho_upper(n, d, k)),
        kappa=kappa,
        c=c,
        t=t_constant(d, k),
        refined_d2=refined_d2_lower(n) if d == 2 else None,
    )


def report_to_json(report: BoundReport) -> str:
    obj = {
        "n": report.n,
        "d": report.d,
        "k": report.k,
        "rho_upper": report.rho_upper,
        "lift_lower": float(report.lift_lower),
        "lift_lower_exact": f"{report.lift_lower.numerator}/{report.lift_lower.denominator}",
        "kappa": report.kappa,
        "c": report.c,
        "t": report.t,
        "refined_d2": report.refined_d2,
        "refined_kappa_d2": REFINED_KAPPA_D2 if report.d == 2 else None,
        "refined_c_d2": REFINED_C_D2 if report.d == 2 else None,
    }
    return json.dumps(obj, sort_keys=True)


def report_to_text(report: BoundReport) -> str:
    rows = [
        ("n", str(report.n)),
        ("d", str(report.d)),
        ("k = 3^d - 1" if report.k == 3**report.d - 1 else "k", str(report.k)),
        ("rho upper bound k^(floor((n-1)/d)+1)", str(report.rho_upper)),
        (
            "lift-size lower bound 3^n / rho",
            f"{report.lift_lower.numerator}/{report.lift_lower.denominator}"
            f" = {float(report.lift_lower):.6g}",
        ),
        ("kappa(d) general", f"{report.kappa:.12g}"),
        ("c(d) general", f"{report.c:.12g}"),
        ("t(d) = k^(1/d)", f"{report.t:.12g}"),
    ]
    if report.refined_d2 is not None:
        rows += [
            ("refined d=2 bound (1/sqrt 7)(9/7)^(n/2)", f"{report.refined_d2:.12g}"),
            ("kappa(2) refined", f"{REFINED_KAPPA_D2:.12g}"),
            ("c(2) refined", f"{REFINED_C_D2:.12g}"),
        ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"
