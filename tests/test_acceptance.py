"""Acceptance suite: one test per criterion, at full stated scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Randomized criteria use fixed seeds, so outcomes are exactly
reproducible.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from liftcert.atoms import PatternId, pattern_disjoint_support
from liftcert.bitcore import all_strings, cor_slack, intersection_size, udisj, val
from liftcert.bounds import (
    REFINED_C_D2,
    REFINED_KAPPA_D2,
    lift_lower,
    theorem_constants,
)
from liftcert.cli import (
    main,
    run_induction_oracle,
    run_pattern_oracle,
    run_witness_oracle,
)
from liftcert.covering import (
    base_covering_d1,
    certificate_from_json,
    certificate_to_json,
    explicit_covering_d2,
    family_from_json,
    family_to_json,
    maximal_certificates,
    pattern_certificates_d2,
    phi_table_d2,
    recursive_covering,
    verify_patterns_d2,
)

SEED = 0


def report(criterion: int, message: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s >= {budget}s"
    print(f"\nACCEPTANCE {criterion} PASS: {message} ({elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_1_udisj_val_and_slack():
    """val(UDISJ(n)) = 3^n for n = 1..8; slack route matches entrywise, n <= 5."""
    t0 = time.time()
    for n in range(1, 9):
        assert val(udisj(n)) == 3**n
    for n in range(1, 6):
        m = udisj(n)
        for a in all_strings(n):
            for b in all_strings(n):
                assert cor_slack(a, b) == m.value(a, b)
    report(1, "val = 3^n for n = 1..8; slack identity exact for n = 1..5", t0, 1.0)


def test_criterion_2_recursive_coverings_certified():
    """3^d - 1 rectangles, disjointness invariant, all maximal matchings, d <= 4."""
    t0 = time.time()
    for d in (1, 2, 3, 4):
        fam = recursive_covering(d)
        assert fam.k == 3**d - 1
        for r in fam.rectangles:
            for x, y in r.pairs():
                assert intersection_size(x, y) == 0
        certs = maximal_certificates(fam)
        assert len(certs) == 2**d
        for alpha, cert in certs.items():
            assert cert is not None, f"no matching at alpha = {alpha}, d = {d}"
            assert len(cert.assignment) == 3**d - 1
    report(2, "recursive families certified for d = 1..4 (2+4+8+16 matchings)", t0, 5.0)


def test_criterion_3_explicit_d2_and_phi_tables():
    """7-rectangle family covers the six patterns; hand-built maps validate."""
    t0 = time.time()
    fam = explicit_covering_d2()
    assert verify_patterns_d2(fam)
    tables = phi_table_d2()
    assert len(tables) == 6
    for pid, cert in zip(PatternId, tables):
        cert.validate_against(fam, support=set(pattern_disjoint_support(pid)))
    report(3, "patterns verified by matching and by the six transcribed maps", t0, 1.0)


def test_criterion_4_pattern_oracle_10k():
    """10^4 atoms at n = d = 2, U first at even seeds and V first at odd
    ones: all classify, val <= 7."""
    t0 = time.time()
    result = run_pattern_oracle(trials=10_000, seed=SEED)
    assert result["falsifier"] is None
    assert result["passes"] == 10_000
    assert result["max_val"] <= 7
    counts = result["pattern_counts"]
    assert sum(counts.values()) == 10_000
    report(
        4,
        f"10^4 atoms classified, val <= 7; pattern counts {counts}",
        t0,
        30.0,
    )


def test_criterion_5_antidiagonal_oracle_10k_each():
    """10^4 atoms at each of d = 2, 3: witness found, its entry exactly zero."""
    t0 = time.time()
    for d in (2, 3):
        result = run_witness_oracle(d=d, trials=10_000, seed=SEED)
        assert result["falsifier"] is None, f"falsified at d = {d}"
        assert result["passes"] == 10_000
    report(5, "witness found for 10^4 atoms at d = 2 and d = 3", t0, 60.0)


def test_criterion_6_induction_oracle_1k():
    """10^3 atoms at n = 4, d = 2: the block-induction inequality holds."""
    t0 = time.time()
    result = run_induction_oracle(
        n=4, d=2, trials=1_000, seed=SEED, family=recursive_covering(2)
    )
    assert result["falsifier"] is None
    assert result["passes"] == 1_000
    report(
        6,
        f"10^3 induction checks passed (largest val seen {result['max_val']})",
        t0,
        60.0,
    )


def test_criterion_7_bound_formulas():
    """Exact d = 1 powers, refined d = 2 constants, chained inequality sweep."""
    t0 = time.time()
    for n in range(1, 41):
        assert lift_lower(n, 1) == Fraction(3, 2) ** n
    assert abs(REFINED_KAPPA_D2 - 7**-0.5) <= 1e-12 * REFINED_KAPPA_D2
    assert abs(REFINED_C_D2 - (9 / 7) ** 0.5) <= 1e-12 * REFINED_C_D2
    for d in range(1, 7):
        kappa, c = theorem_constants(d)
        for n in range(d, 41):
            assert float(lift_lower(n, d)) >= kappa * c**n * (1 - 1e-12)
    report(7, "d = 1 exact to n = 40; constants and chained inequality to 1e-12", t0, 1.0)


def test_criterion_8_round_trips(capsys):
    """Families and certificates re-validate bit-exactly; seeds reproduce."""
    t0 = time.time()
    families = [base_covering_d1(), explicit_covering_d2()] + [
        recursive_covering(d) for d in (1, 2, 3, 4)
    ]
    for fam in families:
        text = family_to_json(fam)
        again = family_from_json(text)
        assert again == fam and family_to_json(again) == text

    fam2 = explicit_covering_d2()
    certs = list(phi_table_d2())
    rec3 = recursive_covering(3)
    certs_with_families = [(c, fam2) for c in certs] + [
        (c, rec3) for c in maximal_certificates(rec3).values()
    ]
    for cert, fam in certs_with_families:
        text = certificate_to_json(cert)
        again = certificate_from_json(text, fam)
        assert certificate_to_json(again) == text

    first = run_pattern_oracle(trials=50, seed=123)
    second = run_pattern_oracle(trials=50, seed=123)
    assert first == second

    argv = ["atom", "sample", "--n", "2", "--d", "2", "--trials", "25", "--seed", "7"]
    assert main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert main(list(argv)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 and json.loads(out1)["falsifier"] is None

    report(8, "bit-exact round trips and seed-reproducible reports", t0, 1.0)
