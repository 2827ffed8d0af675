"""Closed-form bound formulas and their consistency relations."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from liftcert.bounds import (
    REFINED_C_D2,
    REFINED_KAPPA_D2,
    BoundReport,
    bound_report,
    lift_lower,
    refined_d2_lower,
    report_to_json,
    report_to_text,
    rho_upper,
    t_constant,
    theorem_constants,
)


class TestRhoUpper:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_d1_k2_is_power_of_two(self, n):
        assert rho_upper(n, 1, 2) == 2**n

    @pytest.mark.parametrize("d", range(1, 7))
    def test_square_case_is_k(self, d):
        assert rho_upper(d, d, 3**d - 1) == 3**d - 1

    def test_worked_example(self):
        assert rho_upper(5, 2, 8) == 512

    def test_preconditions(self):
        with pytest.raises(ValueError):
            rho_upper(1, 2, 8)
        with pytest.raises(ValueError):
            rho_upper(2, 2, 0)


class TestLiftLower:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_d1_is_three_halves_power_exact(self, n):
        assert lift_lower(n, 1) == Fraction(3, 2) ** n

    def test_square_d2(self):
        assert lift_lower(2, 2) == Fraction(9, 8)

    def test_dominates_closed_form(self):
        for d in range(1, 7):
            kappa, c = theorem_constants(d)
            for n in range(d, 41):
                exact = float(lift_lower(n, d))
                assert exact >= kappa * c**n * (1.0 - 1e-12)


class TestConstants:
    def test_d1_values(self):
        kappa, c = theorem_constants(1)
        assert kappa == pytest.approx(1.0, rel=1e-12)
        assert c == pytest.approx(1.5, rel=1e-12)

    def test_d2_general_values(self):
        kappa, c = theorem_constants(2)
        assert kappa == pytest.approx(1 / math.sqrt(8), rel=1e-12)
        assert c == pytest.approx(math.sqrt(9 / 8), rel=1e-12)

    def test_refined_d2_values(self):
        assert REFINED_KAPPA_D2 == pytest.approx(1 / math.sqrt(7), rel=1e-12)
        assert REFINED_C_D2 == pytest.approx(math.sqrt(9 / 7), rel=1e-12)

    def test_c_decreases_to_one(self):
        values = [theorem_constants(d)[1] for d in range(1, 11)]
        assert all(v > 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_growth_rate_below_three(self, d):
        assert t_constant(d, 3**d - 1) < 3.0

    @pytest.mark.parametrize("constant", [lambda: theorem_constants(0), lambda: t_constant(0, 1)],
                             ids=["theorem-constants", "t-constant"])
    def test_width_zero_rejected(self, constant):
        with pytest.raises(ValueError, match="^d = 0 must be >= 1$"):
            constant()


class TestRefinedD2:
    def test_base_value(self):
        assert refined_d2_lower(2) == pytest.approx(9 / (7 * math.sqrt(7)), rel=1e-12)

    def test_beats_general_analysis_value(self):
        kappa, c = theorem_constants(2)
        for n in range(2, 41):
            assert refined_d2_lower(n) > kappa * c**n

    def test_comparison_to_power_bound(self):
        # the refined closed form equals the exact power ratio at odd n and
        # is weaker by a factor sqrt(7) at even n
        for n in range(2, 21):
            exact = 3**n / 7 ** ((n - 1) // 2 + 1)
            if n % 2 == 1:
                assert refined_d2_lower(n) == pytest.approx(exact, rel=1e-12)
            else:
                assert refined_d2_lower(n) == pytest.approx(
                    exact / math.sqrt(7), rel=1e-12
                )

    def test_precondition(self):
        with pytest.raises(ValueError):
            refined_d2_lower(1)


class TestBoundReport:
    def test_fields_at_n4_d1(self):
        rep = bound_report(4, 1)
        assert rep.k == 2
        assert rep.rho_upper == 16
        assert rep.lift_lower == Fraction(81, 16)
        assert rep.refined_d2 is None

    def test_refined_present_only_at_d2(self):
        assert bound_report(5, 2).refined_d2 is not None
        assert bound_report(5, 3).refined_d2 is None

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BoundReport(
                n=2, d=1, k=2, rho_upper=4,
                lift_lower=Fraction(1, 100), kappa=1.0, c=1.5, t=2.0,
            )

    @pytest.mark.parametrize("k, rho, lift", [(2, 5, Fraction(9, 5)), (3, 9, Fraction(1)),
                                              (0, 0, Fraction(1))],
                             ids=["rho-not-k-power", "k-above-3^d-1", "k-zero"])
    def test_integer_invariants_enforced(self, k, rho, lift):
        with pytest.raises(ValueError):
            BoundReport(n=2, d=1, k=k, rho_upper=rho, lift_lower=lift, kappa=1.0, c=1.5, t=2.0)

    def test_digit_cap_met_exactly_by_a_power_of_ten(self):
        # k = 10^10 <= 3^21 - 1, so log10 rho = 10 m is an integer: it meets
        # the cap at m = 430 (n = 9010), where rho = 10^4300 has 4,301 digits
        assert bound_report(9009, 21, 10**10).rho_upper == 10**4290
        with pytest.raises(ValueError, match="n = 9010 too large"):
            bound_report(9010, 21, 10**10)

    @pytest.mark.parametrize("n, d", [(40, 31), (40, 40), (31, 31), (62, 31)])
    def test_report_past_rounded_constants(self, n, d):
        rep = bound_report(n, d)
        assert rep.c == 1.0 and rep.kappa == theorem_constants(d)[0]
        assert rep.t == t_constant(d, 3**d - 1)

    def test_json_carries_exact_fraction(self):
        import json

        obj = json.loads(report_to_json(bound_report(4, 1)))
        assert obj["lift_lower_exact"] == "81/16"
        assert obj["rho_upper"] == 16

    def test_text_table_labels_both_constant_sets(self):
        text = report_to_text(bound_report(4, 2))
        assert "kappa(d) general" in text
        assert "kappa(2) refined" in text
