"""Mixed growth indices and quasianalyticity orders.

Closed-form anchors: a factorial-power sequence with quotient exponent s has
mixed index and quasianalyticity order exactly s, and a power-law weight pair
t**a, t**b has mixed index (1/b - ... ) pinned by the kernel-convergence
threshold.  Brute-force suffix sums from conftest cross-check the threshold
verdicts the bisection relies on.
"""

import math

import numpy as np
import pytest

import ultraweight as uw
from ultraweight.verdict import INDEX_CAP

from conftest import assert_status, brute_mixed_sup_seq

FAST = uw.RunConfig(p_max=20000)


class TestMixedConditionSeq:
    @pytest.mark.parametrize("r,expected", [(1.5, "Satisfied"), (2.5, "Violated")])
    def test_same_sequence_threshold_at_exponent(self, gevrey2, r, expected):
        assert_status(uw.mixed_condition_seq(gevrey2, gevrey2, r, config=FAST),
                      expected)

    @pytest.mark.parametrize("r,expected", [(1.9, "Satisfied"), (2.1, "Violated")])
    def test_pair_threshold_at_gap_plus_one(self, gevrey1, gevrey2, r, expected):
        assert_status(uw.mixed_condition_seq(gevrey1, gevrey2, r, config=FAST),
                      expected)

    def test_single_argument_defaults_to_diagonal(self, gevrey2):
        solo = uw.mixed_condition_seq(gevrey2, r=1.5, config=FAST)
        pair = uw.mixed_condition_seq(gevrey2, gevrey2, 1.5, config=FAST)
        assert solo.status == pair.status
        assert solo.witness["sup"] == pytest.approx(pair.witness["sup"])

    def test_satisfied_sup_matches_brute_force(self, gevrey2):
        v = uw.mixed_condition_seq(gevrey2, gevrey2, 1.5, config=FAST)
        brute = brute_mixed_sup_seq(gevrey2, gevrey2, 1.5, P=20000)
        assert v.witness["sup"] == pytest.approx(float(brute[-1]), rel=1e-6)

    def test_violated_matches_brute_force_blowup(self, gevrey1, gevrey2):
        v = uw.mixed_condition_seq(gevrey1, gevrey2, 2.1, config=FAST)
        assert v.is_violated
        brute = brute_mixed_sup_seq(gevrey1, gevrey2, 2.1, P=20000)
        # the running sup keeps climbing: the second half gains over the first
        assert brute[-1] > 2.0 * brute[len(brute) // 2] or math.isinf(brute[-1])

    def test_rejects_nonpositive_order(self, gevrey2):
        with pytest.raises(uw.InvalidArgument):
            uw.mixed_condition_seq(gevrey2, gevrey2, 0.0)

    def test_an_unbounded_quotient_ratio_is_read_off_the_data(self):
        # no tail laws: the ratio mu_p/nu_p = p still climbs over the last
        # doubling of the precondition range, so no order can hold
        v = uw.mixed_condition_seq(uw.from_quotients(lambda p: p ** 2),
                                   uw.from_quotients(lambda p: p))
        assert v.is_violated and v.provenance == "trend"
        assert v.counterexample["p"] == uw.sequences.PRECONDITION_P == 20000


class TestGammaIndexSeq:
    @pytest.mark.parametrize("s", [1.5, 2.0])
    def test_diagonal_factorial_power_bracket(self, s):
        est = uw.gamma_index_seq(uw.gevrey(s), config=FAST)
        assert est.lower <= s + 0.02 and est.upper >= s - 0.02
        assert est.width <= 3 * FAST.index_tol

    def test_pair_bracket(self, gevrey1, gevrey2):
        est = uw.gamma_index_seq(gevrey1, gevrey2, config=FAST)
        assert est.lower <= 2.0 + 0.02 and est.upper >= 2.0 - 0.02

    def test_factorial_shift_raises_index_by_the_shift(self):
        base = uw.gevrey(1.5)
        eps = 1.0
        est0 = uw.gamma_index_seq(base, config=FAST)
        est1 = uw.gamma_index_seq(uw.factorial_shift(base, eps),
                                  uw.factorial_shift(base, eps), config=FAST)
        assert est1.midpoint == pytest.approx(est0.midpoint + eps, abs=0.05)

    def test_bracket_is_ordered_and_traced(self, gevrey2):
        est = uw.gamma_index_seq(gevrey2, config=FAST)
        assert est.lower <= est.upper
        assert est.r_samples, "bisection trace must be recorded"
        for r, v in est.r_samples:
            if v.is_satisfied:
                assert r <= est.upper + 1e-9
            if v.is_violated:
                assert r >= est.lower - 1e-9


class TestMuSeq:
    @pytest.mark.parametrize("s", [1.5, 3.0])
    def test_factorial_power_order(self, s):
        est = uw.mu_seq(uw.gevrey(s), config=FAST)
        assert est.lower <= s + 0.02 and est.upper >= s - 0.02

    def test_supra_polynomial_growth_is_unbounded(self, qgevrey2):
        est = uw.mu_seq(qgevrey2, config=FAST)
        assert est.unbounded
        assert est.upper == INDEX_CAP

    def test_short_list_keeps_the_bisection_bracket(self):
        # every probe is Inconclusive on six values: no end is certified
        est = uw.mu_seq(uw.explicit([1, 1, 2, 6, 24, 120]))
        assert all(v.is_inconclusive for _, v in est.r_samples)
        assert (est.lower, est.upper) == (0.0, INDEX_CAP)
        assert est.method == "bisection+undecided"

    @pytest.mark.parametrize("s, r", [(1.5, 0.5), (2.0, 1.0), (0.7, 0.3)])
    def test_gevrey_descendant_bracket_holds_s_over_r(self, s, r):
        # S's law fixes mu = s / r; the bisection alone brackets it
        est = uw.mu_seq(uw.descendant(uw.gevrey(s), r).S)
        assert est.method == "bisection"
        assert est.lower <= s / r <= est.upper
        assert est.width <= uw.RunConfig().index_tol

    def test_undecided_descendant_keeps_the_undecided_method(self):
        est = uw.mu_seq(uw.descendant(uw.qgevrey(2.0), 0.5).S)
        assert (est.lower, est.upper) == (0.0, INDEX_CAP)
        assert est.method == "bisection+undecided"

    def test_diagonal_mixed_index_below_order(self, gevrey2):
        gamma = uw.gamma_index_seq(gevrey2, config=FAST)
        mu = uw.mu_seq(gevrey2, config=FAST)
        assert gamma.lower <= mu.upper + 2 * FAST.index_tol


class TestMixedConditionFun:
    def test_satisfied_with_closed_form_constant(self, sqrt_weight):
        # integral_1^inf (t y)^(1/2) y^(-1-1/r) dy = t^(1/2) / (1/r - 1/2)
        v = uw.mixed_condition_fun(sqrt_weight, sqrt_weight, 1.5)
        assert_status(v, "Satisfied")
        assert 5.0 <= v.witness["C"] <= 8.0  # 1/(1/1.5 - 1/2) = 6, plus margin

    def test_violated_beyond_kernel_threshold(self, sqrt_weight):
        assert_status(uw.mixed_condition_fun(sqrt_weight, sqrt_weight, 2.5),
                      "Violated")

    def test_single_argument_defaults_to_diagonal(self, sqrt_weight):
        solo = uw.mixed_condition_fun(sqrt_weight, r=1.5)
        assert solo.status == uw.mixed_condition_fun(sqrt_weight, sqrt_weight,
                                                     1.5).status

    def test_dominating_target_is_rejected(self, sqrt_weight):
        # omega grows strictly faster than sigma, so no constant can work
        fast = uw.PowerLaw(0.9)
        assert_status(uw.mixed_condition_fun(sqrt_weight, fast, 1.05), "Violated")

    def test_rejects_nonpositive_order(self, sqrt_weight):
        with pytest.raises(uw.InvalidArgument):
            uw.mixed_condition_fun(sqrt_weight, sqrt_weight, -1.0)


class TestGammaIndexFun:
    def test_power_law_pair_bracket(self, sqrt_weight, cbrt_weight):
        est = uw.gamma_index_fun(sqrt_weight, cbrt_weight)
        assert est.lower <= 3.1 and est.upper >= 2.9

    def test_diagonal_power_law(self, sqrt_weight):
        est = uw.gamma_index_fun(sqrt_weight)
        assert est.midpoint == pytest.approx(2.0, abs=0.05)

    def test_substitution_scaling_law(self, sqrt_weight, cbrt_weight):
        base = uw.gamma_index_fun(sqrt_weight, cbrt_weight)
        r = 2.0
        sub = uw.gamma_index_fun(uw.power_substitute(sqrt_weight, r),
                                 uw.power_substitute(cbrt_weight, r))
        assert base.midpoint == pytest.approx(r * sub.midpoint, abs=0.05)


class TestMuFun:
    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_power_law_order_is_reciprocal_exponent(self, s):
        est = uw.mu_fun(uw.PowerLaw(1.0 / s))
        assert est.lower <= s + 0.02 and est.upper >= s - 0.02

    def test_near_linear_weight_has_order_near_one(self):
        est = uw.mu_fun(uw.PowerLaw(0.95))
        assert est.midpoint == pytest.approx(1.0 / 0.95, abs=0.05)


class TestGamma1Witness:
    def test_witness_found_for_separated_pair(self, sqrt_weight, cbrt_weight):
        w = uw.find_gamma1_witness(sqrt_weight, cbrt_weight)
        assert w is not None
        assert (w.C, w.K, w.H, w.t0) == (1.0, 8.0, 3.0, 1.0)
        assert w.K > w.H > 1.0

    def test_witness_inequality_holds_on_fresh_grid(self, sqrt_weight,
                                                    cbrt_weight):
        w = uw.find_gamma1_witness(sqrt_weight, cbrt_weight)
        ts = np.geomspace(max(w.t0, 1e-3), 1e7, 200)
        for j in range(w.j_max + 1):
            lhs = cbrt_weight.eval(w.K ** j * ts)
            rhs = w.C * w.H ** j * sqrt_weight.eval(ts)
            assert np.all(lhs <= rhs * (1 + 1e-9)), f"failed at j={j}"

    def test_no_witness_on_the_diagonal_at_index_one(self):
        lin = uw.PowerLaw(1.0)
        assert uw.find_gamma1_witness(lin, lin) is None

    def test_witness_to_dict_round_trip(self, sqrt_weight, cbrt_weight):
        w = uw.find_gamma1_witness(sqrt_weight, cbrt_weight)
        d = w.to_dict()
        assert set(d) == {"C", "K", "H", "t0", "j_max"}
        assert d["K"] == 8.0

    def test_witness_agrees_with_index_above_one(self, sqrt_weight):
        # index 2 > 1 comfortably: a witness must exist
        assert uw.find_gamma1_witness(sqrt_weight, sqrt_weight) is not None
